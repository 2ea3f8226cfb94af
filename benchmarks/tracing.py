"""Spans around klab's layer boundaries, recorded from outside the program.

The tracer replaces module-level names that callers look up at call time
(``klab.forms.batch_mod_inverse``, ``klab.cli.run_sweep`` and so on) with
wrappers that record a span per call: name, start, end and the index of the
enclosing span.  Nothing under ``src/`` changes.  Spans stay in memory for
one pass and are folded into per-layer figures when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable

# A counter receives a call's positional arguments and returns
# {counter name: increment}.
_Counter = Callable[[tuple], dict]


def _inverse_values(args: tuple) -> dict:
    return {"arith.inverse.values": len(args[0])}


def _phase_cells(args: tuple) -> dict:
    return {"forms.terms": len(args[0]) * len(args[1])}


# (module, attribute, span name, counter, record cpu time).  Every attribute is
# looked up through its module at call time, so replacing it reaches callers.
BOUNDARIES: list[tuple[str, str, str, _Counter | None, bool]] = [
    ("klab.forms", "batch_mod_inverse", "arith.inverse", _inverse_values, False),
    ("klab.forms", "squarefree_squarefull_split", "arith.split", None, False),
    ("klab.forms", "radical", "arith.split", None, False),
    ("klab.forms", "is_squarefree", "arith.split", None, False),
    ("klab.forms", "is_squarefull", "arith.split", None, False),
    ("klab.dispersion", "euler_phi", "arith.phi", None, False),
    ("klab.sequences", "build_sequence", "sequences.build", None, False),
    ("klab.forms", "trilinear_form", "forms.trilinear_form", None, True),
    ("klab.forms", "mean_square_direct", "forms.mean_square_direct", None, True),
    ("klab.forms", "mean_square_decomposed", "forms.mean_square_decomposed", None, True),
    ("klab.forms", "_phase_block", "forms.phase", _phase_cells, False),
    ("klab.bounds", "rhs_trilinear_fixed_factor", "bounds.rhs", None, False),
    ("klab.bounds", "rhs_trilinear_coprime", "bounds.rhs", None, False),
    ("klab.bounds", "rhs_mean_square_bound", "bounds.rhs", None, False),
    ("klab.bounds", "implied_constant_estimate", "bounds.estimate", None, False),
    ("klab.dispersion", "progression_error", "dispersion.progression_error", None, False),
    ("klab.dispersion", "progression_error_total", "dispersion.progression_error_total", None, False),
    ("klab.dispersion", "dispersion_split", "dispersion.dispersion_split", None, False),
    ("klab.cli", "run_sweep", "cli.run_sweep", None, False),
]

# Spans of the forms layer whose inclusive time is charged to its terms.
FORMS_TOP = ("forms.trilinear_form", "forms.mean_square_direct", "forms.mean_square_decomposed")


class Span:
    __slots__ = ("name", "start", "end", "parent", "cpu")

    def __init__(self, name: str, start: float, end: float, parent: int, cpu: float = 0.0):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.cpu = cpu


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Installs span-recording wrappers and folds each pass into layer figures."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counter: _Counter | None, cpu: bool):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            if counter is not None:
                for key, inc in counter(args).items():
                    counts[key] += inc
            c0 = cpu_clock() if cpu else 0.0
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                if cpu:
                    span.cpu = cpu_clock() - c0
                stack.pop()

        return wrapper

    def install(self) -> None:
        for mod_name, attr, name, counter, cpu in BOUNDARIES:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:  # a renamed boundary reads as zero, not as a crash
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter, cpu))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def layer_figures(spans: list[Span], counts: dict[str, int], pass_wall: float, scale: float = 1.0) -> dict[str, float]:
    """Per-layer figures of one pass: calls, self time and cpu time per span name,
    plus the counters and the derived forms and inverse ratios.  Times are
    multiplied by ``scale`` (the pass's factor to reference speed)."""
    out: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += self_s * scale
        if span.name in FORMS_TOP:
            out[f"{span.name}.cpu_s"] += span.cpu * scale
            if span.parent < 0 or spans[span.parent].name not in FORMS_TOP:
                out["forms.inclusive_s"] += (span.end - span.start) * scale
    for key, value in counts.items():
        out[key] += value
    out["forms.blocks"] = out.pop("forms.phase.calls", 0.0)
    terms = out.get("forms.terms", 0.0)
    out["forms.ns_per_term"] = out.pop("forms.inclusive_s", 0.0) / terms * 1e9 if terms else 0.0
    out["arith.inverse.share"] = out.get("arith.inverse.self_s", 0.0) / (pass_wall * scale)
    out["trace.spans"] = len(spans)
    return dict(out)
