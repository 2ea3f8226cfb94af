"""The benchmark's workloads: inputs made from a seed, one timed pass, output checks.

Each workload is built once per process (set-up), then ``run()`` is one timed
pass over a fixed call list and ``check()`` verifies that pass's outputs
outside the timed region.  ``observe()`` gives the values kept as goldens.
Inputs reach klab only through its public calls; klab must already be
importable when this module is imported.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
from math import gcd

from klab import cli, dispersion, forms, sequences

GOLDEN_REL = 1e-12
DISPERSION_REL = 1e-9
IDENTITY_REL = 1e-9
CS_SLACK = 1e-12


def _seed(seed: int, role: int) -> int:
    return 4 * seed + role


def _random_unit(base: int, seed: int) -> sequences.CoefficientSequence:
    return sequences.build_sequence("random_unit", sequences.DyadicRange(base), seed=seed)


@functools.cache
def _coprime_pairs(M: int, N: int, R: int) -> int:
    """#{(m, n) in (M, 2M] x (N, 2N] : gcd(m, nR) = 1}, counted independently of klab."""
    return sum(1 for n in range(N + 1, 2 * N + 1) for m in range(M + 1, 2 * M + 1) if gcd(m, n * R) == 1)


def _rel_close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


class Checks:
    """Counts attempted and failed output checks; keeps the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{name} {detail}".strip())


class Work:
    """What one pass did: summands accumulated, points evaluated, and layer
    figures the benchmark reads off the outputs."""

    def __init__(self, terms: int, points: int, extra: dict | None = None):
        self.terms = terms
        self.points = points
        self.extra = extra or {}


class SweepDesk:
    """``klab sweep --jobs 1`` on a 48-point desk grid, the path users take."""

    name = "sweep-desk"
    GRID = {"M": [128, 256, 512], "N": [128, 256], "A": [8, 16], "R": [8, 16], "theta": [1]}
    AXES = ("M", "N", "A", "R", "theta", "seed")

    def __init__(self, seed: int, workdir: str, goldens: dict):
        self.goldens = goldens
        self.config = os.path.join(workdir, "sweep-desk.json")
        self.out = os.path.join(workdir, "sweep-desk.csv")
        cfg = {
            "grid": {**self.GRID, "seed": [2 * seed, 2 * seed + 1]},
            "sequences": {"alpha": "random_unit", "beta": "random_unit", "nu": "random_unit"},
            "bound": {"formula": "bcr", "epsilon": 0.01, "exponent_variant": "statement"},
        }
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.points = math.prod(len(v) for v in cfg["grid"].values())

    def run(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["sweep", "--config", self.config, "--out", self.out, "--jobs", "1"])

    def _rows(self) -> list[dict]:
        with open(self.out, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def key(self, row: dict) -> str:
        return ",".join(f"{axis}={row[axis]}" for axis in self.AXES)

    def observe(self, code: int) -> dict:
        return {self.key(r): [int(r["terms"]), float(r["lhs"])] for r in self._rows()}

    def check(self, code: int, checks: Checks) -> Work:
        checks("sweep.exit_code", code == 0, f"exit {code}")
        try:
            rows = self._rows()
            with open(self.out + ".summary.json", encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            checks("sweep.outputs_readable", False, str(exc))
            return Work(0, 0)
        checks("sweep.rows", len(rows) == self.points, f"{len(rows)} rows")
        terms_total = 0
        for row in rows:
            M, N, A, R = (int(row[k]) for k in ("M", "N", "A", "R"))
            terms, lhs, rhs, ratio = int(row["terms"]), float(row["lhs"]), float(row["rhs_total"]), float(row["ratio"])
            terms_total += terms
            key = self.key(row)
            checks("sweep.terms_count", terms == _coprime_pairs(M, N, R) * A, key)
            # unit-modulus coefficients scaled to l2 norm 1: each summand is 1/sqrt(MNA)
            checks("sweep.trivial_bound", lhs <= terms / math.sqrt(M * N * A) + CS_SLACK, key)
            checks("sweep.ratio", rhs > 0 and _rel_close(ratio, lhs / rhs, 1e-15), key)
            golden = self.goldens.get(key)
            if golden is not None:
                checks("sweep.golden_terms", terms == golden[0], key)
                checks("sweep.golden_lhs", _rel_close(lhs, golden[1], GOLDEN_REL), f"{key} {lhs!r} vs {golden[1]!r}")
        checks("sweep.summary_points", summary.get("points") == len(rows))
        ratios = [float(r["ratio"]) for r in rows]
        checks("sweep.summary_max_ratio", bool(ratios) and summary.get("max_ratio") == max(ratios))
        return Work(terms_total, len(rows), {"cli.csv_bytes": os.path.getsize(self.out)})


class FormUnbalanced:
    """The form and both mean squares at two unbalanced points (few moduli,
    large phase blocks)."""

    name = "form-unbalanced"
    POINTS = ((4096, 64, 256, 2), (2048, 32, 512, 3))

    def __init__(self, seed: int, workdir: str, goldens: dict):
        self.goldens = goldens
        self.specs = []
        for M, N, A, R in self.POINTS:
            alpha, beta, nu = (_random_unit(base, _seed(seed, role)) for role, base in ((1, M), (2, N), (3, A)))
            spec = forms.TrilinearSpec(alpha, beta, nu, theta=1, R=R)
            self.specs.append((f"M={M},N={N},A={A},R={R},seed={seed}", (M, N, A, R), spec))

    def run(self) -> list:
        return [
            (forms.trilinear_form(spec), forms.mean_square_direct(spec), forms.mean_square_decomposed(spec))
            for _, _, spec in self.specs
        ]

    def observe(self, out: list) -> dict:
        return {key: [abs(form.value), direct] for (key, _, _), (form, direct, _) in zip(self.specs, out)}

    def check(self, out: list, checks: Checks) -> Work:
        terms = 0
        for (key, (M, N, A, R), spec), (form, direct, decomposed) in zip(self.specs, out):
            lhs = abs(form.value)
            checks("form.terms_count", form.terms == _coprime_pairs(M, N, R) * A, key)
            checks(
                "form.cauchy_schwarz",
                lhs <= spec.alpha.l2_norm * math.sqrt(max(direct, 0.0)) + CS_SLACK,
                f"{key} |B|={lhs!r} C={direct!r}",
            )
            checks("form.decomposition", _rel_close(decomposed, direct, IDENTITY_REL), f"{key} {decomposed!r} vs {direct!r}")
            golden = self.goldens.get(key)
            if golden is not None:
                checks("form.golden_abs", _rel_close(lhs, golden[0], GOLDEN_REL), f"{key} {lhs!r} vs {golden[0]!r}")
                checks("form.golden_C", _rel_close(direct, golden[1], GOLDEN_REL), f"{key} {direct!r} vs {golden[1]!r}")
            # both mean squares accumulate the same (a, m, n) summands as the form
            terms += 3 * form.terms
        checks("form.outputs", len(out) == len(self.specs))
        return Work(terms, len(self.specs))


class DispersionSplit:
    """dispersion_split plus progression_error_total: pure-Python dispersion."""

    name = "dispersion-split"
    A_RES = 1
    M_SCALE = 1024.0

    def __init__(self, seed: int, workdir: str, goldens: dict):
        self.goldens = goldens
        self.key = f"seed={seed}"
        self.alpha = _random_unit(1024, _seed(seed, 1))
        self.beta = sequences.build_sequence("tau_k", sequences.DyadicRange(512), k=2)
        self.moduli = sequences.DyadicRange(256)
        self.psi = dispersion.SmoothCutoff()

    def run(self) -> tuple:
        split = dispersion.dispersion_split(self.alpha, self.beta, self.moduli, self.A_RES, self.psi, self.M_SCALE)
        delta = dispersion.progression_error_total(self.alpha, self.beta, self.moduli, self.A_RES)
        return split, delta

    def observe(self, out: tuple) -> dict:
        split, delta = out
        return {self.key: {"U": split.U, "V": [split.V.real, split.V.imag], "W": split.W, "delta": delta}}

    def check(self, out: tuple, checks: Checks) -> Work:
        split, delta = out
        quad = split.W - 2.0 * split.V.real + split.U
        checks("dispersion.quadratic_nonnegative", quad >= -1e-9, repr(quad))
        gap = self.alpha.l2_norm * math.sqrt(max(quad, 0.0)) - delta
        checks("dispersion.cauchy_schwarz_gap", gap >= -1e-9, repr(gap))
        qs = list(self.moduli)
        checks("dispersion.sign_keys", sorted(split.c) == qs)
        for q in qs:
            cq = split.c.get(q)
            checks("dispersion.sign_domain", cq in (-1, 0, 1) and (cq == 0) == (gcd(self.A_RES, q) > 1), f"q={q} c={cq}")
        golden = self.goldens.get(self.key)
        if golden is not None:
            for name, got, want in (
                ("U", split.U, golden["U"]),
                ("W", split.W, golden["W"]),
                ("V.re", split.V.real, golden["V"][0]),
                ("V.im", split.V.imag, golden["V"][1]),
                ("delta", delta, golden["delta"]),
            ):
                # V.im is a cancellation residue; scale its tolerance by |V|
                scale = abs(complex(*golden["V"])) if name.startswith("V") else abs(want)
                checks(f"dispersion.golden_{name}", abs(got - want) <= DISPERSION_REL * max(scale, 1e-300), f"{got!r} vs {want!r}")
        # (m, q) pairs visited: alpha's support twice per modulus (two progression
        # errors) and the cutoff window once per modulus (the X/Y accumulation)
        s0, s1 = self.psi.support
        window = math.floor(s1 * self.M_SCALE) - math.ceil(s0 * self.M_SCALE) + 1
        coprime = sum(1 for q in qs if gcd(q, self.A_RES) == 1)
        return Work(coprime * (2 * len(self.alpha.values) + window), 1)


WORKLOADS = {w.name: w for w in (SweepDesk, FormUnbalanced, DispersionSplit)}
