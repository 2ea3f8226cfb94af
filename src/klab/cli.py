"""Command-line driver: verification suites, parameter sweeps, range tables.

Three subcommands:

- ``klab verify --suite NAME [--json]`` runs one of the invariant suites
  defined in :mod:`klab.checks` and prints a pass/fail line per check, or
  one JSON object ``{"suite", "passed", "checks"}`` with ``--json`` (exit 1
  on any failure);
- ``klab sweep --config cfg.json --out table.csv [--jobs N]`` evaluates the
  trilinear form against a chosen bound formula over a parameter grid of at
  most ``GRID_CAP`` = 10^6 points with nonnegative seeds and writes a
  deterministic CSV (rows sorted by grid coordinates, floats at 17
  significant digits) plus a JSON sidecar with the max observed lhs/rhs
  ratio;
- ``klab ranges --q p/q`` prints the exact admissible N-exponent ceilings
  of both corollaries (``new``, then ``fr``) per variant.

Exit codes: 0 pass, 1 invariant failure, 2 usage/config error or an OS
error such as an unwritable ``--out``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import itertools
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Sequence, TextIO

from . import bounds, forms, sequences
from .checks import SUITES, CheckResult

__all__ = [
    "ConfigError",
    "run_verify",
    "run_sweep",
    "run_ranges",
    "role_seed",
    "main",
    "entrypoint",
]

GRID_CAP = 10**6
GRID_AXES = ("M", "N", "A", "R", "theta", "seed")
_AXIS_DEFAULTS = {"R": [1], "theta": [1], "seed": [0]}
_CONFIG_KEYS = {"grid", "sequences", "bound"}
_ROLE_OFFSET = {"alpha": 1, "beta": 2, "nu": 3}
# Each sweep formula: its bound options but epsilon, each with its allowed values (the
# default first), and its rhs at a grid point, which looks bounds.rhs_* up at call time.
# The coprime bound is taken at N*R, the size of the moduli nR.
_FORMULAS = {
    "bcr": ({"exponent_variant": tuple(bounds.EXPONENT_VARIANTS)}, lambda pt, norms, bound: (
        bounds.rhs_trilinear_fixed_factor(pt["M"], pt["N"], pt["A"], pt["R"], pt["theta"], norms,
                                          bound["epsilon"], bound["exponent_variant"]))),
    "bc": ({}, lambda pt, norms, bound: bounds.rhs_trilinear_coprime(
        pt["M"], pt["N"] * pt["R"], pt["A"], pt["theta"], norms, bound["epsilon"])),
}


class ConfigError(ValueError):
    """Malformed sweep configuration."""


def role_seed(seed: int, role: str) -> int:
    """Deterministic per-role seed derivation used by sweeps (documented so
    any CSV row can be recomputed from its coordinates alone)."""
    return seed * 4 + _ROLE_OFFSET[role]


def _parse_kind(kind: str) -> tuple[str, int | None]:
    m = re.fullmatch(r"tau_k:(\d+)", kind) if isinstance(kind, str) else None
    if m and int(m.group(1)) >= 1:
        return "tau_k", int(m.group(1))
    if kind in ("ones", "moebius", "random_unit"):
        return kind, None
    raise ConfigError(
        f"unknown sequence kind {kind!r} (expected ones, moebius, random_unit or tau_k:K with K >= 1)"
    )


def _build_role(kind: str, base: int, seed: int, role: str) -> sequences.CoefficientSequence:
    name, k = _parse_kind(kind)
    return sequences.build_sequence(name, sequences.DyadicRange(base), k=k, seed=role_seed(seed, role))


def load_config(path: str) -> dict:
    """Read and validate a sweep config; return it with every default filled
    in: the R, theta and seed axes, each role's kind and the formula's bound
    keys, with epsilon as a float."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    grid = cfg.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("config needs a nonempty 'grid' object")
    bad_axes = set(grid) - set(GRID_AXES)
    if bad_axes:
        raise ConfigError(f"unknown grid axes: {sorted(bad_axes)} (allowed: {GRID_AXES})")
    for axis in ("M", "N", "A"):
        if axis not in grid:
            raise ConfigError(f"grid is missing required axis {axis!r}")
    for axis, vals in grid.items():
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"grid axis {axis!r} must be a nonempty list")
        if not all(type(v) is int for v in vals):  # type() excludes bools
            raise ConfigError(f"grid axis {axis!r} must hold integers")
        if axis in ("M", "N", "A", "R") and any(v < 1 for v in vals):
            raise ConfigError(f"grid axis {axis!r} must hold positive integers")
        if axis == "theta" and any(v == 0 for v in vals):
            raise ConfigError("grid axis 'theta' must not contain 0")
        # random.Random(n) seeds with |n|, so a negative seed would repeat another point's stream
        if axis == "seed" and any(v < 0 for v in vals):
            raise ConfigError("grid axis 'seed' must hold nonnegative integers")
    for axis, default in _AXIS_DEFAULTS.items():
        grid.setdefault(axis, default)
    seqs = cfg.setdefault("sequences", {})
    if not isinstance(seqs, dict) or set(seqs) - set(_ROLE_OFFSET):
        raise ConfigError(f"'sequences' must map roles among {tuple(_ROLE_OFFSET)}")
    for role in _ROLE_OFFSET:
        _parse_kind(seqs.setdefault(role, "random_unit"))
    bound = cfg.setdefault("bound", {})
    if not isinstance(bound, dict) or bound.setdefault("formula", "bcr") not in list(_FORMULAS):
        raise ConfigError(f"'bound' must be an object whose formula is among {sorted(_FORMULAS)}, got {bound!r}")
    options, _ = _FORMULAS[bound["formula"]]
    keys = {"formula", "epsilon", *options}
    if set(bound) - keys:
        raise ConfigError(f"'bound' keys of formula {bound['formula']!r} must be among {sorted(keys)}")
    epsilon = bound.setdefault("epsilon", 0.01)
    if type(epsilon) not in (int, float):  # type() excludes bools
        raise ConfigError(f"bound.epsilon must be a number, got {epsilon!r}")
    try:
        bounds.check_rhs_inputs(epsilon)
    except bounds.InvalidExponent as exc:
        raise ConfigError(f"bound.{exc}") from None
    bound["epsilon"] = float(epsilon)
    for key, allowed in options.items():
        if bound.setdefault(key, allowed[0]) not in allowed:
            raise ConfigError(f"bound.{key} must be one of {list(allowed)}, got {bound[key]!r}")
    return cfg


def _grid_points(cfg: dict) -> list[dict]:
    axes_values = [sorted(set(cfg["grid"][axis])) for axis in GRID_AXES]
    count = math.prod(len(v) for v in axes_values)
    if count > GRID_CAP:
        raise ConfigError(f"grid has {count} points, exceeding the cap of {GRID_CAP}")
    return [dict(zip(GRID_AXES, combo)) for combo in itertools.product(*axes_values)]


def _sweep_run(task: dict) -> list[dict]:
    """Evaluate a task's grid points, one row each: |trilinear form| against
    the chosen bound.  One :func:`klab.forms.trilinear_forms` call takes
    them all, and it enumerates the union of the moduli nR of each theta's
    points once; each (role, base, seed) sequence is built once and shared
    by the points that use it."""
    kinds, bound = task["sequences"], task["bound"]
    _, rhs_at = _FORMULAS[bound["formula"]]
    build = functools.cache(lambda role, base, seed: _build_role(kinds[role], base, seed, role))
    specs = [
        forms.TrilinearSpec(build("alpha", pt["M"], pt["seed"]), build("beta", pt["N"], pt["seed"]),
                            build("nu", pt["A"], pt["seed"]), theta=pt["theta"], R=pt["R"])
        for pt in task["points"]
    ]
    rows = []
    for pt, spec, result in zip(task["points"], specs, forms.trilinear_forms(specs)):
        lhs = abs(result.value)
        norms = (spec.alpha.l2_norm, spec.beta.l2_norm, spec.nu.l2_norm)
        rhs = rhs_at(pt, norms, bound)
        ratio = lhs / rhs.total if rhs.total > 0 else math.nan
        # the point's axes, then these columns, with term1, term2, ... in formula order
        rows.append(dict(pt, lhs=lhs, rhs_total=rhs.total, ratio=ratio, terms=result.terms, **dict(rhs.terms),
                         flags=";".join(rhs.flags)))
    return rows


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@contextmanager
def _atomic_open(path: str) -> Iterator[TextIO]:
    """Open ``path`` for writing through a temporary file in its directory
    (created if missing) that replaces it on success, so a write that fails
    leaves any previous file intact.  The temporary file is opened as
    ``open(path, "w")`` would open ``path``, so the umask sets its mode."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_sweep(config_path: str, out_path: str, jobs: int = 1) -> dict:
    """Run a sweep; returns the summary dict written to the JSON sidecar.

    The grid points, ordered stably by theta, are cut into min(jobs, points)
    contiguous slices, one task each (on at most one process per usable
    CPU), so that each task's :func:`klab.forms.trilinear_forms` call, which
    enumerates each theta's moduli once, meets as few thetas as it can.
    Every value depends on its point alone, so the bytes do not depend on ``jobs``."""
    cfg = load_config(config_path)
    points = sorted(_grid_points(cfg), key=lambda pt: pt["theta"])
    parts = min(jobs, len(points))
    tasks = [{"points": points[len(points) * k // parts:len(points) * (k + 1) // parts],
              "sequences": cfg["sequences"], "bound": cfg["bound"]} for k in range(parts)]
    if parts > 1:
        # every worker is started up front, so never more than there are tasks or CPUs to run them
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(parts, _cpu_count())) as pool:
            rows = [row for part in pool.map(_sweep_run, tasks) for row in part]
    else:
        rows = [row for task in tasks for row in _sweep_run(task)]
    rows.sort(key=lambda r: tuple(r[axis] for axis in GRID_AXES))

    # every row has the same keys, written by _sweep_run in column order
    header = list(rows[0])
    with _atomic_open(out_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in header])

    positive = [row for row in rows if row["rhs_total"] > 0]
    summary = {
        "points": len(rows),
        "degenerate_points": len(rows) - len(positive),
        **cfg["bound"],  # formula, epsilon and the formula's options
        "max_ratio": None,
        "argmax": None,
    }
    if positive:
        best = max(positive, key=lambda row: row["ratio"])  # the first of equal maxima
        summary["max_ratio"] = best["ratio"]
        summary["argmax"] = {axis: best[axis] for axis in GRID_AXES}
    with _atomic_open(out_path + ".summary.json") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def run_ranges(q_text: str, out: str | None = None) -> str:
    """Exact N-exponent ceilings for both corollaries, ``new`` then ``fr``, at the given Q-exponent."""
    q = bounds.parse_exponent(q_text)
    lines = [f"q-exponent: {q}"]
    ceilings: dict[str, Fraction] = {}
    for key in ("new", "fr"):
        ci = bounds.admissible_n_exponent(key, "i", q)
        ceilings[key] = ci.ceiling
        status = "feasible" if ci.feasible else "infeasible (ceiling <= 0)"
        lines.append(f"[{key}] variant (i):   N <= X^({ci.ceiling})  [{status}]")
        for var in ("ii", "iii"):
            cv = bounds.admissible_n_exponent(key, var, q)
            adm = "admissible" if cv.q_admissible else "not admissible"
            lines.append(
                f"[{key}] variant ({var}): N <= X^({cv.ceiling}), needs Q <= X^({cv.extremal_q})"
                f"  [q {adm}]"
            )
    delta = ceilings["new"] - ceilings["fr"]
    lines.append(f"variant (i) improvement (new - fr): {delta}")
    lines.append(
        f"extremal q-exponent (ceiling hits 0): new {bounds.extremal_q_exponent('new')}, "
        f"fr {bounds.extremal_q_exponent('fr')}"
    )
    table = "\n".join(lines) + "\n"
    if out:
        with _atomic_open(out) as fh:
            fh.write(table)
    return table


def run_verify(suite: str) -> tuple[int, list[CheckResult]]:
    """Run one suite of :data:`klab.checks.SUITES`; returns (exit_code, results)."""
    checks = SUITES.get(suite)
    if checks is None:
        return 2, [CheckResult(f"unknown suite {suite!r}", False)]
    results = [check() for check in checks]
    code = 0 if all(r.passed for r in results) else 1
    return code, results


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="klab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("--suite", required=True, help=f"one of {sorted(SUITES)}")
    p_verify.add_argument("--json", action="store_true", help="print one JSON object, not a line per check")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    p_sweep.add_argument("--config", required=True, help="JSON sweep configuration")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="grid slices, run in parallel on at most one process per usable CPU")

    p_ranges = sub.add_parser("ranges", help="exact exponent-range table")
    p_ranges.add_argument("--q", required=True, help="Q-exponent as a rational p/q")
    p_ranges.add_argument("--out", default=None, help="also write the table to this path")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "verify":
            code, results = run_verify(args.suite)
            if args.json:
                checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
                print(json.dumps({"suite": args.suite, "passed": code == 0, "checks": checks}))
            else:
                for r in results:
                    status = "PASS" if r.passed else "FAIL"
                    detail = f"  ({r.detail})" if r.detail else ""
                    print(f"{status} {r.name}{detail}")
            if code == 2:
                print(f"error: unknown suite; choose from {sorted(SUITES)}", file=sys.stderr)
            return code
        if args.command == "sweep":
            if args.jobs < 1:
                raise ConfigError("--jobs must be >= 1")
            summary = run_sweep(args.config, args.out, args.jobs)
            if summary["max_ratio"] is not None:
                print(
                    f"wrote {args.out} ({summary['points']} rows); "
                    f"max ratio {summary['max_ratio']:.6g} at {summary['argmax']}"
                )
            else:
                print(f"wrote {args.out} ({summary['points']} rows); all rows degenerate")
            return 0
        if args.command == "ranges":
            print(run_ranges(args.q, args.out), end="")
            return 0
    except (ConfigError, bounds.InvalidExponent, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2  # pragma: no cover


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
