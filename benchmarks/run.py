"""klab benchmark: run workloads, each in its own process, and print their metrics.

    python3 benchmarks/run.py --workload sweep-desk --seed 1 --seconds 20 --trace 0

Run from the root of a klab checkout; klab is imported from ``src/`` there.
``--workload all`` (the default) runs every workload in turn.  With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Every output is checked; the last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 all checks passed, 1 an output check failed or a workload
process died, 2 usage error or no klab sources in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median, quantiles

from worker import REFERENCE_S, reference_s

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-desk", "form-unbalanced", "dispersion-split")
# Fresh processes whose set-up time is sampled per run.
SETUP_PROBES = 5
# Every process is stopped well inside a run's 180-second budget.
PROCESS_TIMEOUT_S = 170.0


def _spawn(mode: str, workload: str, args, src: str, workdir: str, timeout: float) -> dict:
    started = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--mode", mode, "--started", repr(started),
        "--src", src, "--workdir", workdir,
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def end_to_end(res: dict, setup: list[tuple[float, float]]) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, note).  Times are at reference speed (see worker.REFERENCE_S);
    the raw_* figures are the times as the clock read them."""
    walls, cpus = res["walls"], res["cpus"]
    scale = [REFERENCE_S / r for r in res["refs"]]
    ref_walls = [w * k for w, k in zip(walls, scale)]
    ref_cpus = [c * k for c, k in zip(cpus, scale)]
    ref_setup = [s * REFERENCE_S / r for s, r in setup]
    raw_setup = [s for s, _ in setup]
    return {
        "setup_s": (median(ref_setup), "s", f"median of {len(setup)} fresh processes; {_spread(ref_setup)}"),
        "wall_s": (median(ref_walls), "s", f"median pass; {_spread(ref_walls)}"),
        "cpu_s": (median(ref_cpus), "s", f"median pass, all threads; {_spread(ref_cpus)}"),
        "terms_per_s": (median(t / w for t, w in zip(res["terms"], ref_walls)), "1/s", f"{res['terms'][0]} terms per pass"),
        "points_per_s": (median(p / w for p, w in zip(res["points"], ref_walls)), "1/s", f"{res['points'][0]} points per pass"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB", "ru_maxrss of the measuring process"),
        "raw_setup_s": (median(raw_setup), "s", _spread(raw_setup)),
        "raw_wall_s": (median(walls), "s", _spread(walls)),
        "raw_cpu_s": (median(cpus), "s", _spread(cpus)),
        "reference_s": (median(res["refs"]), "s", f"reference loop; {REFERENCE_S} s defines reference speed"),
    }


END_TO_END = ("setup_s", "wall_s", "cpu_s", "terms_per_s", "points_per_s", "peak_rss_mb")


# Per-layer metrics of a traced run, as BENCHMARK.json lists them; each is the
# median over traced passes of a per-pass figure (see README.md).
PER_LAYER = [
    ("arith.inverse.calls", "count"), ("arith.inverse.values", "count"),
    ("arith.inverse.self_s", "s"), ("arith.inverse.share", "ratio"),
    ("arith.split.calls", "count"), ("arith.split.self_s", "s"),
    ("arith.phi.calls", "count"), ("arith.phi.self_s", "s"),
    ("sequences.build.calls", "count"), ("sequences.build.self_s", "s"), ("sequences.build.setup_s", "s"),
    ("forms.trilinear_form.calls", "count"), ("forms.trilinear_form.self_s", "s"), ("forms.trilinear_form.cpu_s", "s"),
    ("forms.mean_square_direct.calls", "count"), ("forms.mean_square_direct.self_s", "s"),
    ("forms.mean_square_direct.cpu_s", "s"),
    ("forms.mean_square_decomposed.calls", "count"), ("forms.mean_square_decomposed.self_s", "s"),
    ("forms.mean_square_decomposed.cpu_s", "s"),
    ("forms.phase.self_s", "s"), ("forms.terms", "count"), ("forms.blocks", "count"), ("forms.ns_per_term", "ns"),
    ("bounds.rhs.calls", "count"), ("bounds.rhs.self_s", "s"), ("bounds.estimate.self_s", "s"),
    ("dispersion.progression_error.calls", "count"), ("dispersion.progression_error.self_s", "s"),
    ("dispersion.dispersion_split.self_s", "s"), ("dispersion.progression_error_total.self_s", "s"),
    ("cli.run_sweep.self_s", "s"), ("cli.csv_bytes", "bytes"),
    ("trace.pass_wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count"), ("warmup.ratio", "ratio"),
]


def per_layer(layers: dict) -> dict[str, tuple[float, str, str]]:
    return {name: (layers.get(name, 0.0), unit, "") for name, unit in PER_LAYER}


def run_workload(workload: str, args, src: str, workdir: str) -> tuple[dict, dict]:
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    setup = []  # (set-up time, reference time around it)
    if not args.trace:
        for _ in range(SETUP_PROBES):
            before = reference_s()
            seconds = _spawn("setup", workload, args, src, workdir, deadline - time.monotonic())["setup_s"]
            setup.append((seconds, (before + reference_s()) / 2))
    res = _spawn("measure", workload, args, src, workdir, deadline - time.monotonic())
    if not res["walls"]:
        return res, {}
    return res, per_layer(res.get("layers", {})) if args.trace else end_to_end(res, setup)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="klab benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed passes run until this much wall time is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "klab", "__init__.py")):
        print(f"error: no klab sources under {src}; run from the root of a klab checkout", file=sys.stderr)
        return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=root)
    attempted = failed = 0
    out_metrics: dict[str, dict] = {}
    try:
        for workload in selected:
            try:
                res, metrics = run_workload(workload, args, src, workdir)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            attempted += res["attempted"]
            failed += res["failed"]
            print(f"[{workload}] seed={args.seed} trace={args.trace} warmup_s={res['warmup_s']}")
            print(f"[{workload}] environment {json.dumps(res['environment'], sort_keys=True)}")
            for msg in res["failures"]:
                print(f"[{workload}] FAILED {msg}")
            frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
            print(f"[{workload}] failed_frac = {frac:.6g}  ({res['failed']} of {res['attempted']} output checks)")
            for name, (value, unit, note) in metrics.items():
                print(f"[{workload}] {name} = {value:.6g} {unit}  {note}".rstrip())
            prefix = "" if len(selected) == 1 else f"{workload}."
            for name, (value, unit, _) in metrics.items():
                if args.trace or name in END_TO_END:
                    out_metrics[prefix + name] = {"value": value, "unit": unit}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed if attempted else 1,
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
