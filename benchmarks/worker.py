"""One workload in one process: set up, warm up, time passes, check every output.

Started by ``run.py``; prints one JSON object as its last stdout line.  With
``--mode setup`` it stops once set-up is done and reports only its set-up
time, so ``run.py`` can take the set-up time of several fresh processes.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))


def environment() -> dict:
    """CPU, interpreter, numpy/scipy and BLAS facts that move the timings."""
    import numpy as np
    import scipy

    cpu = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "flags") and key not in cpu:
                    cpu[key] = value.strip()
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cores = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                cores[os.path.basename(path)] = fn().decode()
                break
    return {
        "cpu_model": cpu.get("model name"),
        "cpu_flags": cpu.get("flags"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "openblas_core": cores,
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# Median time of reference_loop() that defines "reference speed"; close to the
# loop's time on an unloaded 2 GHz Xeon vCPU, where the baseline in README.md
# was taken.  A time at reference speed is a measured time multiplied by
# REFERENCE_S / reference_s() measured around it.
REFERENCE_S = 0.025


def reference_loop(n: int = 250_000) -> float:
    """Wall time of a fixed pure-Python integer loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return time.perf_counter() - t0


def reference_s(samples: int = 4) -> float:
    """How fast this machine runs Python right now: the median of a few
    reference loops.  Other tenants of a shared host slow the loop and the
    workloads alike, by up to 2x for minutes at a time."""
    return median(reference_loop() for _ in range(samples))


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    ref: float  # reference_s() around the pass
    layers: dict = field(default_factory=dict)
    work: object = None

    @property
    def scale(self) -> float:
        """Factor that brings this pass's times to reference speed."""
        return REFERENCE_S / self.ref


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() when the parent spawned us")
    parser.add_argument("--src", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import workloads  # imports klab from --src
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh).get(args.workload, {})
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir, goldens)
    setup_s = time.monotonic() - args.started
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    if tracer:
        setup_spans, _ = tracer.take()
        result["setup_layers"] = tracing.layer_figures(setup_spans, {}, setup_s, REFERENCE_S / reference_s())
        tracer.uninstall()

    checks = workloads.Checks()

    def one_pass(traced: bool) -> Pass:
        before = reference_s()
        if traced:
            tracer.install()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = wl.run()
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if traced:
                tracer.uninstall()
        p = Pass(traced, wall, cpu, (before + reference_s()) / 2)
        if traced:
            p.layers = tracing.layer_figures(*tracer.take(), wall, p.scale)
        p.work = wl.check(out, checks)
        return p

    passes: list[Pass] = []
    warm = None
    try:
        # untimed warm-up: the first pass in a process runs slower
        warm = one_pass(False)
        begun = time.perf_counter()
        # a traced run alternates untraced and traced passes and needs one of each
        while not passes or time.perf_counter() - begun < args.seconds or (tracer and len(passes) < 2):
            passes.append(one_pass(bool(tracer) and len(passes) % 2 == 1))
    except Exception:
        checks("pass.completed", False, traceback.format_exc(limit=3).replace("\n", " | "))

    timed = [p for p in passes if not p.traced]
    result.update(
        warmup_s=warm.wall if warm else None,
        walls=[p.wall for p in timed],
        cpus=[p.cpu for p in timed],
        refs=[p.ref for p in timed],
        terms=[p.work.terms for p in timed],
        points=[p.work.points for p in timed],
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        environment=environment(),
    )
    traced = [p for p in passes if p.traced]
    if traced and timed:
        figures = [dict(p.layers, **p.work.extra) for p in traced]
        layers = {k: median(f.get(k, 0.0) for f in figures) for k in {k for f in figures for k in f}}
        untraced_wall = median(p.wall * p.scale for p in timed)
        layers["trace.pass_wall_s"] = median(p.wall * p.scale for p in traced)
        layers["trace.overhead_s"] = layers["trace.pass_wall_s"] - untraced_wall
        layers["warmup.ratio"] = warm.wall * warm.scale / untraced_wall
        layers["sequences.build.setup_s"] = result["setup_layers"].get("sequences.build.self_s", 0.0)
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
