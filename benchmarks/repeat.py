"""Run the benchmark once per seed and summarise each metric across the runs.

    python3 benchmarks/repeat.py --workload sweep-desk --seeds 1-10 --seconds 20 [--out runs.json]

For every metric it prints the median, the quartiles and the spread
(q3 - q1) / median over the runs, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  This is how the
run-to-run spread in README.md was measured, and how a change is compared
with its parent.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default=None, help="also write every run's result here")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    runs = []
    for seed in range(lo, hi + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        med = median(values)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<44} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
