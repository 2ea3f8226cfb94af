"""Regenerate benchmarks/goldens.json from the klab sources in ./src.

    python3 benchmarks/make_goldens.py --seeds 0-63

Golden values pin each workload's outputs for the listed seeds; the benchmark
checks them at 1e-12 (forms, sweep) or 1e-9 (dispersion) relative.  Run it
only on a commit whose outputs are trusted, and say so when committing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-63", help="inclusive range lo-hi")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    goldens: dict[str, dict] = {name: {} for name in workloads.WORKLOADS}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=os.getcwd()) as workdir:
        for seed in range(lo, hi + 1):
            for name, cls in workloads.WORKLOADS.items():
                wl = cls(seed, workdir, {})
                goldens[name].update(wl.observe(wl.run()))
            print(f"seed {seed} done", file=sys.stderr)
    write_goldens(goldens, os.path.join(HERE, "goldens.json"))
    return 0


def write_goldens(goldens: dict, path: str) -> None:
    """One golden entry per line, so a changed value shows as a one-line diff."""
    parts = []
    for name in sorted(goldens):
        body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(goldens[name].items()))
        parts.append(f"{json.dumps(name)}: {{\n{body}\n}}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
