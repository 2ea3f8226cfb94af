"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 is covered once
        Span("leaf", 2.0, 3.0, 1),
        Span("late", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert tracing.self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_figures_sum_self_time_and_counts_per_name():
    spans = [
        Span("forms.trilinear_form", 0.0, 4.0, -1, cpu=6.0),
        Span("arith.inverse", 0.5, 1.5, 0),
        Span("forms.phase", 2.0, 3.0, 0),
        Span("arith.inverse", 3.0, 3.5, 0),
    ]
    fig = tracing.layer_figures(spans, {"forms.terms": 200, "arith.inverse.values": 8}, pass_wall=5.0)
    assert fig["forms.trilinear_form.calls"] == 1
    assert fig["forms.trilinear_form.self_s"] == pytest.approx(1.5)
    assert fig["forms.trilinear_form.cpu_s"] == 6.0
    assert fig["arith.inverse.calls"] == 2
    assert fig["arith.inverse.self_s"] == pytest.approx(1.5)
    assert fig["arith.inverse.share"] == pytest.approx(0.3)
    assert fig["forms.blocks"] == 1
    assert fig["forms.ns_per_term"] == pytest.approx(4.0 / 200 * 1e9)
    assert fig["trace.spans"] == 4


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "wall_s", "cpu_s", "terms_per_s", "points_per_s", "peak_rss_mb"}


def _copy_checkout(dst) -> str:
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dst, "src"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, os.path.join(dst, "benchmarks"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dst)
    return str(dst)


def test_perturbed_golden_fails_the_run(tmp_path):
    root = _copy_checkout(tmp_path)
    path = os.path.join(root, "benchmarks", "goldens.json")
    with open(path, encoding="utf-8") as fh:
        goldens = json.load(fh)
    goldens["dispersion-split"]["seed=0"]["U"] *= 1 + 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh)
    proc = _bench(root, "--workload", "dispersion-split", "--seed", "0", "--seconds", "0.1")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    frac = [line for line in proc.stdout.splitlines() if "failed_frac" in line]
    assert frac and not frac[0].split("=")[1].strip().startswith("0 ")


def test_without_sources_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(str(tmp_path), "--workload", "sweep-desk", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tree_state() -> tuple[str, dict]:
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout
    reports = {}
    for name in sorted(os.listdir(os.path.join(ROOT, "reports"))):
        with open(os.path.join(ROOT, "reports", name), "rb") as fh:
            reports[name] = hashlib.sha256(fh.read()).hexdigest()
    return status, reports


@pytest.mark.skipif(shutil.which("git") is None or not os.path.isdir(os.path.join(ROOT, ".git")), reason="needs a git checkout")
def test_full_run_leaves_the_tree_clean():
    before = _tree_state()
    proc = _bench(ROOT, "--workload", "all", "--seed", "0", "--seconds", "0.1")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert _tree_state() == before
    assert not [d for d in os.listdir(ROOT) if d.startswith(".bench_tmp_")]
