import concurrent.futures
import csv
import json
import math
import os
import platform
import random
import stat
import subprocess
import sys

import pytest

import klab
from klab import bounds, checks, cli, forms, sequences
from klab.cli import (
    ConfigError,
    load_config,
    main,
    role_seed,
    run_ranges,
    run_sweep,
    run_verify,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "grid": {"M": [16, 32], "N": [8, 16], "A": [2], "R": [1, 2], "theta": [1], "seed": [3]},
        "sequences": {"alpha": "random_unit", "beta": "random_unit", "nu": "random_unit"},
        "bound": {"formula": "bcr", "epsilon": 0.01, "exponent_variant": "statement"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def unit_sequence(base, role, seed=0):
    """The random_unit sequence a sweep builds for ``role`` at ``base`` and ``seed``."""
    return sequences.build_sequence("random_unit", sequences.DyadicRange(base), seed=role_seed(seed, role))


@pytest.fixture
def serial_pool(monkeypatch):
    """A recorder in place of the process pool: it maps serially, starts no
    process and lists the worker count of each pool.  The sweep sees 64
    usable CPUs, so the counts are the slices' on any machine."""
    pools = []
    monkeypatch.setattr(cli, "_cpu_count", lambda: 64)

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return pools


def test_argparse_exit_codes(capsys):
    # argparse exits on its own; main returns its status instead
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


class TestVerify:
    # the other suites' checks run in the acceptance and unit tests
    @pytest.mark.parametrize("suite", ["fourier"])
    def test_suites_pass(self, suite, capsys):
        code = main(["verify", "--suite", suite])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_suite_exit_2(self):
        code, _ = run_verify("nonexistent")
        assert code == 2
        assert main(["verify", "--suite", "nonexistent"]) == 2

    def test_invariant_failure_exit_1(self, monkeypatch, capsys):
        def failing_check():
            return checks.CheckResult("synthetic.always_fails", False, "forced")

        monkeypatch.setitem(checks.SUITES, "synthetic", (failing_check,))
        assert main(["verify", "--suite", "synthetic"]) == 1
        assert "FAIL synthetic.always_fails" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert main(["verify", "--suite", "arith", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suite"] == "arith" and report["passed"] is True
        assert len(report["checks"]) == len(checks.SUITES["arith"])
        for check in report["checks"]:
            assert set(check) == {"name", "passed", "detail"}
            assert check["name"].startswith("arith.") and check["passed"] is True
        assert main(["verify", "--suite", "nonexistent", "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report == {
            "suite": "nonexistent",
            "passed": False,
            "checks": [{"name": "unknown suite 'nonexistent'", "passed": False, "detail": ""}],
        }


class TestSweep:
    def test_eight_point_grid(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "table.csv"
        summary = run_sweep(cfg, str(out), jobs=1)
        assert summary["points"] == 8
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        coords = [(int(r["M"]), int(r["N"]), int(r["R"])) for r in rows]
        assert coords == sorted(coords)
        sidecar = json.loads((tmp_path / "table.csv.summary.json").read_text())
        assert math.isclose(sidecar["max_ratio"], max(float(r["ratio"]) for r in rows))

    def test_workers_capped_at_points(self, tmp_path, serial_pool):
        cfg = write_config(tmp_path)  # 8 points
        run_sweep(cfg, str(tmp_path / "serial.csv"), jobs=1)
        run_sweep(cfg, str(tmp_path / "pooled.csv"), jobs=64)
        assert serial_pool == [8]
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_workers_capped_at_cpus(self, tmp_path, monkeypatch, serial_pool):
        # --jobs past the usable CPUs keeps its slices, on a pool of one process per CPU
        cfg = write_config(tmp_path)  # 8 points
        run_sweep(cfg, str(tmp_path / "serial.csv"), jobs=1)
        slices = []
        sweep_run = cli._sweep_run
        monkeypatch.setattr(cli, "_sweep_run", lambda task: slices.append(len(task["points"])) or sweep_run(task))
        monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
        run_sweep(cfg, str(tmp_path / "pooled.csv"), jobs=8)
        assert serial_pool == [3] and slices == [1] * 8
        for suffix in ("", ".summary.json"):
            assert (tmp_path / f"pooled.csv{suffix}").read_bytes() == (tmp_path / f"serial.csv{suffix}").read_bytes()

    def test_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 5}, raising=False)
        assert cli._cpu_count() == 3
        # where the affinity is not known, every CPU of the machine
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert cli._cpu_count() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._cpu_count() == 1

    def test_one_task_per_family(self, tmp_path, monkeypatch, serial_pool):
        # the points, ordered by theta, are cut into min(jobs, points) slices;
        # trilinear_forms enumerates the union of each theta's moduli nR once
        batches, enumerations = [], []
        batch, enumerate_sums = forms.trilinear_forms, forms._coprime_inner_sums
        monkeypatch.setattr(forms, "trilinear_forms",
                            lambda specs: batches.append(sorted({spec.theta for spec in specs})) or batch(specs))
        monkeypatch.setattr(forms, "_coprime_inner_sums",
                            lambda theta, *args: enumerations.append(theta) or enumerate_sums(theta, *args))
        grid = {"M": [16, 32], "N": [8, 16], "A": [2], "R": [1, 2], "theta": [1, -3], "seed": [3, 4]}
        cfg = write_config(tmp_path, grid=grid)
        run_sweep(cfg, str(tmp_path / "thetas1.csv"), jobs=1)
        assert serial_pool == [] and batches == [[-3, 1]] and sorted(enumerations) == [-3, 1]
        batches.clear()
        run_sweep(cfg, str(tmp_path / "thetas2.csv"), jobs=2)
        assert serial_pool == [2] and batches == [[-3], [1]]  # 16 points of each theta
        for jobs in (3, 4):
            run_sweep(cfg, str(tmp_path / f"thetas{jobs}.csv"), jobs=jobs)
        assert serial_pool == [2, 3, 4]
        for jobs in (2, 3, 4):
            for suffix in ("", ".summary.json"):
                pooled = (tmp_path / f"thetas{jobs}.csv{suffix}").read_bytes()
                assert pooled == (tmp_path / f"thetas1.csv{suffix}").read_bytes()

    def test_each_sequence_built_once_per_task(self, tmp_path, monkeypatch, serial_pool):
        built = []
        build = cli._build_role
        monkeypatch.setattr(cli, "_build_role",
                            lambda kind, base, seed, role: built.append((role, base, seed)) or build(kind, base, seed, role))
        grid = {"M": [16, 32], "N": [8, 16], "A": [2, 4], "R": [1, 2], "seed": [3, 4]}
        cfg = write_config(tmp_path, grid=grid)
        run_sweep(cfg, str(tmp_path / "serial.csv"), jobs=1)
        # 32 points: two bases of each role at each of two seeds
        assert len(built) == len(set(built)) == 12
        built.clear()
        run_sweep(cfg, str(tmp_path / "pooled.csv"), jobs=2)
        # two tasks, one per M: each builds its own alpha and every beta and nu
        assert serial_pool == [2]
        assert len(built) == 2 * (2 + 4 + 4) and len(set(built)) == 12
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_failed_summary_write_keeps_previous(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "table.csv"
        run_sweep(cfg, str(out), jobs=1)
        sidecar = tmp_path / "table.csv.summary.json"
        before = sidecar.read_bytes()

        def failing_dump(obj, fh, **kwargs):
            fh.write("{")
            raise OSError("disk full")

        monkeypatch.setattr(cli.json, "dump", failing_dump)
        with pytest.raises(OSError, match="disk full"):
            run_sweep(cfg, str(out), jobs=1)
        assert sidecar.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_rows_recomputable_from_coordinates(self, tmp_path):
        # two seeds: each row comes from a run that shares one enumeration
        grid = {"M": [16, 32], "N": [8, 16], "A": [2], "R": [1, 2], "theta": [1], "seed": [3, 4]}
        build = {
            "random_unit": lambda base, seed, role: sequences.build_sequence(
                "random_unit", sequences.DyadicRange(base), seed=role_seed(seed, role)),
            "tau_k:2": lambda base, seed, role: sequences.build_sequence(
                "tau_k", sequences.DyadicRange(base), k=2),
            "moebius": lambda base, seed, role: sequences.build_sequence(
                "moebius", sequences.DyadicRange(base)),
        }
        for kinds in ({"alpha": "random_unit", "beta": "random_unit", "nu": "random_unit"},
                      {"alpha": "random_unit", "beta": "tau_k:2", "nu": "moebius"}):
            cfg = write_config(tmp_path, grid=grid, sequences=kinds)
            out = tmp_path / "table.csv"
            run_sweep(cfg, str(out), jobs=1)
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            rng = random.Random(0)
            for row in rng.sample(rows, 5):
                M, N, A = int(row["M"]), int(row["N"]), int(row["A"])
                R, theta, seed = int(row["R"]), int(row["theta"]), int(row["seed"])
                alpha, beta, nu = (build[kinds[role]](base, seed, role)
                                   for base, role in ((M, "alpha"), (N, "beta"), (A, "nu")))
                spec = forms.TrilinearSpec(alpha, beta, nu, theta=theta, R=R)
                lhs = abs(forms.trilinear_form(spec).value)
                rhs = bounds.rhs_trilinear_fixed_factor(
                    M, N, A, R, theta, (alpha.l2_norm, beta.l2_norm, nu.l2_norm), 0.01, "statement"
                )
                assert float(row["lhs"]) == lhs
                assert float(row["rhs_total"]) == rhs.total
                assert float(row["ratio"]) == lhs / rhs.total

    def test_defaults_filled_in(self, tmp_path):
        # one definition of each default: load_config fills them all in
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"grid": {"M": [4], "N": [4], "A": [2]}}))
        assert load_config(str(path)) == {
            "grid": {"M": [4], "N": [4], "A": [2], "R": [1], "theta": [1], "seed": [0]},
            "sequences": {"alpha": "random_unit", "beta": "random_unit", "nu": "random_unit"},
            "bound": {"formula": "bcr", "epsilon": 0.01, "exponent_variant": "statement"},
        }
        cfg = load_config(write_config(tmp_path, bound={"epsilon": 0}))
        assert type(cfg["bound"]["epsilon"]) is float and cfg["bound"]["formula"] == "bcr"

    def test_jobs_below_one_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        for jobs in ("0", "-1"):
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv"), "--jobs", jobs]) == 2
            assert not (tmp_path / "x.csv").exists()

    def test_empty_axis_rejected(self, tmp_path):
        # an empty axis, an empty or null grid, and a missing required axis
        for grid in ({"M": [4], "N": [4], "A": []}, {}, None, {"M": [4], "N": [4]}):
            cfg = write_config(tmp_path, grid=grid)
            with pytest.raises(ConfigError):
                load_config(cfg)
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert not (tmp_path / "x.csv").exists()

    def test_unknown_key_rejected(self, tmp_path):
        for extra in (
            {"extras": {"oops": 1}},
            {"cutoff": {"support": [0.5, 2.5]}},
            {"limits": {"grid_cap": "5"}},
            {"seed": 3},
            {"sequences": {"gamma": "ones"}},  # an unknown role
            {"bound": {"formula": "bcr", "cutoff": 1.0}},  # an unknown bound key
            {"bound": {"formula": "cb"}},  # and values outside a key's choices
            {"bound": {"exponent_variant": "paper"}},
        ):
            cfg = write_config(tmp_path, **extra)
            with pytest.raises(ConfigError):
                load_config(cfg)
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert not (tmp_path / "x.csv").exists()

    def test_unknown_axis_rejected(self, tmp_path):
        cfg = write_config(tmp_path, grid={"M": [4], "N": [4], "A": [2], "W": [1]})
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_invalid_axis_values_rejected(self, tmp_path):
        for grid in (
            {"M": [0], "N": [4], "A": [2]},
            {"M": [4], "N": [4], "A": [2], "theta": [0]},
            {"M": [4], "N": [4], "A": [2.5]},
            {"M": [True], "N": [4], "A": [2]},  # bools are not integers here
            {"M": [4], "N": [4], "A": [2], "seed": [False]},
            {"M": [4], "N": [4], "A": [2], "seed": [-1]},  # random.Random(-1) is random.Random(1)
        ):
            cfg = write_config(tmp_path, grid=grid)
            with pytest.raises(ConfigError):
                load_config(cfg)
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert not (tmp_path / "x.csv").exists()

    def test_tau_k_zero_rejected(self, tmp_path):
        for kind in ("tau_k:0", 5):  # a kind that is not a string is rejected as well
            seqs = {"alpha": "random_unit", "beta": kind, "nu": "random_unit"}
            cfg = write_config(tmp_path, sequences=seqs)
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert not (tmp_path / "x.csv").exists()

    def test_invalid_cutoff_rejected(self, tmp_path):
        # the cutoff key is no longer read, so any cutoff block is an unknown key
        cfg = write_config(tmp_path, cutoff={"support": [1.5, 2.5], "plateau": [1.0, 2.0]})
        with pytest.raises(ConfigError):
            load_config(cfg)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("epsilon", ["abc", True, float("nan"), 10**400, 1e300, 400, -0.5])
    def test_invalid_epsilon_rejected(self, tmp_path, epsilon):
        # epsilon lies in [0, 1): beyond it the bounds overflow or every row is degenerate
        for formula in ("bcr", "bc"):
            cfg = write_config(tmp_path, bound={"formula": formula, "epsilon": epsilon})
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert not (tmp_path / "x.csv").exists()

    def test_grid_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "GRID_CAP", 4)
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()

    def test_malformed_json(self, tmp_path):
        # not JSON, not an object, and an object without a grid
        path = tmp_path / "bad.json"
        for text in ("{not json", "[1, 2]", '{"sequences": {}}'):
            path.write_text(text)
            assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
            assert not (tmp_path / "x.csv").exists()

    def test_bc_formula_and_variant_override(self, tmp_path):
        cfg = write_config(tmp_path, bound={"formula": "bc", "epsilon": 0.0})
        out = tmp_path / "bc.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert "term2" in header and "term3" not in header

        statement_cfg = write_config(tmp_path, "statement.json")
        proof_cfg = write_config(
            tmp_path, "proof.json", bound={"formula": "bcr", "exponent_variant": "proof"}
        )
        outs = {name: tmp_path / f"{name}.csv" for name in ("proof", "statement")}
        assert main(["sweep", "--config", proof_cfg, "--out", str(outs["proof"])]) == 0
        assert main(["sweep", "--config", statement_cfg, "--out", str(outs["statement"])]) == 0
        with open(outs["proof"], newline="") as fh, open(outs["statement"], newline="") as gh:
            proof_rows, statement_rows = list(csv.DictReader(fh)), list(csv.DictReader(gh))
        assert [r["term3"] for r in proof_rows] != [r["term3"] for r in statement_rows]

    def test_bc_takes_no_exponent_variant(self, tmp_path):
        # rhs_trilinear_coprime has one exponent, so a bc config may not set one
        for variant in ("statement", "proof"):
            cfg = write_config(tmp_path, bound={"formula": "bc", "exponent_variant": variant})
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
            assert not (tmp_path / "x.csv").exists()
        summary = run_sweep(write_config(tmp_path, bound={"formula": "bc"}), str(tmp_path / "bc.csv"))
        written = json.loads((tmp_path / "bc.csv.summary.json").read_text())
        assert written == summary and summary["formula"] == "bc" and "exponent_variant" not in summary

    def test_bc_at_moduli_size(self, tmp_path):
        # the moduli nR have size N*R, so the coprime bound is taken there
        cfg = write_config(tmp_path, grid={"M": [32], "N": [16], "A": [4], "R": [1, 2]},
                           bound={"formula": "bc"})
        out = tmp_path / "bc.csv"
        run_sweep(cfg, str(out))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        norms = tuple(unit_sequence(base, role).l2_norm for base, role in ((32, "alpha"), (16, "beta"), (4, "nu")))
        for row, R in zip(rows, (1, 2), strict=True):
            assert int(row["R"]) == R
            rhs = bounds.rhs_trilinear_coprime(32, 16 * R, 4, 1, norms, 0.01)
            assert (float(row["rhs_total"]), float(row["term1"]), float(row["term2"])) == (
                rhs.total, *dict(rhs.terms).values())

    def test_formula_table(self, tmp_path, monkeypatch):
        # a formula is one entry of the table: its options (default first) and its rhs
        def rhs(pt, norms, bound):
            b = {"one": 1, "two": 2}[bound["scale"]]
            return bounds.rhs_mean_square_bound(pt["M"], pt["N"], pt["A"], b, pt["theta"], norms[1:],
                                                bound["epsilon"])

        monkeypatch.setitem(cli._FORMULAS, "ms", ({"scale": ("one", "two")}, rhs))
        grid = {"M": [8], "N": [4], "A": [2]}
        cfg = load_config(write_config(tmp_path, grid=grid, bound={"formula": "ms"}))
        assert cfg["bound"] == {"formula": "ms", "epsilon": 0.01, "scale": "one"}
        # a value outside the option's set, another formula's option, and an unhashable formula
        for bound in ({"formula": "ms", "scale": "three"}, {"formula": "ms", "exponent_variant": "proof"},
                      {"formula": ["ms"]}):
            with pytest.raises(ConfigError):
                load_config(write_config(tmp_path, grid=grid, bound=bound))
        out = tmp_path / "ms.csv"
        summary = run_sweep(write_config(tmp_path, grid=grid, bound={"formula": "ms", "scale": "two"}), str(out))
        assert summary["scale"] == "two" and summary["points"] == 1
        with open(out, newline="") as fh:
            (row,) = csv.DictReader(fh)
        beta, nu = unit_sequence(4, "beta"), unit_sequence(2, "nu")
        want = bounds.rhs_mean_square_bound(8, 4, 2, 2, 1, (beta.l2_norm, nu.l2_norm), 0.01)
        assert [k for k in row if k.startswith("term") and k != "terms"] == [f"term{i}" for i in range(1, 7)]
        assert float(row["rhs_total"]) == want.total
        assert [float(row[name]) for name, _ in want.terms] == [v for _, v in want.terms]

    def test_float_format_17_digits(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "fmt.csv"
        run_sweep(cfg, str(out), jobs=1)
        with open(out, newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["lhs"]) == float(f"{float(row['lhs']):.17g}")

    @pytest.mark.parametrize("ratios,degenerate,max_ratio,argmax_m", (
        ([0.3], 0, 0.3, 1),  # one row
        ([None, 0.2, 0.7, 0.1], 1, 0.7, 3),  # a row with rhs_total 0 is counted and skipped
        ([0.5, 0.7, 0.3, 0.7], 0, 0.7, 2),  # equal maxima: the first row in grid order
        ([None, None], 2, None, None),  # every row degenerate
    ), ids=("one-row", "zero-rhs-skipped", "first-of-equal-maxima", "all-degenerate"))
    def test_summary_rule(self, tmp_path, monkeypatch, capsys, ratios, degenerate, max_ratio,
                          argmax_m):
        # fixed rows in place of the form: grid point M gets ratios[M - 1], None
        # a degenerate row whose nan ratio would win max() if it were kept
        def fixed_row(point):
            row = dict(point)
            ratio = ratios[row["M"] - 1]
            row["lhs"] = 1.0 if ratio is None else ratio
            row["rhs_total"] = 0.0 if ratio is None else 1.0
            row["ratio"] = math.nan if ratio is None else ratio
            return row

        monkeypatch.setattr(cli, "_sweep_run", lambda task: [fixed_row(pt) for pt in task["points"]])
        cfg = write_config(tmp_path, grid={"M": list(range(1, len(ratios) + 1)), "N": [4], "A": [2]})
        out = tmp_path / "fixed.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((tmp_path / "fixed.csv.summary.json").read_text())
        assert summary["points"] == len(ratios)
        assert summary["degenerate_points"] == degenerate
        assert summary["max_ratio"] == max_ratio
        printed = capsys.readouterr().out
        if argmax_m is None:
            assert summary["argmax"] is None
            assert "all rows degenerate" in printed
        else:
            point = {"M": argmax_m, "N": 4, "A": 2, "R": 1, "theta": 1, "seed": 0}
            assert summary["argmax"] == point
            assert f"max ratio {max_ratio:.6g} at {point}" in printed


class TestRanges:
    def test_new_at_half(self):
        table = run_ranges("1/2")
        assert "N <= X^(1/56)" in table

    def test_fr_at_half(self):
        # both corollaries, new first
        table = run_ranges("1/2")
        assert "N <= X^(1/72)" in table
        assert table.index("[new]") < table.index("[fr]")

    def test_infeasible_reported(self):
        table = run_ranges("2/3")
        assert "infeasible" in table

    def test_zero_ceiling_is_not_negative(self):
        table = run_ranges("17/33")
        assert table.count("N <= X^(0)  [infeasible (ceiling <= 0)]") == 2
        assert "negative" not in table

    def test_extremal_line(self):
        table = run_ranges("1/2")
        assert "17/33" in table

    def test_unparseable_exit_2(self):
        assert main(["ranges", "--q", "p/q"]) == 2
        assert main(["ranges", "--q", "1/0"]) == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "ranges.txt"
        assert main(["ranges", "--q", "1/2", "--out", str(out)]) == 0
        assert out.read_text() == run_ranges("1/2")
        assert "1/56" in out.read_text()



class TestOut:
    """``--out`` of both commands, written through one temporary-file path."""

    @staticmethod
    def argv(tmp_path, command, out):
        if command == "sweep":
            cfg = write_config(tmp_path, grid={"M": [4], "N": [4], "A": [2]})
            return ["sweep", "--config", cfg, "--out", str(out)]
        return ["ranges", "--q", "1/2", "--out", str(out)]

    @pytest.mark.parametrize("leaf", ("out.txt", "sub/out.txt"))
    @pytest.mark.parametrize("command", ("sweep", "ranges"))
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command, leaf):
        # the output's parent is a regular file: an OSError, reported as a usage error
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        assert main(self.argv(tmp_path, command, blocker / leaf)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert blocker.read_text() == "keep"

    def test_outputs_follow_umask(self, tmp_path):
        # each output gets the mode open(path, "w") would give it
        old = os.umask(0o027)
        try:
            for command in ("sweep", "ranges"):
                assert main(self.argv(tmp_path, command, tmp_path / f"{command}.out")) == 0
        finally:
            os.umask(old)
        for name in ("sweep.out", "sweep.out.summary.json", "ranges.out"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640, name


class TestRoleSeed:
    def test_distinct_roles(self):
        seeds = {role_seed(5, r) for r in ("alpha", "beta", "nu")}
        assert len(seeds) == 3

    def test_distinct_points(self):
        assert role_seed(1, "alpha") != role_seed(2, "alpha")


# The child checks from np.show_runtime() that each SIMD group named in
# NPY_DISABLE_CPU_FEATURES is off (numpy 2.4 ignores per-feature names such
# as AVX2 without a warning), then runs the sweep.
SWEEP_CHILD = """
import contextlib, io, os, re, sys
import numpy as np
from klab.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    np.show_runtime()
not_found = re.findall(r"'(\\w+)'", re.search(r"'not_found': \\[([^\\]]*)\\]", out.getvalue()).group(1))
off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
assert set(off) <= set(not_found), (off, not_found)
sys.exit(main(["sweep", "--config", sys.argv[1], "--out", sys.argv[2], "--jobs", "1"]))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="the SIMD groups named are x86-64's")
@pytest.mark.parametrize("env", (
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA,-AVX2,-AVX512F,-FMA4"},
))
def test_desk_sweep_bytes_on_other_cpu_kernels(tmp_path, env):
    # the archived desk sweep keeps its bytes under another OpenBLAS core,
    # with numpy's AVX2/FMA and AVX-512 groups off, and with glibc's FMA and
    # AVX variants of exp/sin/cos masked (no phase calls libm), each in a
    # fresh process
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    archived = os.path.join(root, "reports", "bcr_desk_half.csv")
    out = str(tmp_path / "half.csv")
    src = os.path.dirname(os.path.dirname(os.path.abspath(klab.__file__)))
    child_env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_CHILD, os.path.join(root, "sweeps", "bcr_desk_half.json"), out],
        env=child_env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for suffix in ("", ".summary.json"):
        with open(out + suffix, "rb") as got, open(archived + suffix, "rb") as want:
            assert got.read() == want.read(), suffix
