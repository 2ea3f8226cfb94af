"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 1-4 are defined in :mod:`klab.checks`, the same checks that
``klab verify`` runs, and each check runs in exactly one test.  Where a unit
test already stood for one check it calls that check, and the criterion
names it: the dispersion quadratic identity and majorant of criterion 3 run
in ``tests/test_dispersion.py``, the reciprocity identity of criterion 4 in
``tests/test_arith.py``.  Criterion 7 reruns the sweeps whose tables are
archived under reports/ as the repository's desk-scale evidence for the
bound's shape, and checks that they give the archive's bytes.
"""

import functools
import json
import math
import os
from fractions import Fraction

from golden_oracle import BC_GOLDEN, BCR_GOLDEN, CB_GOLDEN, DISP_GOLDEN
from klab import bounds, checks, dispersion
from klab.cli import run_sweep

F = Fraction
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {num} ({name}): FAIL")
                raise
            print(f"\n[acceptance] criterion {num} ({name}): PASS")

        return wrapper

    return deco


def assert_checks(*fns):
    failed = [f"{r.name}: {r.detail}" for r in (fn() for fn in fns) if not r.passed]
    assert not failed, failed


@criterion(1, "exponent arithmetic, exact rationals")
def test_c1_exponent_arithmetic():
    assert_checks(*checks.SUITES["exponents"])


@criterion(2, "complementary-divisor decomposition identity")
def test_c2_decomposition_identity():
    assert_checks(*checks.SUITES["decomposition"])


@criterion(3, "Cauchy-Schwarz chains and quadratic identity")
def test_c3_cauchy_schwarz_chains():
    # checks.quadratic_identity and checks.majorant_inequality: tests/test_dispersion.py
    assert_checks(checks.cs_chain)


@criterion(4, "reciprocity and inverse identities")
def test_c4_reciprocity_and_inverses():
    # checks.reciprocity: tests/test_arith.py
    assert_checks(checks.inverse_identity_random, checks.batch_matches_scalar)


@criterion(5, "Fourier completion residual scaling")
def test_c5_fourier_completion():
    psi = dispersion.SmoothCutoff()
    scales = (1000.0, 2000.0, 4000.0)
    per_scale = {}
    c_report = 0.0
    too_big = []
    for m_scale in scales:
        worst = 0.0
        for q in (1, 3, 5, 7):
            H = dispersion.default_completion_bandwidth(q, m_scale)
            res = dispersion.completed_progression_sum(psi, m_scale, q, 1, H)
            worst = max(worst, res.residual * m_scale)
            # residual <= C/M with C = 1e-9 at every (M, q)
            if res.residual * m_scale > 1e-9:
                too_big.append((m_scale, q, res.residual * m_scale))
        per_scale[m_scale] = worst
        c_report = max(c_report, worst)
    assert math.isfinite(c_report) and c_report > 0
    print(f"\n[acceptance] criterion 5 reported C = {c_report:.6e} "
          f"(residual*M per scale: {per_scale})")
    assert too_big == [], f"residual*M above 1e-9 at (M, q, residual*M): {too_big}"


@criterion(6, "bound-formula regression against golden values")
def test_c6_bound_formula_regression():
    for args, want in BC_GOLDEN:
        got = bounds.rhs_trilinear_coprime(*args).total
        assert abs(got - want) <= 1e-12 * abs(want)
    for variant, table in BCR_GOLDEN.items():
        for args, want in table:
            got = bounds.rhs_trilinear_fixed_factor(*args, exponent_variant=variant).total
            assert abs(got - want) <= 1e-12 * abs(want)
    for args, want in CB_GOLDEN:
        got = bounds.rhs_mean_square_bound(*args).total
        assert abs(got - want) <= 1e-12 * abs(want)
    for args, want in DISP_GOLDEN:
        got = dispersion.rhs_dispersion(*args).total
        assert abs(got - want) <= 1e-12 * abs(want)
    # at N = Q the tail-term savings are exactly N^(-1/8) and N^(-2/5) in
    # exact exponent arithmetic (the Q and N exponents merge)
    e = bounds.DISPERSION_TAIL_EXPONENTS
    s4, s5 = ((e[f"new_{t}"]["Q"] + e[f"new_{t}"]["N"]) - (e[f"old_{t}"]["Q"] + e[f"old_{t}"]["N"])
              for t in ("term4", "term5"))
    assert s4 == F(-1, 8) and s5 == F(-2, 5)


@criterion(7, "empirical implied constant, desk-scale sweep")
def test_c7_empirical_implied_constant(tmp_path):
    # the sweep runs into tmp_path and must give the archive's bytes: the
    # forms kernel makes no BLAS call, so no CPU kernel moves them
    maxima = {}
    for scale in ("full", "half"):
        cfg = os.path.join(REPO_ROOT, "sweeps", f"bcr_desk_{scale}.json")
        archived = os.path.join(REPO_ROOT, "reports", f"bcr_desk_{scale}.csv")
        out = str(tmp_path / f"bcr_desk_{scale}.csv")
        summary = run_sweep(cfg, out, jobs=os.cpu_count() or 1)
        assert summary["points"] == 16
        assert math.isfinite(summary["max_ratio"]) and summary["max_ratio"] > 0
        maxima[scale] = summary["max_ratio"]
        for suffix in ("", ".summary.json"):
            with open(out + suffix, "rb") as fg, open(archived + suffix, "rb") as fw:
                assert fg.read() == fw.read(), (scale, suffix)
    variation = maxima["full"] / maxima["half"]
    print(f"\n[acceptance] criterion 7 max ratios: full {maxima['full']:.6e}, "
          f"half {maxima['half']:.6e}, variation x{variation:.3f}")
    assert 0.25 < variation < 4.0


@criterion(8, "sweep determinism across worker counts")
def test_c8_sweep_determinism(tmp_path):
    # two seeds make runs of two points that share one enumeration; the
    # moebius beta has zeros, so its support differs from the random ones
    cfg = {
        "grid": {"M": [16, 32], "N": [8, 16], "A": [2], "R": [1, 2], "theta": [1], "seed": [3, 4]},
        "sequences": {"alpha": "random_unit", "beta": "moebius", "nu": "random_unit"},
        "bound": {"formula": "bcr", "epsilon": 0.01, "exponent_variant": "statement"},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "jobs1.csv"
    out3 = tmp_path / "jobs3.csv"
    run_sweep(str(cfg_path), str(out1), jobs=1)
    run_sweep(str(cfg_path), str(out3), jobs=3)
    assert out1.read_bytes() == out3.read_bytes()
