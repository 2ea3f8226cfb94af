"""The invariant checks behind ``klab verify``, each defined once.

Every check is a function of no arguments that builds its own inputs when
called and returns a :class:`CheckResult`; nothing is built at import time.
:data:`SUITES` groups the checks under the suite names of ``klab verify``,
and the test suite calls the same functions instead of restating them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd
from typing import Callable

import numpy as np

from . import arith, bounds, dispersion, forms, sequences

__all__ = [
    "CheckResult",
    "SUITES",
    "decomposition_grid",
    "random_unit_specs",
    "dispersion_toy_grids",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def decomposition_grid() -> list[tuple[forms.TrilinearSpec, str]]:
    """The fixed direct-vs-decomposed grid: M, N in {4, 8, 16}, A in {2, 4},
    R in {1, 2, 3, 6, 12}, theta in {1, -3}, each with ones and with
    random-unit sequences (360 specs)."""
    ones = lambda b: sequences.build_sequence("ones", sequences.DyadicRange(b))
    ru = lambda b, s: sequences.build_sequence("random_unit", sequences.DyadicRange(b), seed=s)
    specs = []
    for mb, nb, ab, R, theta in itertools.product(
        (4, 8, 16), (4, 8, 16), (2, 4), (1, 2, 3, 6, 12), (1, -3)
    ):
        key = f"M{mb}N{nb}A{ab}R{R}t{theta}"
        specs.append((forms.TrilinearSpec(ones(mb), ones(nb), ones(ab), theta, R), f"ones:{key}"))
        s = hash((mb, nb, ab, R, theta)) % (1 << 30)
        spec = forms.TrilinearSpec(ru(mb, s + 1), ru(nb, s + 2), ru(ab, s + 3), theta, R)
        specs.append((spec, f"random:{key}"))
    return specs


def random_unit_specs(count: int, seed: int = 7) -> list[forms.TrilinearSpec]:
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        mb = rng.choice((4, 6, 8, 12, 16))
        nb = rng.choice((4, 6, 8, 12, 16))
        ab = rng.choice((2, 3, 4))
        R = rng.choice((1, 2, 3, 4, 6))
        theta = rng.choice((1, -1, 2, -2, 3, -3))
        mk = lambda b: sequences.build_sequence(
            "random_unit", sequences.DyadicRange(b), seed=rng.randrange(1 << 30)
        )
        specs.append(forms.TrilinearSpec(mk(mb), mk(nb), mk(ab), theta, R))
    return specs


def dispersion_toy_grids(count: int = 20) -> list[dict]:
    """Real-sequence toy grids for the dispersion checks."""
    rng = random.Random(42)
    grids = []
    kinds = ("ones", "moebius", ("tau_k", 2), "random_real")

    def mk(kind, base):
        drange = sequences.DyadicRange(base)
        if kind == "random_real":
            return sequences.make_sequence({n: complex(rng.uniform(-1, 1)) for n in drange}, drange)
        if isinstance(kind, tuple):
            return sequences.build_sequence(kind[0], drange, k=kind[1])
        return sequences.build_sequence(kind, drange)

    while len(grids) < count:
        mb = rng.choice((2, 3, 4))
        nb = rng.choice((2, 3, 4))
        qb = rng.choice((2, 3, 4))
        a = rng.choice((1, 2, 3, 5))
        kind_a = rng.choice(kinds)
        kind_b = rng.choice(kinds)
        alpha, beta = mk(kind_a, mb), mk(kind_b, nb)
        moduli = sequences.DyadicRange(qb)
        grids.append({"alpha": alpha, "beta": beta, "moduli": moduli, "a": a, "m_scale": float(mb)})
    return grids


def _split(grid: dict, psi: dispersion.SmoothCutoff) -> dispersion.DispersionSplit:
    return dispersion.dispersion_split(
        grid["alpha"], grid["beta"], grid["moduli"], grid["a"], psi, grid["m_scale"]
    )


def _error_total(grid: dict) -> float:
    return dispersion.progression_error_total(
        grid["alpha"], grid["beta"], grid["moduli"], grid["a"]
    )


def reciprocity() -> CheckResult:
    """m * (m^-1 mod n) + n * (n^-1 mod m) = 1 (mod mn) for coprime m, n <= 200."""
    bad = sum(
        1
        for m in range(1, 201)
        for n in range(1, 201)
        if gcd(m, n) == 1
        and (m * arith.mod_inverse(m, n) + n * arith.mod_inverse(n, m)) % (m * n)
        != 1 % (m * n)
    )
    return CheckResult("arith.reciprocity_coprime_pairs_200", bad == 0, f"{bad} failures")


def inverse_identity_random() -> CheckResult:
    """a * a^-1 = 1 (mod m) for 10^4 random coprime pairs with m < 2^52."""
    rng = random.Random(314159)
    bad = done = 0
    while done < 10_000:
        m = rng.randrange(2, 1 << 52)
        a = rng.randrange(1, m)
        if gcd(a, m) != 1:
            continue
        bad += a * arith.mod_inverse(a, m) % m != 1
        done += 1
    return CheckResult("arith.inverse_identity_random_1e4", bad == 0, f"{bad} failures")


def batch_matches_scalar() -> CheckResult:
    """Both batch algorithms give the scalar inverses: the vectorised Euclid
    over an int64 list and array, and pow over a list past int64."""
    rng = random.Random(20260809)
    m = 10**9 + 7
    vals = [rng.randrange(1, m) for _ in range(1000)]
    want = [arith.mod_inverse(v, m) for v in vals]
    ok = arith.batch_mod_inverse(vals, m) == want
    ok = ok and arith.batch_mod_inverse(np.asarray(vals), m).tolist() == want
    big = 2**89 - 1  # a prime modulus above the Euclid's 2^62
    vals = [rng.randrange(1, big) for _ in range(100)]
    ok = ok and arith.batch_mod_inverse(vals, big) == [arith.mod_inverse(v, big) for v in vals]
    return CheckResult("arith.batch_matches_scalar_1000", ok)


def split_recombines() -> CheckResult:
    """The squarefree/squarefull split of every n <= 10^5 is coprime and multiplies back to n."""
    bad = 0
    for n in range(1, 100_001):
        s = arith.squarefree_squarefull_split(n)
        bad += s.product != n or gcd(s.squarefree_part, s.squarefull_part) != 1
    return CheckResult("arith.split_recombines_1e5", bad == 0, f"{bad} failures")


def split_unique_pairs() -> CheckResult:
    """Exactly one coprime (squarefree, squarefull) divisor pair multiplies to each n <= 10^4."""
    bad = []
    for n in range(1, 10**4 + 1):
        count = 0
        d = 1
        while d * d <= n:
            if n % d == 0:
                for s, f in ((d, n // d), (n // d, d)) if d * d != n else ((d, d),):
                    if gcd(s, f) == 1 and arith.is_squarefree(s) and arith.is_squarefull(f):
                        count += 1
            d += 1
        if count != 1:
            bad.append(n)
    detail = f"{len(bad)} failures" + (f", first n = {bad[0]}" if bad else "")
    return CheckResult("arith.split_unique_pair_scan_1e4", not bad, detail)


def decomposition_identity() -> CheckResult:
    """Direct and complementary-divisor mean squares agree to 1e-9 relative on the fixed grid."""
    worst, worst_label = 0.0, ""
    bad = 0
    grid = decomposition_grid()
    for spec, label in grid:
        direct = forms.mean_square_direct(spec)
        dev = abs(direct - forms.mean_square_decomposed(spec)) / (1.0 + abs(direct))
        if dev > worst:
            worst, worst_label = dev, label
        bad += dev > 1e-9
    return CheckResult(
        "forms.decomposition_identity_grid",
        bad == 0 and len(grid) == 360,
        f"{len(grid)} specs, worst relative deviation {worst:.3e} at {worst_label}",
    )


def cs_chain() -> CheckResult:
    """|B| <= ||alpha|| sqrt(C) + 1e-12 on 100 random-unit specs."""
    worst = -math.inf
    bad = 0
    for spec in random_unit_specs(100):
        lhs = abs(forms.trilinear_form(spec).value)
        gap = lhs - spec.alpha.l2_norm * math.sqrt(forms.mean_square_direct(spec))
        worst = max(worst, gap)
        bad += gap > 1e-12
    return CheckResult(
        "forms.cs_chain_100_random_unit_specs", bad == 0, f"worst lhs-rhs gap {worst:.3e}"
    )


def conjugation_symmetry() -> CheckResult:
    """Negating theta conjugates the form, to 1e-12.

    For complex coefficients the sequences are conjugated alongside; the ones
    sequences of the decomposition grid cover the real case.
    """
    conj = lambda s: sequences.make_sequence(
        {n: v.conjugate() for n, v in s.values.items()}, s.support
    )
    pairs = [
        (
            spec,
            forms.TrilinearSpec(
                conj(spec.alpha), conj(spec.beta), conj(spec.nu), -spec.theta, spec.R
            ),
        )
        for spec in random_unit_specs(25, seed=11)
    ]
    pairs += [
        (spec, forms.TrilinearSpec(spec.alpha, spec.beta, spec.nu, -spec.theta, spec.R))
        for spec, _ in decomposition_grid()[:40:2]
    ]
    worst = 0.0
    bad = 0
    for plus_spec, minus_spec in pairs:
        plus = forms.trilinear_form(plus_spec).value
        dev = abs(forms.trilinear_form(minus_spec).value - plus.conjugate())
        worst = max(worst, dev)
        bad += dev > 1e-12
    return CheckResult("forms.conjugation_symmetry", bad == 0, f"worst |dev| {worst:.3e}")


def trivial_bound() -> CheckResult:
    """The squarefree mean square stays under the trivial counting bound for b in 1..4."""
    bad = 0
    for spec, _ in decomposition_grid()[:120]:
        cap = (
            spec.nu.l2_norm**2
            * spec.beta.l2_norm**2
            * len(spec.nu.support_indices())
            * len(spec.alpha.support_indices())
            * len(spec.beta.support_indices())
        )
        for b in (1, 2, 3, 4):
            bad += forms.squarefree_mean_square(spec, b) > cap + 1e-9
    return CheckResult("forms.trivial_bound_counting_inequality", bad == 0, f"{bad} failures")


def quadratic_identity() -> CheckResult:
    """W - 2 Re V + U equals sum_m psi(m/M) |X_m - Y_m|^2, recomputed
    independently, to 1e-9 relative."""
    psi = dispersion.SmoothCutoff()
    worst = 0.0
    bad = 0
    grids = dispersion_toy_grids()
    for grid in grids:
        split = _split(grid, psi)
        direct = 0.0
        for m in psi.window(grid["m_scale"]):
            x = y = 0j
            for q in grid["moduli"]:
                cq = split.c[q]
                if cq == 0:
                    continue
                phi_q = arith.euler_phi(q)
                for n, bv in grid["beta"].values.items():
                    if (m * n - grid["a"]) % q == 0:
                        x += cq * bv
                    if gcd(m * n, q) == 1:
                        y += cq / phi_q * bv
            direct += psi(m / grid["m_scale"]) * abs(x - y) ** 2
        dev = abs(direct - split.quadratic()) / (1.0 + abs(direct))
        worst = max(worst, dev)
        bad += dev > 1e-9
    return CheckResult(
        f"dispersion.quadratic_identity_{len(grids)}_grids", bad == 0, f"worst {worst:.3e}"
    )


def majorant_inequality() -> CheckResult:
    """||alpha|| sqrt(W - 2 Re V + U) - delta >= -1e-9."""
    psi = dispersion.SmoothCutoff()
    worst = math.inf
    grids = dispersion_toy_grids()
    for grid in grids:
        gap = dispersion.cauchy_schwarz_gap(
            _split(grid, psi), grid["alpha"].l2_norm, _error_total(grid)
        )
        worst = min(worst, gap)
    return CheckResult(
        f"dispersion.majorant_inequality_{len(grids)}_grids", worst >= -1e-9, f"min gap {worst:.3e}"
    )


def sign_domain() -> CheckResult:
    """c_q lies in {-1, 0, 1} and vanishes exactly when gcd(a, q) > 1."""
    psi = dispersion.SmoothCutoff()
    bad = 0
    for grid in dispersion_toy_grids():
        split = _split(grid, psi)
        for q in grid["moduli"]:
            cq = split.c[q]
            bad += cq not in (-1, 0, 1) or (cq == 0) != (gcd(grid["a"], q) > 1)
    return CheckResult("dispersion.sign_sequence_domain", bad == 0, f"{bad} failures")


def error_sum_consistency() -> CheckResult:
    """progression_error_total equals the fsum of |E_q| over moduli coprime to a, exactly."""
    bad = 0
    for grid in dispersion_toy_grids():
        direct = math.fsum(
            abs(dispersion.progression_error(grid["alpha"], grid["beta"], q, grid["a"]))
            for q in grid["moduli"]
            if gcd(q, grid["a"]) == 1
        )
        bad += direct != _error_total(grid)
    return CheckResult("dispersion.error_sum_consistency", bad == 0, f"{bad} failures")


def completion_residual() -> CheckResult:
    """Fourier completion of progression sums at the default bandwidth, residual * M <= 1e-9."""
    psi = dispersion.SmoothCutoff()
    worst = 0.0
    for m_scale in (500.0, 1000.0):
        for q in (1, 3, 5):
            h = dispersion.default_completion_bandwidth(q, m_scale)
            worst = max(worst, dispersion.completed_progression_sum(psi, m_scale, q, 1, h).residual * m_scale)
    return CheckResult("dispersion.completion_residual_small", worst <= 1e-9, f"worst residual*M {worst:.3e}")


def coprime_main_term() -> CheckResult:
    """Smooth coprime sums sit within 5 tau(q) (log 2M)^2 of their phi(q)/q main
    term, at M = 10 and 37.5, where the error shows, and 500, where it is 0."""
    psi = dispersion.SmoothCutoff()
    worst = max(dispersion.completed_coprime_sum(psi, m_scale, q).c_observed
                for m_scale in (10.0, 37.5, 500.0) for q in (1, 6, 12))
    return CheckResult("dispersion.coprime_main_term", worst <= 5.0, f"worst constant {worst:.3e}")


def new_i_at_half() -> CheckResult:
    got = bounds.admissible_n_exponent("new", "i", F(1, 2)).ceiling
    return CheckResult("bounds.new_i_at_half", got == F(1, 56), f"ceiling {got}")


def fr_i_at_half() -> CheckResult:
    got = bounds.admissible_n_exponent("fr", "i", F(1, 2)).ceiling
    return CheckResult("bounds.fr_i_at_half", got == F(1, 72), f"ceiling {got}")


def extremal_q() -> CheckResult:
    """The variant-(i) ceiling vanishes, infeasibly, at Q-exponent 17/33 = 1/2 + 1/66."""
    ext = bounds.extremal_q_exponent("new")
    at = bounds.admissible_n_exponent("new", "i", F(17, 33))
    ok = ext == F(17, 33) == F(1, 2) + F(1, 66) and at.ceiling == 0 and not at.feasible
    detail = f"{ext}, ceiling there {at.ceiling}"
    return CheckResult("bounds.extremal_q_is_half_plus_1_66", ok, detail)


def q_caps() -> CheckResult:
    """The (ii)/(iii) Q-caps are 45/89 (new) and 53/105 (fr), and the new one is larger."""
    caps = {"new": F(45, 89), "fr": F(53, 105)}
    ok = caps["new"] > caps["fr"] and all(
        bounds.COROLLARY_TABLES[cor]["q_cap"] == cap
        and bounds.admissible_n_exponent(cor, var, F(1, 2)).extremal_q == cap
        for cor, cap in caps.items()
        for var in ("ii", "iii")
    )
    return CheckResult("bounds.q_caps_45_89_beats_53_105", ok)


def new_dominates_on_range() -> CheckResult:
    """The new variant-(i) ceiling is at least the fr one on 101 points of [1/2, 17/33]."""
    ok = all(
        bounds.admissible_n_exponent("new", "i", q).ceiling
        >= bounds.admissible_n_exponent("fr", "i", q).ceiling
        for k in range(0, 101)
        for q in [F(1, 2) + (F(17, 33) - F(1, 2)) * k / 100]
        if 0 < q < 1
    )
    return CheckResult("bounds.new_ceiling_dominates_on_range", ok)


def abstract_in_tables() -> CheckResult:
    """The abstract's N <= Q^(-11/12) X^(17/36-eps), vanishing at Q = X^(1/2+1/66),
    is the fr variant-(i) row, and its Q <= X^(45/89) is the new Q-cap."""
    qs = (F(1, 3), F(1, 2) + F(1, 66))
    fr = [bounds.admissible_n_exponent("fr", "i", q).ceiling for q in qs]
    cap = bounds.COROLLARY_TABLES["new"]["q_cap"]
    ok = fr == [F(17, 36) - F(11, 12) * q for q in qs] and fr[1] == 0 and cap == F(45, 89)
    return CheckResult("bounds.abstract_in_tables", ok, f"fr ceilings {fr[0]}, {fr[1]}; new q-cap {cap}")


SUITES: dict[str, tuple[Callable[[], CheckResult], ...]] = {
    "arith": (
        reciprocity,
        inverse_identity_random,
        batch_matches_scalar,
        split_recombines,
        split_unique_pairs,
    ),
    "decomposition": (decomposition_identity,),
    "cauchy_schwarz": (cs_chain, conjugation_symmetry, trivial_bound),
    "dispersion": (quadratic_identity, majorant_inequality, sign_domain, error_sum_consistency),
    "fourier": (completion_residual, coprime_main_term),
    "exponents": (
        new_i_at_half,
        fr_i_at_half,
        extremal_q,
        q_caps,
        new_dominates_on_range,
        abstract_in_tables,
    ),
}
