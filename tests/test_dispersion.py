import cmath
import contextlib
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import fsum, gcd

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_oracle import DISP_GOLDEN, DISP_PTS, phase_rule
from klab import bounds, checks
from klab.arith import _exact_ints, euler_phi, factorize
from klab.dispersion import (
    DISPERSION_TAIL_EXPONENTS,
    NegativeQuadratic,
    PsiDoesNotMajorize,
    SmoothCutoff,
    cauchy_schwarz_gap,
    completed_coprime_sum,
    completed_progression_sum,
    default_completion_bandwidth,
    dispersion_split,
    progression_error,
    progression_error_total,
    rhs_dispersion,
    smooth_step,
)
from klab.sequences import DyadicRange, _csum, build_sequence, make_sequence


def ones(support):
    return build_sequence("ones", support)


# the default cutoff, a skewed one and both zero-width-ramp ones, as (plateau, support)
CUTOFFS = [
    ((1.0, 2.0), (0.5, 2.5)),
    ((0.9385733044367507, 2.3878402994279737), (0.25570666142114584, 3.47521917397068)),
    ((1.0, 2.0), (1.0, 2.5)),
    ((1.0, 2.0), (0.5, 2.0)),
]


def smooth_step_slope(t):
    """The derivative of smooth_step at an mpf t in (0, 1)."""
    f, g = mp.exp(-1 / t), mp.exp(-1 / (1 - t))
    return f * g * (1 / t**2 + 1 / (1 - t) ** 2) / (f + g) ** 2


class TestSmoothStep:
    def test_endpoints(self):
        assert smooth_step(-1) == 0.0 and smooth_step(0) == 0.0
        assert smooth_step(1) == 1.0 and smooth_step(2) == 1.0

    def test_midpoint_symmetry(self):
        assert math.isclose(smooth_step(0.5), 0.5)
        for t in (0.1, 0.25, 0.4):
            assert math.isclose(smooth_step(t) + smooth_step(1 - t), 1.0, abs_tol=1e-15)

    @given(st.floats(-2, 3, allow_nan=False))
    def test_range(self, t):
        assert 0.0 <= smooth_step(t) <= 1.0

    def test_monotone(self):
        xs = [i / 500 for i in range(501)]
        vals = [smooth_step(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestSmoothCutoff:
    def test_default_shape(self):
        psi = SmoothCutoff()
        assert psi(1.0) == 1.0 and psi(2.0) == 1.0 and psi(1.5) == 1.0
        assert psi(0.5) == 0.0 and psi(2.5) == 0.0 and psi(-3) == 0.0
        assert psi(0.75) == pytest.approx(0.5)

    def test_majorizes_dyadic_indicator(self):
        psi = SmoothCutoff()
        for x in [1 + i / 100 for i in range(101)]:
            assert psi(x) >= 1.0 - 1e-15

    @given(st.floats(-1, 4, allow_nan=False))
    def test_bounded(self, x):
        psi = SmoothCutoff()
        assert 0.0 <= psi(x) <= 1.0

    def test_mass_is_exact(self):
        psi = SmoothCutoff()
        assert psi.mass() == 1.5 and psi.mass_fraction() == Fraction(3, 2)
        # the float formula gave 2.3343897537703784 here
        odd = SmoothCutoff(*CUTOFFS[1])
        assert odd.mass() == float(odd.mass_fraction()) == 2.334389753770379
        # quadrature cross-check
        val = mp.quad(lambda x: psi(float(x)), [0.5, 1.0, 2.0, 2.5])
        assert math.isclose(val, 1.5, rel_tol=1e-10)

    def test_zero_cutoff(self):
        z = SmoothCutoff(plateau=(0.0, 0.0), support=(0.0, 0.0))
        assert z(0.0) == 0.0 and z(1.0) == 0.0 and z.mass() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothCutoff(plateau=(1.0, 2.0), support=(1.5, 2.5))
        # an infinite support was accepted, and mass() and window() then
        # raised OverflowError
        for plateau, support in (((1.0, 2.0), (0.5, math.inf)), ((1.0, 2.0), (-math.inf, 2.5)),
                                 ((1.0, math.inf), (0.5, math.inf)), ((1.0, math.nan), (0.5, 2.5))):
            with pytest.raises(ValueError, match="need finite plateau and support"):
                SmoothCutoff(plateau=plateau, support=support)

    @pytest.mark.parametrize("m_scale", [0.0, -8.0, -5.0, math.inf, -math.inf, math.nan])
    def test_m_scale_must_be_positive_and_finite(self, m_scale):
        # 0.0 raised ZeroDivisionError, inf OverflowError, and -8.0 gave a
        # zero split and -5.0 a nonzero completion rhs without an error
        psi, s = SmoothCutoff(), ones({3, 4})
        for call in (
            lambda: psi.window(m_scale),
            lambda: dispersion_split(s, s, [3], 1, psi, m_scale),
            lambda: completed_progression_sum(psi, m_scale, 3, 1, 4),
            lambda: completed_coprime_sum(psi, m_scale, 3),
            lambda: default_completion_bandwidth(3, m_scale),
        ):
            with pytest.raises(ValueError, match="m_scale must be positive and finite"):
                call()

    def test_hat_zero_and_conjugate(self):
        psi = SmoothCutoff()
        assert psi.hat(0.0) == 1.5 + 0j
        z = psi.hat(0.7)
        assert psi.hat(-0.7) == z.conjugate()

    def test_hat_against_plain_quadrature(self):
        psi = SmoothCutoff()
        for xi in (0.3, 1.0, 2.5):
            # psi itself, not its derivative, split at the plateau's ends
            want = mp.quad(lambda x: psi(float(x)) * mp.expjpi(-2 * xi * x), [0.5, 1.0, 2.0, 2.5])
            assert abs(psi.hat(xi) - complex(want)) < 1e-9

    @pytest.mark.parametrize("plateau, support", [((1.0, 2.0), (1.0, 2.5)), ((1.0, 2.0), (0.5, 2.0))])
    def test_hat_zero_width_ramp(self, plateau, support):
        # oracle: the midpoint rule; psi is smooth inside the support, so it
        # converges as h^2
        psi = SmoothCutoff(plateau=plateau, support=support)
        s0, s1 = support
        cells = 20000
        h = (s1 - s0) / cells
        for xi in (0.3, 1.0):
            xs = [s0 + (k + 0.5) * h for k in range(cells)]
            want = h * sum(psi(x) * cmath.exp(-2j * math.pi * xi * x) for x in xs)
            assert abs(psi.hat(xi) - want) < 1e-6

    def test_hat_accuracy_against_mpmath(self):
        # max |error| of hat against a 40-digit reference of (I0 - I1) /
        # (2 pi i xi), each ramp's I by the trapezoid rule at 1,024 nodes,
        # with s' in mpmath; the rule is checked once against tanh-sinh
        # quadrature, which takes too long to run at every point
        with mp.workdps(40):
            nodes = [j * mp.mpf(1) / 1024 for j in range(1, 1024)]
            ds = [smooth_step_slope(t) / 1024 for t in nodes]

            def ramp(xi, edge, w):
                if w == 0:
                    return mp.expjpi(-2 * xi * edge)
                z, step, total = mp.expjpi(-2 * xi * edge), mp.expjpi(-2 * xi * w / 1024), 0
                for d in ds:
                    z *= step
                    total += d * z
                return total

            xi, edge, w = mp.mpf(7.75), mp.mpf(0.25570666142114584), mp.mpf(0.6828666430156049)
            tanh_sinh = mp.quad(lambda t: smooth_step_slope(t) * mp.expjpi(-2 * xi * (edge + w * t)),
                                mp.linspace(0, 1, 7))
            assert abs(ramp(xi, edge, w) - tanh_sinh) < 1e-30
            worst = 0.0
            for plateau, support in CUTOFFS:
                psi = SmoothCutoff(plateau=plateau, support=support)
                (s0, s1), (p0, p1) = (tuple(map(mp.mpf, v)) for v in (support, plateau))
                for xi in (1e-6, 1e-3, 0.1, 0.37, 1.0, 2.5, 7.75, 20.0, 64.0):
                    want = (ramp(xi, s0, p0 - s0) - ramp(xi, s1, p1 - s1)) / (2j * mp.pi * xi)
                    worst = max(worst, float(abs(psi.hat(xi) - want)))
        print(f"\n[accuracy] max |hat - mpmath| for xi <= 64: {worst:.3g}")
        assert worst <= 1e-15

    @pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
    def test_hat_rejects_non_finite_xi(self, xi):
        # each gave nan+nanj
        with pytest.raises(ValueError, match="xi must be finite"):
            SmoothCutoff().hat(xi)

    @pytest.mark.parametrize("plateau, support", CUTOFFS)
    def test_hat_finite_at_extreme_xi(self, plateau, support):
        # 1e300 gave nan+nanj; past both ramps' cut the default is 0, and a
        # zero-width ramp leaves its jump, e(-xi edge) / (2 pi i xi)
        psi = SmoothCutoff(plateau=plateau, support=support)
        for xi in (1e300, -1e300, 1.7976931348623157e308, 5e-324, -5e-324):
            z = psi.hat(xi)
            assert math.isfinite(z.real) and math.isfinite(z.imag)
        assert psi.hat(5e-324) == psi.mass()
        assert abs(psi.hat(1e300)) * 1e300 <= 0.16  # 1 / (2 pi) = 0.159...


class TestProgressionError:
    def test_counting_example(self):
        # oracle: products of {3,4}x{3,4} are 9,12,12,16; only 16 = 1 mod 5,
        # all four coprime to 5, phi(5) = 4 -> 1 - (1/4)*4 = 0
        s = ones({3, 4})
        assert progression_error(s, s, 5, 1) == 0j

    def test_modulus_one(self):
        s = ones({3, 4})
        assert progression_error(s, s, 1, 5) == 0j

    def test_zero_beta(self):
        assert progression_error(ones({3}), make_sequence({2: 0j}), 3, 1) == 0j

    def brute(self, alpha, beta, q, a):
        s1 = 0j
        s2 = 0j
        for m, am in alpha.values.items():
            for n, bn in beta.values.items():
                if (m * n - a) % q == 0:
                    s1 += am * bn
                if gcd(m * n, q) == 1:
                    s2 += am * bn
        return s1 - s2 / euler_phi(q)

    @given(st.integers(1, 60), st.integers(-30, 30), st.integers(0, 2**30))
    @settings(max_examples=200)
    def test_against_brute_force(self, q, a, seed):
        rng = random.Random(seed)
        alpha = build_sequence("random_unit", DyadicRange(rng.choice((2, 3, 5))),
                               seed=rng.randrange(1 << 20))
        beta = build_sequence("random_unit", DyadicRange(rng.choice((2, 3, 5))),
                              seed=rng.randrange(1 << 20))
        got = progression_error(alpha, beta, q, a)
        want = self.brute(alpha, beta, q, a)
        assert abs(got - want) <= 1e-12 * (1 + abs(want))

    @staticmethod
    def python_loop(alpha, beta, q, a):
        """progression_error as a per-element Python loop: an fsum per class
        of beta mod q, then fsums over the solution classes, over alpha and
        over (n, q) = 1."""
        classes, cop_beta = {}, []
        for n, v in sorted(beta.values.items()):
            classes.setdefault(n % q, []).append(v)
            if gcd(n, q) == 1:
                cop_beta.append(v)
        sums = {x: _csum(parts) for x, parts in classes.items()}
        main, cop_alpha = [], []
        for m, am in sorted(alpha.values.items()):
            g = gcd(m, q)
            if g == 1:
                cop_alpha.append(am)
            if a % g == 0:
                step = q // g
                x0 = (a % q // g) * pow(m % q // g, -1, step) % step
                main.append(am * _csum([sums[x] for x in range(x0, q, step) if x in sums]))
        return _csum(main) - _csum(cop_alpha) * _csum(cop_beta) / euler_phi(q)

    @given(st.integers(1, 40), st.integers(-40, 40), st.integers(0, 2**30))
    @settings(max_examples=150)
    def test_bit_for_bit_against_python_loop(self, q, a, seed):
        # signed zeros, exact cancellations and classes of one to many values;
        # repr tells -0.0 from 0.0
        rng = random.Random(seed)
        parts = (-0.0, 0.0, 1.0, -1.0, 0.1, -0.3)

        def seq(base):
            if rng.random() < 0.5:
                return build_sequence("random_unit", DyadicRange(base), seed=rng.randrange(1 << 20))
            return make_sequence({n: complex(rng.choice(parts), rng.choice(parts))
                                  for n in DyadicRange(base)})

        alpha, beta = seq(rng.choice((2, 8, 32))), seq(rng.choice((2, 8, 32)))
        got = progression_error(alpha, beta, q, a)
        assert repr(got) == repr(self.python_loop(alpha, beta, q, a))

    @pytest.mark.parametrize("q", [2**31 - 1, 2**31, 2**31 + 11, 2**32 + 15, 10**12, 5**27, 3**40])
    def test_large_moduli_small_supports(self, q):
        # n near q and small m make a r^-1 mod q a product of two residues
        # near q, which leaves int64 from q = 2**31 on (2**31 - 1 is the last
        # int64 modulus, 2**31 the first on Python integers); 3**40 > 2**63
        # leaves it with q itself.  m = 3 with q = 3**40 and m = 10 k with q = 10**12
        # = 2**12 5**12 have gcd(m, q) > 1.  Nothing of size q may be
        # allocated.
        rng = random.Random(q % 1000)
        ms = [3, 7, 11, 13, 10 * rng.randrange(1, 10**5), rng.randrange(10**5, 10**6)]
        ns = [rng.randrange(q // 2, q) for _ in range(6)]
        alpha = make_sequence({m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in ms})
        beta = make_sequence({n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in ns})
        for a in [m * ns[0] for m in ms] + [1]:
            tracemalloc.start()
            try:
                got = progression_error(alpha, beta, q, a)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20
            want = self.brute(alpha, beta, q, a)
            assert abs(got - want) <= 1e-12 * (1 + abs(want))
            assert repr(got) == repr(self.python_loop(alpha, beta, q, a))

    def test_non_coprime_modulus_class(self):
        # m = 4, q = 6, a = 2: gcd(4,6)=2 | 2, classes n = 2, 5 mod 6... direct check
        alpha = ones({4})
        beta = ones(DyadicRange(6))
        got = progression_error(alpha, beta, 6, 2)
        want = self.brute(alpha, beta, 6, 2)
        assert abs(got - want) < 1e-13


class TestProgressionErrorTotal:
    def test_no_coprime_moduli(self):
        s = ones({3, 4})
        assert progression_error_total(s, s, [2, 4, 6], 2) == 0.0

    def test_single_modulus_from_error_example(self):
        s = ones({3, 4})
        assert progression_error_total(s, s, [5], 1) == 0.0

    def test_brute_force_grid(self):
        alpha = ones(DyadicRange(4))
        beta = ones(DyadicRange(4))
        want = 0.0
        for q in DyadicRange(4):
            if gcd(q, 1) == 1:
                s1 = sum(1 for m in alpha.values for n in beta.values if (m * n - 1) % q == 0)
                s2 = sum(1 for m in alpha.values for n in beta.values if gcd(m * n, q) == 1)
                want += abs(s1 - s2 / euler_phi(q))
        got = progression_error_total(alpha, beta, DyadicRange(4), 1)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_repeated_moduli_counted_once(self):
        # dispersion_split sums over the distinct moduli, and so must delta,
        # or the Cauchy-Schwarz gap shrinks with each repeat
        alpha = build_sequence("random_unit", DyadicRange(16), seed=3)
        beta = build_sequence("tau_k", DyadicRange(8), k=2)
        psi = SmoothCutoff()
        distinct = [5, 7, 9]
        delta = progression_error_total(alpha, beta, distinct, 1)
        split = dispersion_split(alpha, beta, distinct, 1, psi, 16.0)
        gap = cauchy_schwarz_gap(split, alpha.l2_norm, delta)
        assert delta > 0
        for moduli in (distinct * 3, distinct * 4, [9, 5, 7, 5, 9]):
            split = dispersion_split(alpha, beta, moduli, 1, psi, 16.0)
            repeated = progression_error_total(alpha, beta, moduli, 1)
            assert repeated == delta
            assert cauchy_schwarz_gap(split, alpha.l2_norm, repeated) == gap

    def test_sum_of_per_modulus_errors(self):
        result = checks.error_sum_consistency()
        assert result.passed, result.detail


class TestZeroValues:
    @staticmethod
    def pair(values, zeros):
        """The sequence of ``values`` with and without the zero-valued entries
        of ``values`` and ``zeros``, on the same support."""
        support = set(values) | set(zeros)
        nonzero = {n: v for n, v in values.items() if v != 0}
        return make_sequence({**values, **zeros}, support), make_sequence(nonzero, support)

    @pytest.mark.parametrize("a", [1, 2, -3])
    def test_zeros_change_no_bit(self, a):
        # alpha has 16 nonzero entries and the window of m_scale 16 has 33 m's:
        # the moduli up to the lookups take the residue-indexed table, the
        # others the sorted one; 2**63 + 7 and 2**64 + 3 put the zeros' indices
        # past int64
        alpha_vals = build_sequence("random_unit", DyadicRange(16), seed=11).values
        alpha, alpha_plain = self.pair(alpha_vals, {40: 0j, 2**63 + 7: complex(-0.0, 0.0), 5: complex(0.0, -0.0)})
        beta_vals = build_sequence("moebius", DyadicRange(32)).values
        assert 0j in beta_vals.values()
        beta, beta_plain = self.pair(beta_vals, {70: complex(-0.0, 0.0), 2**64 + 3: 0j})
        psi = SmoothCutoff()
        moduli = [1, 2, 3, 5, 12, 16, 17, 30, 45, 49, 50, 64, 97, 1000, 2**31 + 11]
        for q in moduli:
            got = progression_error(alpha, beta, q, a)
            assert repr(got) == repr(progression_error(alpha_plain, beta_plain, q, a))
            assert repr(got) == repr(TestProgressionError.python_loop(alpha, beta, q, a))
        got = progression_error_total(alpha, beta, moduli, a)
        assert repr(got) == repr(progression_error_total(alpha_plain, beta_plain, moduli, a))
        got = dispersion_split(alpha, beta, moduli, a, psi, 16.0)
        assert repr(got) == repr(dispersion_split(alpha_plain, beta_plain, moduli, a, psi, 16.0))


class TestDispersionSplit:
    def test_zero_beta(self):
        split = dispersion_split(ones({3}), make_sequence({3: 0j}), [3, 4], 1,
                                 SmoothCutoff(), 2.0)
        assert split.U == split.W == 0.0 and split.V == 0j

    def test_all_signs_zero(self):
        # a shares a factor with every modulus
        split = dispersion_split(ones({3}), ones({3}), [2, 4, 6], 2, SmoothCutoff(), 2.0)
        assert set(split.c.values()) == {0}
        assert split.U == split.W == 0.0 and split.V == 0j

    def test_plateau_must_cover(self):
        psi = SmoothCutoff(plateau=(1.2, 2.0), support=(0.5, 2.5))
        with pytest.raises(PsiDoesNotMajorize):
            dispersion_split(ones({3}), ones({3}), [3], 1, psi, 2.0)

    def brute_split(self, alpha, beta, moduli, a, psi, m_scale):
        c = {}
        for q in moduli:
            if gcd(a, q) != 1:
                c[q] = 0
            else:
                e = progression_error(alpha, beta, q, a)
                c[q] = 1 if e.real >= 0 else -1
        U = W = 0.0
        V = 0j
        for m in psi.window(m_scale):
            x = y = 0j
            for q in moduli:
                if c[q] == 0:
                    continue
                for n, bv in beta.values.items():
                    if (m * n - a) % q == 0:
                        x += c[q] * bv
                    if gcd(m * n, q) == 1:
                        y += c[q] / euler_phi(q) * bv
            w = psi(m / m_scale)
            U += w * abs(y) ** 2
            W += w * abs(x) ** 2
            V += w * x * y.conjugate()
        return U, V, W, c

    def test_toy_grids_match_brute_force(self):
        psi = SmoothCutoff()
        for grid in checks.dispersion_toy_grids(8):
            args = (grid["alpha"], grid["beta"], grid["moduli"], grid["a"], psi, grid["m_scale"])
            split = dispersion_split(*args)
            U, V, W, c = self.brute_split(*args)
            assert math.isclose(split.U, U, rel_tol=1e-11, abs_tol=1e-12)
            assert math.isclose(split.W, W, rel_tol=1e-11, abs_tol=1e-12)
            assert abs(split.V - V) <= 1e-11 * (1 + abs(V))
            assert dict(split.c) == c

    def test_quadratic_identity(self):
        result = checks.quadratic_identity()
        assert result.passed, result.detail

    def test_majorant_inequality(self):
        result = checks.majorant_inequality()
        assert result.passed, result.detail

    def test_sign_domain(self):
        result = checks.sign_domain()
        assert result.passed, result.detail

    @pytest.mark.parametrize("moduli,a", [([0], 2), ([-4], 2), ([0, 3], 1), ([-3, 3], 1)])
    def test_non_positive_modulus_rejected(self, moduli, a):
        s = ones({3, 4})
        with pytest.raises(ValueError, match="q must be positive"):
            dispersion_split(s, s, moduli, a, SmoothCutoff(), 2.0)
        with pytest.raises(ValueError, match="q must be positive"):
            progression_error_total(s, s, moduli, a)

    @staticmethod
    def libm_random_unit(base, seed):
        """``random_unit`` on (base, 2 base] as it was built before the phase
        rule, from libm's cmath.exp of 2 pi u: the inputs of the pins below."""
        rng = random.Random(seed)
        scale = 1.0 / math.sqrt(base)
        return make_sequence({n: cmath.exp(2j * math.pi * rng.random()) * scale for n in DyadicRange(base)},
                             DyadicRange(base))

    # repr values of the commit before the per-modulus residue table, which
    # summed in the same order
    PINNED = {
        1: (7230.619052877003, 7159.530142553515 + 0j, 13981.634276685789, 20.741580386774597,
            [1, 1, 1, -1, -1, -1, 1, -1, -1, -1, 1, 1, -1, -1, -1, -1]),
        3: (57324.24138618272, 57284.6438110332 + 0j, 63583.649158980275, 28.186141409196203,
            [1, 0, 1, 1, 0, -1, 1, 0, 1, -1, 0, -1, -1, 0, 1, -1]),
    }

    @pytest.mark.parametrize("a", [1, 3])
    def test_pinned_values_exact(self, a):
        alpha = self.libm_random_unit(64, 11)
        beta = build_sequence("tau_k", DyadicRange(32), k=2)
        split = dispersion_split(alpha, beta, DyadicRange(16), a, SmoothCutoff(), 64.0)
        delta = progression_error_total(alpha, beta, DyadicRange(16), a)
        U, V, W, want_delta, signs = self.PINNED[a]
        assert (split.U, split.V, split.W, delta) == (U, V, W, want_delta)
        assert dict(split.c) == dict(zip(range(17, 33), signs))

    # repr values of the per-element Python loop.  Mod q in (16, 32], the 64
    # complex values of beta fall into classes of two to four, where the
    # summation order and the one-, two- and three-value handling show; the
    # tau_2 pin above sums integers, which come out the same in any order.
    PINNED_COMPLEX = {
        1: (1.789690856894728, 1.5903362996107389 + 0.39348733202937514j, 42.212482241315904,
            2.2201986209235054, [1, -1, -1, 1, -1, 1, 1, -1, -1, -1, -1, 1, -1, -1, -1, 1]),
        3: (1.5817403775905587, 1.4997432087870881 - 0.035235750843721575j, 37.68099088516224,
            1.4729111772418493, [-1, 0, 1, 1, 0, 1, -1, 0, 1, -1, 0, -1, 1, 0, 1, 1]),
    }

    @pytest.mark.parametrize("a", [1, 3])
    def test_pinned_complex_values_exact(self, a):
        alpha, beta = self.libm_random_unit(64, 11), self.libm_random_unit(64, 5)
        split = dispersion_split(alpha, beta, DyadicRange(16), a, SmoothCutoff(), 64.0)
        delta = progression_error_total(alpha, beta, DyadicRange(16), a)
        U, V, W, want_delta, signs = self.PINNED_COMPLEX[a]
        assert (split.U, split.V, split.W, delta) == (U, V, W, want_delta)
        assert dict(split.c) == dict(zip(range(17, 33), signs))

    # the complex pin's split and delta, then numpy's runtime report
    PINNED_COMPLEX_RUN = """
import numpy as np
from klab.dispersion import SmoothCutoff, dispersion_split, progression_error_total
from klab.sequences import DyadicRange, build_sequence

alpha = build_sequence("random_unit", DyadicRange(64), seed=11)
beta = build_sequence("random_unit", DyadicRange(64), seed=5)
values = []
for a in (1, 3):
    s = dispersion_split(alpha, beta, DyadicRange(16), a, SmoothCutoff(), 64.0)
    values.append((s.U, s.V, s.W, sorted(s.c.items()), progression_error_total(alpha, beta, DyadicRange(16), a)))
print(repr(values))
np.show_runtime()
"""

    def test_pinned_complex_values_without_simd(self):
        # dispersion runs no BLAS, so with numpy's SIMD dispatch switched off
        # the values must stay those of this process.  numpy 2.4 reads group
        # names only: per-feature names are ignored without a warning.
        groups = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(self.PINNED_COMPLEX_RUN, {})
        values, runtime = here.getvalue().split("\n", 1)
        if not any(g in runtime.split("'found':")[1].split("]")[0] for g in groups):
            pytest.skip(f"numpy finds none of {groups} here")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), NPY_DISABLE_CPU_FEATURES=" ".join(groups))
        done = subprocess.run([sys.executable, "-c", self.PINNED_COMPLEX_RUN], env=env,
                              capture_output=True, text=True, check=True)
        masked_values, masked_runtime = done.stdout.split("\n", 1)
        not_found = masked_runtime.split("'not_found':")[1].split("]")[0]
        assert all(f"'{g}'" in not_found for g in groups), masked_runtime
        assert masked_values == values

    def test_one_residue_table_per_coprime_modulus(self, monkeypatch):
        import klab.dispersion as disp

        built = []
        table = disp._residue_table

        def counted(beta, q, a, residues):
            built.append(q)
            return table(beta, q, a, residues)

        def forbidden(*args):
            raise AssertionError("dispersion_split called progression_error")

        monkeypatch.setattr(disp, "_residue_table", counted)
        monkeypatch.setattr(disp, "progression_error", forbidden)
        alpha = build_sequence("random_unit", DyadicRange(16), seed=3)
        split = disp.dispersion_split(alpha, ones(DyadicRange(8)), [12, 5, 9, 6, 5, 7], 3,
                                      SmoothCutoff(), 16.0)
        assert built == [5, 7]
        assert dict(split.c)[6] == dict(split.c)[9] == dict(split.c)[12] == 0


class TestTableCases:
    """A modulus q no larger than the number of residues looked up in its
    table gets the residue-indexed table, a larger one the sorted-residue
    table; the two give the same bits."""

    PARTS = (-0.0, 0.0, 1.0, -1.0, 0.1, -0.3)

    def seq(self, rng, base):
        return make_sequence({n: complex(rng.choice(self.PARTS), rng.choice(self.PARTS))
                              for n in DyadicRange(base)})

    def run(self, monkeypatch, indexed, call):
        """call() with the gate forced to ``indexed``: its repr, and the repr
        of what each _error call gave (E_q, the window mask and entries, the
        coprime beta sum and phi(q))."""
        import klab.dispersion as disp

        gates, rows = [], []
        error = disp._error

        def gate(q, lookups):
            gates.append(q)
            return indexed

        def recorded(*args):
            out = error(*args)
            e, on, s_m, cop_beta, phi_q = out
            rows.append(repr((e, on.tolist(), s_m.tolist(), cop_beta, phi_q)))
            return out

        with monkeypatch.context() as m:
            m.setattr(disp, "_indexed", gate)
            m.setattr(disp, "_error", recorded)
            value = call()
        assert gates and rows
        return repr(value), rows

    def test_gate(self):
        import klab.dispersion as disp

        assert disp._indexed(8, 8) and not disp._indexed(9, 8)

    # mod 8, 9, 17 and 18, beta on (base, 2 base] has classes of one value
    # (base 8), two (16 mod 8 and 9, 32 mod 17 and 18) and three or more
    @pytest.mark.parametrize("base", [8, 16, 32, 64])
    @pytest.mark.parametrize("a", [1, 6, 0, -7])
    def test_progression_error(self, monkeypatch, base, a):
        # alpha has 8 indices: q = 8 is indexed, q = 9 sorted; gcd(6, q) and
        # gcd(0, q) exceed 1 at both
        rng = random.Random(100 * base + a)
        alpha, beta = self.seq(rng, 8), self.seq(rng, base)
        for q in (8, 9):
            def call():
                return progression_error(alpha, beta, q, a)

            assert self.run(monkeypatch, True, call) == self.run(monkeypatch, False, call)

    # beta on (1024, 2048] against q = 60, 66 and 210, above the 17 lookups
    # and of three or four primes: a mid-size sorted table whose classes
    # (17, 15.5 and about 4.9 values on average) take fsum
    @pytest.mark.parametrize("base", [8, 16, 32, 64, 1024])
    @pytest.mark.parametrize("a", [1, -7])
    def test_dispersion_split(self, monkeypatch, base, a):
        # 8 alpha indices and the 9 m's of the window at M = 4: q = 17 is
        # indexed, q = 18 sorted
        rng = random.Random(100 * base + a)
        alpha, beta, psi = self.seq(rng, 8), self.seq(rng, base), SmoothCutoff()
        assert len(psi.window(4.0)) == 9
        moduli = [60, 66, 210] if base == 1024 else [17, 18]

        def call():
            s = dispersion_split(alpha, beta, moduli, a, psi, 4.0)
            return s.U, s.V, s.W, sorted(s.c.items())

        assert self.run(monkeypatch, True, call) == self.run(monkeypatch, False, call)

    def test_verify_grids_reach_both_tables(self, monkeypatch):
        # CI compares the dispersion verify bytes with and without SIMD
        # dispatch, on checks.dispersion_toy_grids(): both table sizes must run
        import klab.dispersion as disp

        gate, seen = disp._indexed, set()

        def spy(q, lookups):
            seen.add(gate(q, lookups))
            return gate(q, lookups)

        monkeypatch.setattr(disp, "_indexed", spy)
        for check in checks.SUITES["dispersion"]:
            assert check().passed
        assert seen == {True, False}


class TestCoprimeSum:
    """The Moebius coprime sum over exact expansions has the bits of _csum
    over the indices coprime to q."""

    @staticmethod
    def coprime_sum(items, q):
        """The reprs of _coprime_sum of the index -> value map ``items`` mod
        q and of _csum over its indices coprime to q, and the parts built."""
        import klab.dispersion as disp

        ns = sorted(items)
        c = disp._Coeffs(_exact_ints(ns, max(map(abs, ns), default=0)),
                         np.array([items[n] for n in ns], dtype=complex), {})
        got = disp._coprime_sum(c, list(factorize(q)))
        return repr(got), repr(_csum([items[n] for n in ns if gcd(n, q) == 1])), c.parts

    # the product of the first 15 primes
    PRIMORIAL_47 = 614889782588491410

    parts = st.one_of(
        st.sampled_from((0.0, -0.0)),
        st.builds(lambda sign, x: sign * x, st.sampled_from((1.0, -1.0)),
                  st.floats(1e-300, 1e300)),
    )

    @given(
        st.dictionaries(st.one_of(st.integers(-60, 60), st.integers(-10**6, 10**6)),
                        st.builds(complex, parts, parts), max_size=40),
        st.one_of(st.sampled_from((1, 2, 510510, 10007 * 10009, PRIMORIAL_47)),
                  st.integers(1, 10**4)),
    )
    @settings(max_examples=200)
    def test_matches_csum(self, items, q):
        # supports with 0 and negative indices, values from 1e-300 to 1e300
        # and signed zeros
        got, want, _ = self.coprime_sum(items, q)
        assert got == want

    @pytest.mark.parametrize("q", [1, 2, 6, 510510, PRIMORIAL_47])
    def test_exact_zero_totals(self, q):
        # the coprime parts cancel exactly, or are signed zeros only
        items = {1: 1e300 + 0.5j, -1: -1e300 - 0.5j, 0: 3.0 - 0.0j, 11 * 13: complex(-0.0, 1e-300),
                 -11 * 13: complex(-0.0, -1e-300), 17: complex(-0.0, -0.0)}
        got, want, _ = self.coprime_sum(items, q)
        assert got == want
        if q > 1:
            assert want == "0j"

    def test_primorial_prunes(self):
        # of the 2^15 squarefree divisors the walk takes the 19 that divide
        # a nonzero index (index 0 is divisible by all of them), and those
        # times one more prime
        items = {n: complex(n * n + 1, n) / 7 for n in range(-30, 31)}
        got, want, parts = self.coprime_sum(items, self.PRIMORIAL_47)
        assert got == want and got != "0j"
        assert sum(1 for n, _, _, _ in parts.values() if n.size) == 19
        assert len(parts) < 19 * 16

    def test_primes_dividing_no_index(self):
        # neither prime divides an index, so their product is never formed
        items = {n: complex(1.0 / n, 1.0) for n in range(1, 100)}
        got, want, parts = self.coprime_sum(items, 10007 * 10009)
        assert got == want
        assert sorted(parts) == [1, 10007, 10009]
        assert not parts[10007][0].size and not parts[10009][0].size

    def test_nothing_outlives_a_call(self, monkeypatch):
        # each (sequence, d) part is built at most once per evaluator call,
        # and every call builds its own
        import klab.dispersion as disp

        built, part = [], disp._part

        def spy(c, d, p):
            built.append((c, d))
            return part(c, d, p)

        monkeypatch.setattr(disp, "_part", spy)
        alpha = build_sequence("random_unit", DyadicRange(64), seed=1)
        other = build_sequence("random_unit", DyadicRange(64), seed=2)
        beta = build_sequence("tau_k", DyadicRange(32), k=2)
        moduli, psi = range(1, 121), SmoothCutoff()
        calls = (lambda s: progression_error_total(s, beta, moduli, 1),
                 lambda s: dispersion_split(s, beta, moduli, 1, psi, 64.0))
        for call in calls:
            counts = []
            for s in (alpha, other, alpha):
                built.clear()
                call(s)
                per_part = Counter((id(c), d) for c, d in built)
                assert max(per_part.values()) == 1
                assert len({id(c) for c, _ in built}) == 2
                assert {2, 6, 30, 105} <= {d for _, d in built}
                counts.append(len(built))
            assert counts[0] == counts[1] == counts[2]
        # other values at the same indices, after a call on alpha: a fresh evaluation
        fresh = fsum(abs(TestProgressionError.python_loop(other, beta, q, 1)) for q in moduli)
        assert repr(progression_error_total(other, beta, moduli, 1)) == repr(fresh)

    def test_one_factorization_per_modulus(self, monkeypatch):
        # the unit mask, phi(q) and the walk's primes all come from one
        # factorize(q), at both table sizes (the window's 9 m's and alpha's 8
        # indices put q = 17 on the indexed table, the others on the sorted one)
        import klab.dispersion as disp

        seen, factorize = [], disp.factorize

        def counted(q):
            seen.append(q)
            return factorize(q)

        def forbidden(q):
            raise AssertionError("euler_phi factorizes q again")

        monkeypatch.setattr(disp, "factorize", counted)
        monkeypatch.setattr(disp, "euler_phi", forbidden)
        alpha, beta = ones(DyadicRange(8)), ones(DyadicRange(16))
        moduli = [17, 30, 2**31 - 1, 2**32 + 15]
        dispersion_split(alpha, beta, moduli, 1, SmoothCutoff(), 4.0)
        assert seen == moduli
        seen.clear()
        progression_error_total(alpha, beta, moduli, 1)
        assert sorted(seen) == moduli

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_finite_coefficients(self, bad):
        for alpha, beta in ((make_sequence({3: complex(0.5, bad)}), ones({3, 4})),
                            (ones({3, 4}), make_sequence({5: complex(bad, 0.0)}))):
            with pytest.raises(ValueError, match="finite coefficients"):
                progression_error(alpha, beta, 5, 1)
            with pytest.raises(ValueError, match="finite coefficients"):
                dispersion_split(alpha, beta, [5], 1, SmoothCutoff(), 4.0)


class TestCauchySchwarzGap:
    def test_zero_split(self):
        split = dispersion_split(ones({3}), make_sequence({3: 0j}), [3], 1, SmoothCutoff(), 2.0)
        assert cauchy_schwarz_gap(split, 0.0, 0.0) == 0.0

    def test_negative_quadratic_rejected(self):
        from klab.dispersion import DispersionSplit

        bad = DispersionSplit(U=0.0, V=1.0 + 0j, W=0.0, c={})
        with pytest.raises(NegativeQuadratic):
            cauchy_schwarz_gap(bad, 1.0, 0.0)

    def test_single_spike_reduction(self):
        # alpha a single spike at m0: delta = |sum_q c_q E_q| <= |X_m0 - Y_m0|
        psi = SmoothCutoff()
        m0 = 3
        alpha = ones({m0})
        beta = make_sequence({3: 0.7, 4: -0.4}, DyadicRange(2))
        moduli = DyadicRange(2)
        split = dispersion_split(alpha, beta, moduli, 1, psi, float(2))
        delta = progression_error_total(alpha, beta, moduli, 1)
        gap = cauchy_schwarz_gap(split, alpha.l2_norm, delta)
        assert gap >= -1e-9


class TestCompletedProgressionSum:
    def test_poisson_sanity_q1(self):
        psi = SmoothCutoff()
        res = completed_progression_sum(psi, 1000.0, 1, 0, 64)
        assert res.residual <= 1e-6 / 1000.0
        assert math.isclose(res.lhs, res.rhs, rel_tol=1e-12)

    @pytest.mark.parametrize("m_scale,q,a,H", (
        (1000.0, 7, 3, 64), (100.0, 1, 0, 8), (10.0, 11, 2, 16), (10.0, 13, 5, 16), (20.0, 12, 2, 16),
    ))
    def test_rhs_takes_the_phase_rule(self, m_scale, q, a, H):
        # the rhs rebuilt from the oracle's bits of e(a h / q), in the same
        # order, is the function's rhs exactly; at the last three points,
        # phases from cmath.exp give an rhs one ulp away
        psi = SmoothCutoff()
        m_over_q = Fraction(m_scale) / q
        rhs = psi.mass_fraction() * m_over_q
        for h in range(1, H + 1):
            z = phase_rule(a * h % q, q)
            rhs += Fraction(2.0 * (z * psi.hat(h * m_scale / q)).real) * m_over_q
        assert completed_progression_sum(psi, m_scale, q, a, H).rhs == float(rhs)

    def test_zero_cutoff(self):
        zero = SmoothCutoff(plateau=(0.0, 0.0), support=(0.0, 0.0))
        res = completed_progression_sum(zero, 100.0, 3, 1, 4)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.residual == 0.0

    def test_q3_default_bandwidth(self):
        m_scale = 1000.0
        res = completed_progression_sum(SmoothCutoff(), m_scale, 3, 1,
                                        default_completion_bandwidth(3, m_scale))
        assert res.residual <= 1e-6 / m_scale
        # lhs counts roughly a third of the mass
        assert abs(res.lhs - 1.5 * m_scale / 3) < 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            completed_progression_sum(SmoothCutoff(), 100.0, 3, 1, 0)
        with pytest.raises(ValueError):
            completed_progression_sum(SmoothCutoff(), 100.0, 0, 1, 4)
        # each gave 64
        for q in (0, -3):
            with pytest.raises(ValueError, match="q must be positive"):
                default_completion_bandwidth(q, 1000.0)

    def test_default_bandwidth_formula(self):
        assert default_completion_bandwidth(1, 1000.0) == 64
        assert default_completion_bandwidth(7, 10.0) == math.ceil(4 * 49 / 10) * 64


class TestCompletedCoprimeSum:
    def test_q1_pure_poisson(self):
        res = completed_coprime_sum(SmoothCutoff(), 500.0, 1)
        assert abs(res.lhs - res.main) < 1e-8
        assert res.error_bound == math.log(1000.0) ** 2

    def test_large_prime_counts_everything(self):
        # q a prime beyond the window: all m are coprime
        psi = SmoothCutoff()
        m_scale = 100.0
        res = completed_coprime_sum(psi, m_scale, 1009)
        all_m = fsum(psi(m / m_scale) for m in psi.window(m_scale))
        assert res.lhs == all_m

    @pytest.mark.parametrize("q", [0, -3])
    def test_validation(self, q):
        with pytest.raises(ValueError, match="q must be positive"):
            completed_coprime_sum(SmoothCutoff(), 100.0, q)

    @pytest.mark.parametrize("m_scale", [0.5, 0.4])
    def test_m_scale_at_most_half_rejected(self, m_scale):
        # the error bound tau(q) (log 2M)^2 is 0 at M = 1/2, where the observed
        # constant divided by zero, and below 1/2 the log is negative
        with pytest.raises(ValueError, match="m_scale must exceed 1/2"):
            completed_coprime_sum(SmoothCutoff(), m_scale, 3)


class TestRhsDispersion:
    def test_unit_point_hand_arithmetic(self):
        # oracle: ||alpha|| * (0 + 1 + 1 + (1 + 1))^(1/2) = 2
        rep = rhs_dispersion(1, 1, 1, 1, alpha_l2=1.0, Estar=0.0)
        assert rep.total == 2.0

    def test_zero_alpha_norm(self):
        assert rhs_dispersion(8, 4, 16, 2, alpha_l2=0.0, Estar=5.0).total == 0.0

    @pytest.mark.parametrize("size", ["M", "N", "Q", "D", "X"])
    def test_validation(self, size):
        sizes = {"M": 8, "N": 4, "Q": 16, "D": 2, "X": 64} | {size: 0}
        with pytest.raises(ValueError, match="sizes must be positive"):
            rhs_dispersion(**sizes, alpha_l2=1.0, Estar=0.0)

    def test_golden_points(self):
        for args, want in DISP_GOLDEN:
            assert math.isclose(rhs_dispersion(*args).total, want, rel_tol=1e-12)

    def test_golden_points_exact(self):
        # every term, meta entry, flag and total to the last bit (the goldens
        # above check only the total, at 1e-12)
        exact = [
            ((0.0, 1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0), ("N<=D^10", "D>=N^10"), 2.0),
            ((1.5, 1064.674069340076, 376.41912709192206, 34159.518051241874, 18951.17920510422),
             (40622.741911600715, 45073.75429680313, 0.8408964152537147, 0.42044820762685703),
             ("N<=D^10",), 350.3496874820223),
            ((240.0, 238585.41497152788, 238585.41497152788, 3448488.241248215, 1800364.7389863867),
             (4598632.978267702, 9023198.230526738, 0.7498942093324559, 0.19952623149688783),
             ("N<=D^10",), 1675.0729139315256),
            ((0.0, 32768.0, 23170.475005920787, 11062818959.727777, 4899542852.11831),
             (15645188610.92524, 34122398318.440784, 0.7071067811865475, 0.14358729437462922),
             ("N<=D^10",), 126342.46218243925),
            ((1800.0, 4639028.6972899325, 6560577.299945413, 47051492004.60566, 16591318389.006586),
             (71980284078.92896, 182275962188.8613, 0.6536719409583327, 0.09102307396855681),
             ("N<=D^10",), 504594.93378197716),
        ]
        meta_keys = ("old_term4", "old_term5", "ratio_term4", "ratio_term5")
        for args, (terms, meta, flags, total) in zip(DISP_PTS, exact, strict=True):
            rep = rhs_dispersion(*args)
            assert rep.terms == tuple((f"term{i}", v) for i, v in enumerate(terms, start=1))
            assert rep.meta == dict(zip(meta_keys, meta))
            assert rep.flags == flags and rep.total == total

    def test_tail_ratio_at_N_eq_Q(self):
        n = 7.0
        rep = rhs_dispersion(64, n, n, 1, 1.0, 0.0)
        assert math.isclose(rep.meta["ratio_term4"], n ** (-1 / 8), rel_tol=1e-12)
        # the second-term ratio carries the extra M^(-3/20) factor
        assert math.isclose(rep.meta["ratio_term5"], 64 ** (-3 / 20) * n ** (-2 / 5),
                            rel_tol=1e-12)

    def test_exact_tail_savings(self):
        # N-exponent savings of the tail terms at N = Q, where the Q and N exponents merge
        e = DISPERSION_TAIL_EXPONENTS
        s4, s5 = ((e[f"new_{t}"]["Q"] + e[f"new_{t}"]["N"]) - (e[f"old_{t}"]["Q"] + e[f"old_{t}"]["N"])
                  for t in ("term4", "term5"))
        assert s4 == Fraction(-1, 8)
        assert s5 == Fraction(-2, 5)
        assert DISPERSION_TAIL_EXPONENTS["new_term5"]["M"] == Fraction(3, 20)
        assert DISPERSION_TAIL_EXPONENTS["old_term5"]["M"] == Fraction(3, 10)
        assert DISPERSION_TAIL_EXPONENTS is bounds.DISPERSION_TAIL_EXPONENTS

    def test_hypothesis_flags(self):
        rep = rhs_dispersion(8, 4, 16, 2, 1.0, 0.0)
        assert "N<=D^10" in rep.flags and "D>=N^10" not in rep.flags
        rep = rhs_dispersion(8, 4, 16, 1.1, 1.0, 0.0)
        assert rep.flags == ()
