import math
import random
import sys
from math import fsum, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_oracle import phase_rule
from klab.arith import euler_phi, moebius
from klab.sequences import (
    CoefficientSequence,
    DivisorBoundViolation,
    DyadicRange,
    EmptySupport,
    NotCoprime,
    build_sequence,
    make_sequence,
    sw_discrepancy,
)


class TestDyadicRange:
    def test_half_open_default(self):
        assert list(DyadicRange(2)) == [3, 4]

    def test_contains(self):
        r = DyadicRange(8)
        assert 9 in r and 16 in r and 8 not in r and 17 not in r

    def test_invalid(self):
        with pytest.raises(ValueError):
            DyadicRange(0)


class TestBuildSequence:
    def test_ones(self):
        s = build_sequence("ones", DyadicRange(2))
        assert s.values == {3: 1 + 0j, 4: 1 + 0j}
        assert math.isclose(s.l2_norm, math.sqrt(2))
        assert s.divisor_bound_k == 1

    def test_moebius_from_trial_factorization(self):
        # oracle: mu from trial factorization over (4, 8]
        s = build_sequence("moebius", DyadicRange(4))
        assert s.values == {n: complex(moebius(n)) for n in (5, 6, 7, 8)}
        assert s.values[8] == 0

    def test_tau_k(self):
        s = build_sequence("tau_k", DyadicRange(2), k=2)
        assert s.values == {3: 2 + 0j, 4: 3 + 0j}
        assert s.divisor_bound_k == 2

    def test_random_unit_single_element(self):
        s = build_sequence("random_unit", DyadicRange(1), seed=7)
        (v,) = s.values.values()
        assert math.isclose(abs(v), 1.0, abs_tol=1e-12)
        assert math.isclose(s.l2_norm, 1.0, abs_tol=1e-12)

    def test_random_unit_reproducible_and_normalized(self):
        s1 = build_sequence("random_unit", DyadicRange(16), seed=99)
        s2 = build_sequence("random_unit", DyadicRange(16), seed=99)
        assert s1.values == s2.values
        assert math.isclose(s1.l2_norm, 1.0, abs_tol=1e-12)

    @pytest.mark.parametrize("base", (1, 64, 128, 4096))
    @pytest.mark.parametrize("seed", (0, 1, 7))
    def test_random_unit_takes_the_phase_rule(self, base, seed):
        # each draw u = k / 2**53 gives the oracle's e(k / 2**53) times
        # 1/sqrt(size), bit for bit, so no libm moves the values
        s = build_sequence("random_unit", DyadicRange(base), seed=seed)
        rng = random.Random(seed)
        scale = 1.0 / math.sqrt(base)
        want = [phase_rule(int(rng.random() * 2**53), 2**53) * scale for _ in range(base)]
        assert np.array([s.values[n] for n in DyadicRange(base)]).tobytes() == np.array(want).tobytes()

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            build_sequence("ones", set())
        with pytest.raises(EmptySupport):
            make_sequence({})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_sequence("primes", DyadicRange(2))

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="requires k"):
            build_sequence("tau_k", DyadicRange(2))
        with pytest.raises(ValueError, match="requires seed"):
            build_sequence("random_unit", DyadicRange(2))

    def test_divisor_bound_enforced(self):
        with pytest.raises(DivisorBoundViolation):
            make_sequence({5: 2 + 0j}, divisor_bound_k=1)
        with pytest.raises(ValueError, match="divisor_bound_k"):
            make_sequence({5: 1 + 0j}, divisor_bound_k=0)

    def test_value_outside_support_rejected(self):
        with pytest.raises(ValueError):
            make_sequence({9: 1 + 0j}, support=DyadicRange(2))


class TestNonzeroView:
    @staticmethod
    def ascending_nonzero(s):
        # reference: the values map's nonzero entries sorted afresh
        return [(n, v) for n, v in sorted(s.values.items()) if v != 0]

    def test_moebius_drops_its_zeros(self):
        s = build_sequence("moebius", DyadicRange(16))
        want = self.ascending_nonzero(s)
        assert 0j in s.values.values() and len(want) < len(s.values)
        assert s.indices == tuple(n for n, _ in want)
        assert all(type(n) is int for n in s.indices)
        assert s.coeffs.dtype == complex and s.coeffs.tolist() == [v for _, v in want]
        assert s.nonzero_items() == want

    def test_explicit_support_and_signed_zeros(self):
        vals = {9: 2 - 1j, 3: complex(-0.0, 0.0), 5: complex(-0.0, 1.0), -4: 0.5 + 0j, 7: 0j}
        s = make_sequence(vals, support={-4, 1, 3, 5, 7, 9, 12})
        assert s.indices == (-4, 5, 9)
        got = s.coeffs.tolist()
        assert got == [0.5 + 0j, complex(-0.0, 1.0), 2 - 1j]
        assert math.copysign(1.0, got[1].real) == -1.0  # kept as given, signed zero included
        assert s.nonzero_items() == self.ascending_nonzero(s)

    def test_read_only_equal_and_five_arguments(self):
        s = build_sequence("random_unit", DyadicRange(8), seed=5)
        with pytest.raises(ValueError):
            s.coeffs[0] = 0j
        t = build_sequence("random_unit", DyadicRange(8), seed=5)
        assert s == t and s.coeffs is not t.coeffs
        assert s != build_sequence("random_unit", DyadicRange(8), seed=6)
        args = (s.support, s.values, s.l1_norm, s.l2_norm, s.divisor_bound_k)
        assert CoefficientSequence(*args) == s
        with pytest.raises(TypeError):
            CoefficientSequence(*args, s.indices)
        with pytest.raises(TypeError):
            CoefficientSequence(*args, indices=s.indices)


class TestNorms:
    @staticmethod
    def recomputed(vals):
        # reference: the l1 and l2 norms summed afresh from the input values
        mags = [abs(v) for v in vals.values()]
        return fsum(mags), math.sqrt(fsum(x**2 for x in mags))

    def test_ones_norms(self):
        s = build_sequence("ones", DyadicRange(2))
        assert math.isclose(s.l1_norm, 2.0) and math.isclose(s.l2_norm, math.sqrt(2))

    def test_explicit_single(self):
        s = make_sequence({1: 3 + 4j})
        assert math.isclose(s.l1_norm, 5.0) and math.isclose(s.l2_norm, 5.0)

    def test_tau2_l1(self):
        # oracle: divisor counts tau(3) + tau(4) = 2 + 3
        s = build_sequence("tau_k", DyadicRange(2), k=2)
        assert math.isclose(s.l1_norm, 5.0)

    @given(st.integers(0, 2**31), st.integers(2, 40))
    @settings(max_examples=150)
    def test_cached_norms_match_recomputation(self, seed, size):
        rng = random.Random(seed)
        vals = {i: complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for i in range(1, size)}
        s = make_sequence(vals)
        l1, l2 = self.recomputed(vals)
        assert abs(s.l1_norm - l1) <= 1e-12 * (1 + l1)
        assert abs(s.l2_norm - l2) <= 1e-12 * (1 + l2)

    def test_norm_past_the_square_range(self):
        # squares past float range: |v| = 1e200 squared overflows and 1e-200
        # squared underflows, but the norms are finite, nonzero floats
        s = make_sequence({1: 1e200})
        assert (s.l1_norm, s.l2_norm) == (1e200, 1e200)
        s = make_sequence({1: 3e200, 2: 4e200j})
        assert math.isclose(s.l2_norm, 5e200, rel_tol=1e-15)
        s = make_sequence({1: 1e-200, 2: 3e-200})
        assert s.l1_norm == 4e-200
        assert math.isclose(s.l2_norm, math.sqrt(10) * 1e-200, rel_tol=1e-15)
        # each square is finite, but their sum is not
        s = make_sequence({n: 6e153 for n in range(1, 6)})
        assert math.isclose(s.l2_norm, math.sqrt(5) * 6e153, rel_tol=1e-15)

    def test_l1_past_the_float_range(self):
        # each |v| and the l2 norm are finite, but the exact l1 sum rounds
        # past the largest float: l1 is inf, and l2 keeps the bits that a
        # power-of-two scaling gives; a sum that just reaches the largest
        # float keeps fsum's value
        s = make_sequence({1: 1e308, 2: 1e308})
        assert s.l1_norm == math.inf
        down = make_sequence({1: math.ldexp(1e308, -600), 2: math.ldexp(1e308, -600)})
        assert s.l2_norm == math.ldexp(down.l2_norm, 600) == math.hypot(1e308, 1e308)
        top = sys.float_info.max
        s = make_sequence({1: top / 2, 2: top / 2})
        assert s.l1_norm == fsum([top / 2, top / 2]) == top
        assert s.l2_norm == math.ldexp(make_sequence({1: top / 2**601, 2: top / 2**601}).l2_norm, 600)
        s = make_sequence({1: top, 2: 1e-300, 3: -1e-300})
        assert s.l1_norm == top

    @given(st.lists(st.complex_numbers(max_magnitude=1e150, allow_subnormal=False).filter(
        lambda v: v == 0 or abs(v) >= 2.0**-511), min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_l2_keeps_its_bits_where_the_squares_are_normal(self, values):
        s = make_sequence(dict(enumerate(values, 1)))
        assert s.l2_norm == math.sqrt(fsum(abs(v) ** 2 for v in values))

    @given(st.lists(st.floats(1e150, 1e300), min_size=1, max_size=12), st.integers(-400, 20))
    @settings(max_examples=300)
    def test_l2_scales_by_powers_of_two(self, values, shift):
        # the l2 norm of 2**shift v is 2**shift times that of v, bit for bit,
        # whether or not the squares or their sum pass the float range (the
        # values are within 1e150 of each other, so no square underflows)
        scaled = [math.ldexp(v, shift) for v in values]
        want = math.ldexp(make_sequence(dict(enumerate(values, 1))).l2_norm, shift)
        assert make_sequence(dict(enumerate(scaled, 1))).l2_norm == want

    def test_cached_norms_1000_random_sequences(self):
        rng = random.Random(8128)
        for _ in range(1000):
            size = rng.randrange(1, 12)
            vals = {i: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for i in range(1, size + 1)}
            s = make_sequence(vals)
            l1, l2 = self.recomputed(vals)
            assert abs(s.l1_norm - l1) <= 1e-12 * (1 + l1)
            assert abs(s.l2_norm - l2) <= 1e-12 * (1 + l2)


class TestSwDiscrepancy:
    def test_modulus_one_vanishes(self):
        s = build_sequence("ones", DyadicRange(16))
        assert sw_discrepancy(s, 1, 0) == 0.0

    def test_ones_small_example(self):
        # oracle: direct counting on (10, 20], q=3, a=1: AP {13,16,19},
        # coprime-to-3 count 7, phi(3)=2 -> |3 - 3.5| = 0.5
        s = build_sequence("ones", DyadicRange(10))
        assert math.isclose(sw_discrepancy(s, 3, 1), 0.5)

    def test_moebius_exact_enumeration(self):
        # oracle: brute-force sums over (10, 20], q=4, a=1, r=2
        s = build_sequence("moebius", DyadicRange(10))
        ap = sum(moebius(n) for n in range(11, 21) if n % 4 == 1 and gcd(n, 2) == 1)
        cop = sum(moebius(n) for n in range(11, 21) if gcd(n, 8) == 1)
        want = abs(ap - cop / euler_phi(4))
        assert math.isclose(sw_discrepancy(s, 4, 1, r=2), want)

    def test_not_coprime(self):
        s = build_sequence("ones", DyadicRange(4))
        with pytest.raises(NotCoprime):
            sw_discrepancy(s, 4, 2)

    @pytest.mark.parametrize("q, r", [(0, 1), (4, 0)])
    def test_non_positive_modulus(self, q, r):
        s = build_sequence("ones", DyadicRange(4))
        with pytest.raises(ValueError, match="q and r must be positive"):
            sw_discrepancy(s, q, 1, r=r)

    def test_ones_counting_bound(self):
        # counting argument: discrepancy of the constant sequence is <= 2
        # for every modulus up to 100 once the range base is at least 10
        for base in (10, 23, 64):
            s = build_sequence("ones", DyadicRange(base))
            for q in range(1, 101):
                for a in (1, 2, q - 1, q // 2):
                    if a >= 0 and gcd(a, q) == 1:
                        assert sw_discrepancy(s, q, a) <= 2.0, (base, q, a)

