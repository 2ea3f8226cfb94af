import math
import random
import warnings
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath as mp

from golden_oracle import kloosterman_phase, phase_80, phase_rule
from klab import arith, checks
from klab.arith import (
    NonInvertible,
    batch_mod_inverse,
    divisor_count,
    euler_phi,
    factorize,
    is_squarefree,
    is_squarefull,
    mod_inverse,
    moebius,
    radical,
    squarefree_squarefull_split,
    tau_k,
    unit_phase_tables,
    unit_phases,
)


# independent oracle: extended euclid, no pow(-1)
def xgcd_inverse(a, m):
    old_r, r = a % m, m
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r != 1 and m != 1:
        return None
    return old_s % m


# independent oracle: count ordered k-tuples with product n by recursion over divisors
def tau_k_brute(n, k):
    if k == 1:
        return 1
    return sum(tau_k_brute(n // d, k - 1) for d in range(1, n + 1) if n % d == 0)


class TestModInverse:
    def test_identity(self):
        assert mod_inverse(1, 7) == 1

    def test_three_mod_seven(self):
        assert mod_inverse(3, 7) == 5

    def test_non_invertible(self):
        with pytest.raises(NonInvertible):
            mod_inverse(2, 4)

    def test_modulus_one(self):
        assert mod_inverse(5, 1) == 0

    def test_plain_int_and_bad_modulus(self):
        assert type(mod_inverse(3, 7)) is int
        with pytest.raises(ValueError):
            mod_inverse(1, 0)

    def test_negative_value_normalized(self):
        r = mod_inverse(-1, 7)
        assert r == 6 and (-1 * r) % 7 == 1

    @given(st.integers(min_value=2, max_value=10**12), st.integers(min_value=1, max_value=10**12))
    def test_inverse_identity_property(self, m, a):
        if gcd(a, m) != 1:
            with pytest.raises(NonInvertible):
                mod_inverse(a, m)
        else:
            assert a * mod_inverse(a, m) % m == 1


class TestBatchModInverse:
    def test_single(self):
        assert batch_mod_inverse([1], 5) == [1]

    def test_example(self):
        # oracle: elementwise extended-gcd inversion
        vals = [2, 3, 4]
        assert batch_mod_inverse(vals, 5) == [xgcd_inverse(v, 5) for v in vals]
        assert batch_mod_inverse(vals, 5) == [3, 2, 4]

    def test_first_offending_index(self):
        with pytest.raises(NonInvertible) as exc:
            batch_mod_inverse([2, 5], 10)
        assert exc.value.index == 0

    def test_offending_index_later(self):
        with pytest.raises(NonInvertible) as exc:
            batch_mod_inverse([3, 7, 4, 9], 10)
        assert exc.value.index == 2

    def test_empty(self):
        assert batch_mod_inverse([], 7) == []

    @given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=40),
           st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=200)
    def test_matches_scalar(self, vals, m):
        coprime = [v for v in vals if gcd(v, m) == 1]
        assert batch_mod_inverse(coprime, m) == [xgcd_inverse(v, m) for v in coprime]

    def test_per_value_moduli_match_pow(self):
        rng = random.Random(11)
        for _ in range(300):
            size = rng.randrange(1, 60)
            mods = [rng.choice((1, 2, rng.randrange(1, 100), rng.randrange(1, 2**61))) for _ in range(size)]
            vals = [rng.choice((rng.randrange(-50, 50), rng.randrange(-2**62, 2**62))) for _ in range(size)]
            coprime = [(v, m) for v, m in zip(vals, mods) if gcd(v, m) == 1]
            vals, mods = [v for v, _ in coprime], [m for _, m in coprime]
            want = [pow(v, -1, m) for v, m in coprime]
            assert batch_mod_inverse(vals, mods) == want
            got = batch_mod_inverse(np.asarray(vals, dtype=np.int64), np.asarray(mods, dtype=np.int64))
            assert got.dtype == np.int64 and got.tolist() == want

    @pytest.mark.parametrize("vals,mods,dtype", (
        ([2**64 + 1, -(2**70) - 1, 5], [7, 11, 13], object),  # values past int64
        ([3, 5, -7], [2**62 + 1, 2**62, 2**100 + 3], object),  # moduli past the Euclid guard
        ([2**63 - 1, 5], 2**62 - 1, np.int64),  # largest int64 value, largest vectorised modulus
    ))
    def test_beyond_int64_guard(self, vals, mods, dtype):
        per_value = mods if isinstance(mods, list) else [mods] * len(vals)
        want = [pow(v, -1, m) for v, m in zip(vals, per_value)]
        got = batch_mod_inverse(vals, mods)
        assert got == want and all(type(x) is int for x in got)
        got = batch_mod_inverse(np.asarray(vals), np.asarray(mods))
        assert got.dtype == dtype and got.tolist() == want

    @pytest.mark.parametrize("as_array", (False, True))
    def test_per_value_first_offending_index(self, as_array):
        vals, mods = [3, 4, 6, 9, 10], [10, 9, 9, 9, 4]
        if as_array:
            vals, mods = np.asarray(vals), np.asarray(mods)
        with pytest.raises(NonInvertible) as exc:
            batch_mod_inverse(vals, mods)
        assert (exc.value.index, exc.value.value, exc.value.modulus) == (2, 6, 9)
        with pytest.raises(NonInvertible) as exc:
            batch_mod_inverse([1, 2**64 + 2, 4], [5, 4, 3])
        assert (exc.value.index, exc.value.value, exc.value.modulus) == (1, 2**64 + 2, 4)

    def test_integers_pick_the_algorithm(self, monkeypatch):
        # a list that fits int64 takes the Euclid, as an array does; big integers take pow
        import klab.arith as arith

        euclid, lanes = arith._euclid, []
        monkeypatch.setattr(arith, "_euclid", lambda v, m: lanes.append(len(m)) or euclid(v, m))
        assert batch_mod_inverse([2, 3, 4], 5) == [3, 2, 4]
        assert batch_mod_inverse([2**64 + 1, 3], 7) == [pow(2**64 + 1, -1, 7), 5]
        assert lanes == [3]

    def test_list_moduli_past_int64(self):
        # numpy reads this list of moduli as floats; pow still gets the integers
        assert batch_mod_inverse([3, 5], [2**63, 7]) == [pow(3, -1, 2**63), 3]

    def test_bad_moduli(self):
        with pytest.raises(ValueError, match="positive"):
            batch_mod_inverse([1, 2], [3, 0])
        with pytest.raises(ValueError, match="positive"):
            batch_mod_inverse([], -1)


def euclid_steps(v, m):
    """The reference extended Euclid from (m, v): its division steps, gcd and
    coefficient x of v, the integers the lane-wise Euclid must give."""
    r0, r1, s0, s1, steps = m, v, 0, 1, 0
    while r1:
        q = r0 // r1
        r0, r1, s0, s1, steps = r1, r0 - q * r1, s1, s0 - q * s1, steps + 1
    return steps, r0, s0


class TestLazyEuclid:
    """``_euclid`` drops finished lanes every four steps: a lane that ends
    between checks alternates (g, 0) and (0, g), and must still give the
    reference g and x."""

    @staticmethod
    def lanes_by_steps():
        # 0 to 11 division steps: every step modulo the check interval of 4, at both parities
        by_steps = {}
        for m in range(1, 300):
            for v in range(m):
                by_steps.setdefault(euclid_steps(v, m)[0], []).append((v, m))
        assert set(by_steps) == set(range(12))
        return {k: lanes[::max(1, len(lanes) // 40)] for k, lanes in by_steps.items()}

    @staticmethod
    def check(lanes):
        v, m = (np.asarray(col, dtype=np.int64) for col in zip(*lanes))
        want = [euclid_steps(int(a), int(b))[1:] for a, b in lanes]
        errors = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dtype in (np.int64, np.int32):
                g, x = arith._euclid(v.astype(dtype), m.astype(dtype))
                assert g.dtype == x.dtype == dtype
                assert list(zip(g.tolist(), x.tolist())) == want
            units = [(a, b) for a, b in lanes if gcd(a, b) == 1]
            if units:
                vals, mods = (np.asarray(col, dtype=np.int64) for col in zip(*units))
                got = batch_mod_inverse(vals, mods)
                assert got.dtype == np.int64 and got.tolist() == [pow(a, -1, b) for a, b in units]
        # the division by a finished lane's zero leaves numpy's error state as it was
        assert np.geterr() == errors

    def test_lanes_finish_at_every_step(self):
        by_steps = self.lanes_by_steps()
        mixed = [lane for lanes in by_steps.values() for lane in lanes]
        random.Random(5).shuffle(mixed)
        self.check(mixed)
        # a batch whose lanes all finish at one step, those below 4 before the first check
        for lanes in by_steps.values():
            self.check(lanes)

    @pytest.mark.parametrize("lanes", (
        [(0, 1)], [(0, 7)], [(5, 8)], [(0, 1), (0, 2), (0, 9)],  # one lane, v = 0, m = 1
        [(0, 1)] * 5 + [(34, 55), (0, 6), (1, 2)],  # m = 1 and v = 0 beside a Fibonacci pair's 9 steps
        [(2**61 - 3, 2**62 - 1), (1, 2**62 - 1), (0, 2**62 - 1)],  # the largest int64 modulus
    ))
    def test_edge_lanes(self, lanes):
        if max(m for _, m in lanes) < 2**31:
            self.check(lanes)
            return
        v, m = (np.asarray(col, dtype=np.int64) for col in zip(*lanes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g, x = arith._euclid(v, m)
        assert list(zip(g.tolist(), x.tolist())) == [euclid_steps(a, b)[1:] for a, b in lanes]


class TestUnitInverses:
    """The one rule for the inverses of the units mod a single modulus."""

    @staticmethod
    def units(q):
        return np.asarray([u for u in range(q) if gcd(u, q) == 1], dtype=np.int64)

    def test_every_unit_below_600(self):
        for q in range(1, 601):
            units = self.units(q)
            got = arith._unit_inverses(units, q, factorize(q))
            assert got.dtype == np.int64
            # q = 1 has the one unit 0, whose inverse is 0, not 1
            assert got.tolist() == [pow(int(u), -1, q) for u in units]
            assert ((0 <= got) & (got < q)).all()

    def test_moduli_past_int64_squares(self):
        # q * q leaves int64 from q = 2**31 on: batch_mod_inverse, on Python
        # integers; the prime 2**61 - 1 takes its factors as given, not by trial division
        for q in (2**31 + 11, 2**32 + 15, 3 * 2**40 + 1, 2**61 - 1):
            units = np.asarray([u for u in (1, 2, 3, 5, 7, 10**9 + 7, q - 2, q - 1) if gcd(u, q) == 1])
            got = arith._unit_inverses(units, q, {q: 1} if q == 2**61 - 1 else factorize(q))
            assert got.dtype == object
            assert got.tolist() == [pow(int(u), -1, q) for u in units]
            assert all(0 <= x < q for x in got)

    def test_leaves_the_callers_array(self):
        # the powers square and multiply in place, on a copy of the units
        for q in (1, 7, 12, 600, 2**31 - 1):
            units = self.units(q) if q <= 600 else np.asarray([1, 2, 3, q - 1], dtype=np.int64)
            kept = units.copy()
            got = arith._unit_inverses(units, q, factorize(q))
            assert np.array_equal(units, kept) and got is not units
            assert got.tolist() == [pow(int(u), -1, q) for u in kept]
        # q = 1 still maps its one unit 0 to 0
        assert arith._unit_inverses(np.zeros(1, dtype=np.int64), 1, {}).tolist() == [0]

    def test_unit_mask(self):
        # the primes of q strike their multiples: the gcd mask, q = 1 included
        for q in range(1, 301):
            mask = arith._unit_mask(q, factorize(q))
            assert mask.dtype == bool
            assert np.array_equal(mask, np.gcd(np.arange(q), q) == 1), q

    def test_carmichael_exponent(self):
        # the least e with u^e = 1 mod q for every unit u
        for q in range(1, 301):
            want = next(e for e in range(1, q + 1) if all(pow(int(u), e, q) == 1 % q for u in self.units(q)))
            assert arith._carmichael(factorize(q)) == want
        # at 2^k and 2^k times an odd part: phi(2^k) / 2 for k >= 3
        assert [arith._carmichael(factorize(q)) for q in (8, 16, 24, 48)] == [2, 4, 2, 4]
        assert [euler_phi(q) for q in (8, 16, 24, 48)] == [4, 8, 8, 16]


class TestSplit:
    def test_one(self):
        s = squarefree_squarefull_split(1)
        assert (s.squarefree_part, s.squarefull_part) == (1, 1)

    def test_twelve(self):
        # oracle: 12 = 2^2 * 3
        s = squarefree_squarefull_split(12)
        assert (s.squarefree_part, s.squarefull_part) == (3, 4)

    def test_seventy_two(self):
        # oracle: 72 = 2^3 * 3^2, both exponents >= 2
        s = squarefree_squarefull_split(72)
        assert (s.squarefree_part, s.squarefull_part) == (1, 72)

    def test_recombination_to_1e6(self):
        # bulk check via a smallest-prime-factor sieve (fast factorizations)
        limit = 10**6
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for k in range(p * p, limit + 1, p):
                    if spf[k] == k:
                        spf[k] = p
        for n in range(1, limit + 1):
            m = n
            sf = full = 1
            while m > 1:
                p = spf[m]
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                if e == 1:
                    sf *= p
                else:
                    full *= p**e
            s = squarefree_squarefull_split(n) if n < 1000 else None
            if s is not None:
                assert (s.squarefree_part, s.squarefull_part) == (sf, full)
            assert sf * full == n and gcd(sf, full) == 1

    def test_recombines_to_1e5(self):
        result = checks.split_recombines()
        assert result.passed, result.detail

    def test_uniqueness_pair_scan_1e4(self):
        result = checks.split_unique_pairs()
        assert result.passed, result.detail

    @given(st.integers(min_value=1, max_value=10**9))
    def test_parts_properties(self, n):
        s = squarefree_squarefull_split(n)
        assert s.product == n
        assert gcd(s.squarefree_part, s.squarefull_part) == 1
        assert is_squarefree(s.squarefree_part)
        assert is_squarefull(s.squarefull_part)


class TestTauK:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_one(self, k):
        assert tau_k(1, k) == 1

    def test_six_two(self):
        # oracle: divisors of 6 are 1,2,3,6
        assert tau_k(6, 2) == tau_k_brute(6, 2) == 4

    def test_four_three(self):
        # oracle: (1,1,4)x3 perms, (1,2,2)x3 perms
        assert tau_k(4, 3) == tau_k_brute(4, 3) == 6

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=4))
    @settings(max_examples=120)
    def test_against_brute_force(self, n, k):
        assert tau_k(n, k) == tau_k_brute(n, k)

    def test_divisor_count(self):
        assert divisor_count(12) == 6

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be positive"):
            tau_k(6, k)


class TestMultiplicative:
    def test_moebius_values(self):
        assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]

    def test_phi_values(self):
        assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]

    def test_radical(self):
        assert radical(1) == 1 and radical(12) == 6 and radical(49) == 7

    def test_factorize(self):
        assert factorize(360) == {2: 3, 3: 2, 5: 1}
        with pytest.raises(ValueError):
            factorize(0)


class TestReciprocity:
    def test_coprime_pairs_up_to_200(self):
        result = checks.reciprocity()
        assert result.passed, result.detail


class TestKloostermanPhase:
    def test_zero_numerator(self):
        assert kloosterman_phase(1, 0, 5, 3, 2) == 1 + 0j

    def test_example_one_third(self):
        # oracle: inv(2 mod 3) = 2, so the reduced fraction is 4/3 = 1/3 mod 1
        got = kloosterman_phase(1, 2, 2, 3, 1)
        want = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        assert abs(got - want) < 1e-12

    def test_example_three_eighths(self):
        # oracle: inv(3 mod 8) = 3, fraction 3/8
        got = kloosterman_phase(1, 1, 3, 4, 2)
        want = complex(math.cos(2 * math.pi * 3 / 8), math.sin(2 * math.pi * 3 / 8))
        assert abs(got - want) < 1e-12

    def test_non_invertible(self):
        with pytest.raises(ValueError):
            kloosterman_phase(1, 1, 2, 3, 2)

    @given(st.integers(-50, 50).filter(bool), st.integers(-100, 100),
           st.integers(1, 500), st.integers(1, 60), st.integers(1, 8))
    @settings(max_examples=300)
    def test_unit_modulus(self, theta, a, m, n, R):
        if gcd(m, n * R) != 1:
            return
        assert abs(abs(kloosterman_phase(theta, a, m, n, R)) - 1) < 1e-12


def sample_ks(L, count=400):
    """Every k in [0, L) for small L; otherwise the octant edges jL/8 and
    their neighbours, the ends, and ``count`` evenly spread k's."""
    if L <= 8192:
        return list(range(L))
    edges = {j * L // 8 + d for j in range(9) for d in (-1, 0, 1)}
    return sorted({k for k in edges | {(i * (L - 1)) // count for i in range(count + 1)} if 0 <= k < L})


RULE_MODULI = (1, 2, 3, 5, 7, 8, 12, 20, 63, 101, 1031, 4099, 16, 64, 1024, 4104, 8192,
               2**50 - 1, 2**50, 2**50 + 3, 2**53 - 1, 2**53, 2**53 + 1, 2**55 + 8, 2**70 + 1)


class TestUnitPhases:
    @pytest.mark.parametrize("L", RULE_MODULI)
    def test_bits_of_the_python_oracle(self, L):
        # the rule on int64 (float64 quotients up to 2**53, Python ones past
        # it) and on Python integers gives the oracle's bits at every k
        ks = sample_ks(L)
        want = np.array([phase_rule(k, L) for k in ks]).tobytes()
        assert unit_phases(np.array(ks, dtype=object), L).tobytes() == want
        if L < 2**62:
            assert unit_phases(np.array(ks, dtype=np.int64), L).tobytes() == want

    @pytest.mark.parametrize("Ls", ([1], [8], [3, 16, 5, 1024, 12, 8, 1031], [4104, 63, 40, 2, 96]))
    def test_tables_have_the_bits_of_the_rule(self, Ls):
        # one table per modulus, in the given order, filled by octants in
        # place at a top T with 8 | T and read at a stride from a top's fill
        # otherwise: the rule's bits at every entry
        want = np.concatenate([unit_phases(np.arange(L), L) for L in Ls])
        buffer, begin = unit_phase_tables(Ls)
        assert begin == {L: sum(Ls[:i]) for i, L in enumerate(Ls)}
        assert buffer.tobytes() == want.tobytes()

    @pytest.mark.parametrize("Ls", (
        range(1, 301), [3, 6, 12], [5, 10, 20], [6, 12, 24, 48], [7, 14, 28, 1], [1, 2, 4, 8, 16], [9, 18, 36, 72, 3],
    ))
    def test_tables_of_chains_have_the_oracle_bits(self, Ls):
        # each L is filled at lcm(L, 8) whatever else is in Ls (3 and 6 at
        # 24, read at strides 8 and 4), and every entry has the oracle's bits
        buffer, begin = unit_phase_tables(Ls)
        assert buffer.size == sum(Ls)
        for L in Ls:
            want = np.array([phase_rule(k, L) for k in range(L)]).tobytes()
            assert buffer[begin[L]:begin[L] + L].tobytes() == want, L

    @pytest.mark.parametrize("Ls", (range(1, 301), [3, 6, 12], [1032, 2064, 4128], [7, 9, 14, 16, 32, 1000], [3, 5]))
    def test_tables_evaluate_each_modulus_once(self, monkeypatch, Ls):
        # one polynomial pass over S/8 + 1 values for each L, at S = lcm(L,
        # 8), chains included: a caller that wants a chain's divisors reads
        # them from its top's table at a stride
        sizes = []

        def spy(t):
            sizes.append(len(t))
            return cos_sin_2pi(t)

        cos_sin_2pi = arith._cos_sin_2pi
        monkeypatch.setattr(arith, "_cos_sin_2pi", spy)
        unit_phase_tables(Ls)
        assert sizes == [sum(L * 8 // gcd(L, 8) // 8 + 1 for L in Ls)]

    @pytest.mark.parametrize("L", (1, 8, 12, 1031, 2**50 + 3, 2**53 + 1, 2**70 + 1))
    def test_scalar_k(self, L):
        # a Python integer, a numpy integer or a 0-d array k, against one
        # modulus, gives a 0-d value with the oracle's bits
        for k in sorted({0, 3 % L, L // 3, L // 8, L - 1}):
            want = np.array(phase_rule(k, L)).tobytes()
            ks = (k, np.array(k), np.int64(k)) if L < 2**62 else (k, np.array(k))
            for x in ks:
                got = unit_phases(x, L)
                assert got.shape == () and got.tobytes() == want, (type(x), k)

    def test_one_modulus_per_column(self):
        Ls = np.array([3, 8, 12, 2**52 + 1, 2**54 + 3])
        k = np.array([[0, 7, 11, 2**52, 2**54 + 2], [2, 3, 9, 5, 2**53]])
        got = unit_phases(k, Ls)
        assert got.shape == k.shape
        want = [[phase_rule(int(x), int(L)) for x, L in zip(row, Ls)] for row in k]
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("L", (4, 12, 40, 2**50))
    def test_exact_at_quarter_turns(self, L):
        got = unit_phases(np.arange(4) * (L // 4), L).tolist()
        assert got == [1, 1j, -1, -1j]
        assert [math.copysign(1.0, z.imag if k % 2 == 0 else z.real) for k, z in enumerate(got)] == [1.0] * 4

    @pytest.mark.parametrize("L", (3, 12, 1031, 1032, 2**50 + 3))
    def test_symmetries(self, L):
        # k and L - k conjugate (except at the odd eighths, where cos and sin
        # of pi/4 come from different polynomials); k and 2k mod 2L equal
        ks = np.array(sample_ks(L)[1:], dtype=np.int64)
        ks = ks[8 * ks % L != 0]
        assert unit_phases(L - ks, L).tobytes() == np.conj(unit_phases(ks, L)).tobytes()
        assert unit_phases(2 * ks, 2 * L).tobytes() == unit_phases(ks, L).tobytes()

    def test_accuracy_against_mpmath(self):
        # max |e(k / L) - rule| against an 80-bit reference over the tested L;
        # libm's exp of the rounded angle 2 pi fl(k / L), the parent's rule,
        # is the comparison
        worst = {"rule": 0.0, "libm": 0.0}
        for L in (3, 5, 7, 12, 63, 101, 1024, 1031, 4104, 2**50 + 3, 2**53 + 1):
            ks = sample_ks(L) if L <= 4104 else sample_ks(L, 2000)
            ref = [phase_80(k, L) for k in ks]
            values = {"rule": unit_phases(np.array(ks, dtype=object), L),
                      "libm": np.exp(2j * np.pi * (np.array(ks, dtype=object) / L).astype(float))}
            with mp.workprec(80):
                for name, got in values.items():
                    err = max(abs(w - mp.mpc(z)) for w, z in zip(ref, got.tolist()))
                    worst[name] = max(worst[name], float(err))
        print(f"[accuracy] max |error| of e(k / L): rule {worst['rule']:.3g}, libm {worst['libm']:.3g}")
        assert worst["rule"] <= 2.5e-16
        assert worst["rule"] <= worst["libm"]
