import ast
import cmath
import itertools
import json
import math
import os
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_oracle import kloosterman_phase
from klab import checks, forms
from klab.arith import (
    _INT64_SAFE,
    batch_mod_inverse,
    is_squarefree,
    is_squarefull,
    radical,
)
from klab.forms import (
    DecompositionMismatch,
    TrilinearSpec,
    _coprime_inner_sums,
    _phase_block,
    complementary_split,
    mean_square_decomposed,
    mean_square_direct,
    squarefree_mean_square,
    trilinear_form,
    trilinear_forms,
)
from klab.sequences import DyadicRange, _csum, build_sequence, make_sequence


def ones(support):
    return build_sequence("ones", support)


def spec_of(alpha, beta, nu, theta=1, R=1):
    return TrilinearSpec(alpha, beta, nu, theta, R)


# independent oracle: naive recomputation with scalar inverses and cmath
def naive_trilinear(spec):
    total = 0j
    count = 0
    for n, bn in spec.beta.values.items():
        for m, am in spec.alpha.values.items():
            L = n * spec.R
            if gcd(m, L) != 1:
                continue
            inv = pow(m, -1, L)
            for a, va in spec.nu.values.items():
                if bn == 0 or am == 0 or va == 0:
                    continue
                total += am * bn * va * cmath.exp(2j * cmath.pi * ((spec.theta * a * inv) % L) / L)
                count += 1
    return total, count


def naive_mean_square(spec):
    total = 0.0
    for m in spec.alpha.support_indices():
        if gcd(m, spec.R) != 1:
            continue
        inner = 0j
        for n, bn in spec.beta.values.items():
            if gcd(m, n) != 1:
                continue
            L = n * spec.R
            inv = pow(m, -1, L)
            for a, va in spec.nu.values.items():
                inner += bn * va * cmath.exp(2j * cmath.pi * ((spec.theta * a * inv) % L) / L)
        total += abs(inner) ** 2
    return total


def naive_cb(spec, b):
    total = 0.0
    for m in spec.alpha.support_indices():
        if gcd(m, b) != 1:
            continue
        inner = 0j
        for n, bn in spec.beta.values.items():
            if not is_squarefree(n) or gcd(m * b, n) != 1:
                continue
            L = n * b
            inv = pow(m, -1, L)
            for a, va in spec.nu.values.items():
                inner += bn * va * cmath.exp(2j * cmath.pi * ((spec.theta * a * inv) % L) / L)
        total += abs(inner) ** 2
    return total


class TestTrilinearForm:
    def test_singletons_hand_reduction(self):
        # oracle: inv(2 mod 3) = 2, phase 2/3
        spec = spec_of(ones({2}), ones({3}), ones({1}))
        res = trilinear_form(spec)
        want = cmath.exp(2j * cmath.pi * 2 / 3)
        assert abs(res.value - want) < 1e-12
        assert res.terms == 1

    def test_zero_nu_empty_sum(self):
        spec = spec_of(ones({2}), ones({3}), make_sequence({1: 0j}))
        res = trilinear_form(spec)
        assert res.value == 0j and res.terms == 0

    def test_coprimality_skips_everything(self):
        # oracle: gcd(2, 3*2) = gcd(2, 4*2) = 2, so no triple survives
        spec = spec_of(ones({2}), ones({3, 4}), ones({1}), R=2)
        res = trilinear_form(spec)
        assert res.value == 0j and res.terms == 0

    def test_against_naive_enumeration(self):
        rng = random.Random(5)
        for _ in range(20):
            alpha = build_sequence("random_unit", DyadicRange(rng.choice((2, 4, 6))), seed=rng.
                                   randrange(1 << 20))
            beta = build_sequence("random_unit", DyadicRange(rng.choice((2, 4, 6))), seed=rng.
                                  randrange(1 << 20))
            nu = build_sequence("random_unit", DyadicRange(rng.choice((1, 2, 3))), seed=rng.
                                randrange(1 << 20))
            spec = spec_of(alpha, beta, nu, theta=rng.choice((1, -1, 3)), R=rng.choice((1, 2, 3)))
            res = trilinear_form(spec)
            want, count = naive_trilinear(spec)
            assert abs(res.value - want) <= 1e-10 * (1 + abs(want))
            assert res.terms == count

    def test_negative_index_past_int64(self):
        # nu at -2**61 beside 1: the int64 guard must take the largest |a|,
        # or t * a wraps and the form comes out wrong
        nu = make_sequence({-(2**61): 1, 1: 1})
        spec = spec_of(ones(DyadicRange(8)), ones(DyadicRange(16)), nu)
        res = trilinear_form(spec)
        want, count = naive_trilinear(spec)
        assert abs(res.value - want) <= 1e-12 * (1 + abs(want))
        assert res.terms == count

    def test_validation(self):
        with pytest.raises(ValueError):
            TrilinearSpec(ones({2}), ones({3}), ones({1}), theta=0)
        with pytest.raises(ValueError):
            TrilinearSpec(ones({2}), ones({3}), ones({1}), theta=1, R=0)

    @pytest.mark.parametrize("n", (0, -3))
    def test_beta_index_below_one(self, n):
        # the modulus nR must be positive, in every evaluator alike
        with pytest.raises(ValueError, match=f"beta indices must be positive, got {n}"):
            spec_of(ones(DyadicRange(8)), make_sequence({n: 1, 5: 1}), ones(DyadicRange(2)), R=2)


@pytest.fixture
def kernel_blocks(monkeypatch):
    """Runs the kernel at one modulus L and returns the shapes that np.exp
    was called on and the (t_vals, a_vals) of each phase block, after
    checking that every block has the per-cell bits."""
    exp = np.exp
    shapes, blocks = [], []
    monkeypatch.setattr(forms.np, "exp", lambda x: shapes.append(np.shape(x)) or exp(x))

    def recording(t_vals, a_vals, L, table=None):
        block = _phase_block(t_vals, a_vals, L, table)
        blocks.append((np.asarray(t_vals).tolist(), list(a_vals), block))
        return block

    monkeypatch.setattr(forms, "_phase_block", recording)

    def run(theta, L, groups):
        shapes.clear()
        blocks.clear()
        list(_coprime_inner_sums(theta, [L], groups))
        for t_vals, a_vals, block in blocks:
            residue = (np.asarray(t_vals, dtype=np.int64)[:, None] * np.asarray(a_vals)[None, :]) % L
            assert np.array_equal(block, exp((2j * np.pi) * (residue / L)))
        return list(shapes), [(t_vals, a_vals) for t_vals, a_vals, _ in blocks]

    return run


class TestPhaseBlock:
    def test_big_integer_fallback(self):
        # nu supported near 2**61: L * max(a) >= 2**62 takes the exact
        # Python-integer branch instead of the int64 kernel
        theta, n, R = -3, 7, 3
        L = n * R
        ms = [m for m in range(2, 40) if gcd(m, L) == 1]
        a_vals = [2**61 + 5, 2**61 + 12]
        assert L * max(a_vals) >= _INT64_SAFE
        table = np.exp((2j * np.pi) * (np.arange(L) / L))
        # the bound is on |a|: a large negative a beside a small one must not
        # wrap in int64, and one past int64 itself must not overflow
        for a_vals in (a_vals, [-(2**61) - 5, 1], [-(2**70)]):
            block = _phase_block([(theta * pow(m, -1, L)) % L for m in ms], a_vals, L)
            for i, m in enumerate(ms):
                for j, a in enumerate(a_vals):
                    assert abs(block[i, j] - kloosterman_phase(theta, a, m, n, R)) <= 1e-12
            # a table given for a Python-integer block is not used; over every
            # t, some of its entries differ in the last bit from this branch's
            every_t = list(range(L))
            assert np.array_equal(_phase_block(every_t, a_vals, L, table), _phase_block(every_t, a_vals, L))

    @pytest.mark.parametrize("t_vals,a_vals", (
        ([5], list(range(1, 7))),  # one row
        ([5, 11, 1, 7], [1, 4, 9]),  # four rows
    ))
    def test_table_gate(self, kernel_blocks, t_vals, a_vals):
        # the kernel builds a table of the L phases for a modulus whose
        # blocks have L cells, and none for one with L - 1 cells, where the
        # block evaluates one exponential per cell; both give the per-cell
        # bits.  The m's are the inverses of the t's, so theta = 1 gives t.
        cells = len(t_vals) * len(a_vals)
        nu = np.ones(len(a_vals), dtype=complex)
        for L, evaluated in ((cells, [(cells,)]), (cells + 1, [(len(t_vals), len(a_vals))])):
            ms = [pow(t, -1, L) for t in t_vals]
            shapes, blocks = kernel_blocks(1, L, [(ms, a_vals, [nu])])
            assert shapes == evaluated
            assert blocks == [(t_vals, a_vals)]

    def test_shared_table(self, kernel_blocks):
        # two blocks of L = 13 with 8 cells each: alone neither reaches the
        # gate, together they build one table, and both keep the per-cell bits
        L, a_vals = 13, [1, 5]
        t_rows = ([1, 2, 3, 4], [7, 9, 11, 12])
        nu = np.ones(len(a_vals), dtype=complex)
        groups = [([pow(t, -1, L) for t in t_vals], a_vals, [nu]) for t_vals in t_rows]
        for group in groups:
            shapes, _ = kernel_blocks(1, L, [group])
            assert shapes == [(4, 2)]
        shapes, blocks = kernel_blocks(1, L, groups)
        assert shapes == [(L,)]
        assert blocks == [(t_vals, a_vals) for t_vals in t_rows]


def one_modulus_sums(theta, ms, L, a_idx, nu_arr):
    """Inner sums over m's all coprime to L, from the chunked path given L alone."""
    ((_, _, sel, (sums,)),) = _coprime_inner_sums(theta, [L], [(ms, a_idx, [nu_arr])])
    assert len(sel) == len(ms)
    return sums


def random_spec(M, N, A, R, theta, seed):
    alpha, beta, nu = (build_sequence("random_unit", DyadicRange(base), seed=seed + k)
                       for k, base in enumerate((M, N, A)))
    return TrilinearSpec(alpha, beta, nu, theta, R)


class TestResiduePath:
    """Once the m's outnumber L = nR they are folded mod L: each m reads its
    t = theta * m^{-1} mod L from a table over the residues mod L."""

    @pytest.mark.parametrize("theta", (1, -3))
    def test_unbalanced_against_naive(self, theta):
        # L = nR <= 16 for n in (4, 8]: every n is folded
        spec = random_spec(256, 4, 16, 2, theta, seed=40)
        res = trilinear_form(spec)
        want, count = naive_trilinear(spec)
        assert abs(res.value - want) <= 1e-10 * (1 + abs(want))
        assert res.terms == count == 16 * sum(
            1 for n in range(5, 9) for m in range(257, 513) if gcd(m, 2 * n) == 1)
        assert math.isclose(mean_square_direct(spec), naive_mean_square(spec), rel_tol=1e-10)
        assert math.isclose(squarefree_mean_square(spec, 3), naive_cb(spec, 3), rel_tol=1e-10)

    @pytest.mark.parametrize("M,N,A,R,residue", ((256, 4, 16, 2, True), (128, 128, 8, 8, False)))
    def test_block_rows(self, monkeypatch, M, N, A, R, residue):
        # below the FFT gate a block has one row per coprime m whether its m
        # list is folded (len(sel) > L) or not, and neither path sorts residues
        monkeypatch.setattr(forms, "_fft_pays", lambda L, rows, A: False)
        blocks = []
        uniques = []
        unique = np.unique

        def recording(t_vals, a_vals, L, table=None):
            blocks.append((L, len(t_vals)))
            return _phase_block(t_vals, a_vals, L, table)

        monkeypatch.setattr(forms, "_phase_block", recording)
        monkeypatch.setattr(np, "unique", lambda *a, **k: uniques.append(1) or unique(*a, **k))
        spec = random_spec(M, N, A, R, 1, seed=7)
        trilinear_form(spec)
        mean_square_direct(spec)
        assert len(blocks) == 2 * N
        assert len(uniques) == 0
        for L, rows in blocks:
            sel = sum(1 for m in range(M + 1, 2 * M + 1) if gcd(m, L) == 1)
            assert (sel > L) == residue
            assert rows == sel

    @pytest.mark.parametrize("ms,L", (
        (list(range(1, 200, 2)), 2),  # one unit mod L
        ([1, 4, 7, 10, 13], 3),  # sparse m, one residue class
        ([m for m in range(300, 700) if gcd(m, 36) == 1], 36),
        ([m for m in range(5, 400) if gcd(m, 97) == 1], 97),
    ))
    def test_bit_identical_to_direct(self, monkeypatch, ms, L):
        # every case folds; below the FFT gate the folded rows are the direct ones
        monkeypatch.setattr(forms, "_fft_pays", lambda L, rows, A: False)
        a_idx = list(range(3, 40))
        nu_arr = np.exp(2j * np.pi * np.arange(len(a_idx)) / 7.3)
        for theta in (1, -5):
            direct = _phase_block([(theta * pow(m, -1, L)) % L for m in ms], a_idx, L) @ nu_arr
            assert np.array_equal(one_modulus_sums(theta, ms, L, a_idx, nu_arr), direct)


@pytest.fixture
def kernel_paths(monkeypatch):
    """Records the modulus of each FFT and each phase block the kernel makes."""
    paths = {"fft": [], "block": []}
    dft_sums, phase_block = forms._dft_sums, forms._phase_block

    def fft(t_rows, a_vals, L, nus):
        paths["fft"].append(L)
        return dft_sums(t_rows, a_vals, L, nus)

    def block(t_vals, a_vals, L, table=None):
        paths["block"].append(L)
        return phase_block(t_vals, a_vals, L, table)

    monkeypatch.setattr(forms, "_dft_sums", fft)
    monkeypatch.setattr(forms, "_phase_block", block)
    return paths


def desk_grids():
    """The grids of the archived desk sweeps and of the sweep-desk benchmark workload."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    grids = []
    for scale in ("full", "half"):
        with open(os.path.join(root, "sweeps", f"bcr_desk_{scale}.json"), encoding="utf-8") as fh:
            grids.append(json.load(fh)["grid"])
    with open(os.path.join(root, "benchmarks", "workloads.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    grids += [ast.literal_eval(node.value) for node in ast.walk(tree)
              if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["GRID"]]
    assert len(grids) == 3
    return grids


class TestFFTPath:
    """A group whose rows x A cells pass the gate takes its inner sums from one
    FFT of nu folded mod L, within 1e-12 relative of its phase block."""

    @pytest.mark.parametrize("L", (1, 2, 3, 36, 97, 256))
    @pytest.mark.parametrize("theta", (1, -5))
    def test_sums_match_blocks(self, monkeypatch, L, theta):
        # more a's than L, some negative, so several fold onto each residue;
        # the m's are 1 or -1 mod L but for two multiples of L, so they leave
        # most unit residues empty, and the list is folded, and then cut to L
        # m's, which is not
        monkeypatch.setattr(forms, "_fft_pays", lambda L, rows, A: True)
        ms = sorted({1 + L * k for k in range(L + 1)} | {L - 1 + L * k for k in range(2)} | {2 * L, 3 * L})
        a_idx = list(range(-3, 2 * L + 4))
        nu_arr = np.exp(2j * np.pi * np.random.default_rng(L).random(len(a_idx)))
        for m_list in (ms, [m for m in ms if gcd(m, L) == 1][:L]):
            ((_, _, sel, (sums,)),) = _coprime_inner_sums(theta, [L], [(m_list, a_idx, [nu_arr])])
            coprime = [m for m in m_list if gcd(m, L) == 1]
            assert [m_list[i] for i in sel] == coprime
            block = _phase_block([(theta * pow(m, -1, L)) % L for m in coprime], a_idx, L) @ nu_arr
            assert np.all(np.abs(sums - block) <= 1e-12 * np.abs(block))

    def test_against_naive(self, kernel_paths):
        # folded at L = 27, 30; the gate passes at some moduli and not others
        spec = random_spec(32, 8, 16, 3, -2, seed=21)
        res = trilinear_form(spec)
        want, count = naive_trilinear(spec)
        assert abs(res.value - want) <= 1e-10 * (1 + abs(want))
        assert res.terms == count
        direct = mean_square_direct(spec)
        assert math.isclose(direct, naive_mean_square(spec), rel_tol=1e-10)
        assert math.isclose(mean_square_decomposed(spec), direct, rel_tol=1e-9)
        assert math.isclose(squarefree_mean_square(spec, 2), naive_cb(spec, 2), rel_tol=1e-10)
        assert kernel_paths["fft"] and kernel_paths["block"]

    def test_gate_closed_on_the_desk_grids(self):
        # no (L, rows, A) of the archived desk sweeps or of the sweep-desk
        # workload reaches the gate, so their values keep every bit
        reached = set()
        for grid in desk_grids():
            for M, N, A, R in itertools.product(grid["M"], grid["N"], grid["A"], grid["R"]):
                ms = np.arange(M + 1, 2 * M + 1)
                for L in range((N + 1) * R, (2 * N + 1) * R, R):
                    reached.add((L, int(np.count_nonzero(np.gcd(ms, L) == 1)), A))
        assert len(reached) > 1000
        assert not any(forms._fft_pays(*key) for key in reached)


def per_n_form(spec):
    """The form evaluated one modulus at a time, with Python gcd selection and
    per-modulus inverses: the reference that the chunked path must equal bit
    for bit."""
    a_items = spec.nu.nonzero_items()
    a_idx = [a for a, _ in a_items]
    nu_arr = np.asarray([v for _, v in a_items], dtype=complex)
    parts, terms = [], 0
    for n, bn in spec.beta.nonzero_items():
        L = n * spec.R
        sel = [(m, am) for m, am in spec.alpha.nonzero_items() if gcd(m, L) == 1]
        if not sel or not a_idx:
            continue
        inner = one_modulus_sums(spec.theta, [m for m, _ in sel], L, a_idx, nu_arr)
        parts.append(bn * complex(np.asarray([am for _, am in sel], dtype=complex) @ inner))
        terms += len(sel) * len(a_idx)
    return _csum(parts) if parts else 0j, terms


def per_n_mean_square(spec):
    """mean_square_direct one modulus at a time: the chunked path's reference."""
    a_items = spec.nu.nonzero_items()
    a_idx = [a for a, _ in a_items]
    nu_arr = np.asarray([v for _, v in a_items], dtype=complex)
    ms = [m for m in spec.alpha.support_indices() if gcd(m, spec.R) == 1]
    inner = np.zeros(len(ms), dtype=complex)
    comp = np.zeros(len(ms), dtype=complex)
    for n, bn in spec.beta.nonzero_items():
        sel = [i for i, m in enumerate(ms) if gcd(m, n) == 1]
        if sel:
            sums = one_modulus_sums(spec.theta, [ms[i] for i in sel], n * spec.R, a_idx, nu_arr)
            forms._kahan_vadd(inner, comp, sel, bn * sums)
    return math.fsum(z.real * z.real + z.imag * z.imag for z in inner)


class TestChunkedPath:
    """The (m, n) pairs are selected and inverted a chunk of moduli at a time."""

    @pytest.mark.parametrize("M,N,A,R,seed", (
        (128, 128, 8, 8, 2), (512, 128, 16, 16, 3), (256, 256, 8, 16, 5),
    ))
    def test_sweep_points_bit_identical_to_per_n(self, M, N, A, R, seed):
        spec = random_spec(M, N, A, R, 1, seed)
        res = trilinear_form(spec)
        assert (res.value, res.terms) == per_n_form(spec)
        assert res.terms == A * sum(
            1 for n in range(N + 1, 2 * N + 1) for m in range(M + 1, 2 * M + 1) if gcd(m, n * R) == 1)
        assert mean_square_direct(spec) == per_n_mean_square(spec)

    @pytest.mark.parametrize("theta", (10**6, -7))
    @pytest.mark.parametrize("m_support,n_support,a_support,R", (
        (set(range(-9, 12)), {1, 2, 3, 4, 6, 9}, {1, 2, 5}, 2),  # negative m
        (set(range(3, 20)), {12}, {1, 2, 3}, 5),  # N = 1
        (set(range(-5, 9)), {7, 2**64, 3**41}, {1, 3}, 3),  # n past 2**63: object arrays
        (set(range(1, 6)), {7, 9, 11}, {2**61 + 5, 2**61 + 12}, 1),  # int64 t, big a
        (set(range(1, 80)), {2, 3, 5, 9}, {1, 2, 7}, 2),  # folded moduli mixed in
        (set(range(1, 80)), {2, 3, 2**64}, {1, 2, 7}, 2),  # folded moduli on object arrays
    ))
    def test_against_naive(self, m_support, n_support, a_support, R, theta):
        alpha = build_sequence("random_unit", m_support, seed=len(m_support))
        beta = build_sequence("random_unit", n_support, seed=3)
        nu = build_sequence("random_unit", a_support, seed=4)
        spec = TrilinearSpec(alpha, beta, nu, theta, R)
        res = trilinear_form(spec)
        want, count = naive_trilinear(spec)
        assert abs(res.value - want) <= 1e-10 * (1 + abs(want))
        assert res.terms == count
        assert (res.value, res.terms) == per_n_form(spec)
        direct = mean_square_direct(spec)
        assert math.isclose(direct, naive_mean_square(spec), rel_tol=1e-10)
        assert direct == per_n_mean_square(spec)
        assert math.isclose(mean_square_decomposed(spec), direct, rel_tol=1e-9)
        assert math.isclose(squarefree_mean_square(spec, 3), naive_cb(spec, 3), rel_tol=1e-10)

    def test_one_inverse_batch_per_chunk(self, monkeypatch):
        calls = []

        def counting(values, m):
            calls.append(len(values))
            return batch_mod_inverse(values, m)

        monkeypatch.setattr(forms, "batch_mod_inverse", counting)
        M, N, R = 512, 256, 8
        spec = random_spec(M, N, 8, R, 1, seed=1)
        trilinear_form(spec)
        rows = forms._CHUNK_PAIRS // M
        assert len(calls) == -(-N // rows) < N
        assert sum(calls) == sum(
            1 for n in range(N + 1, 2 * N + 1) for m in range(M + 1, 2 * M + 1) if gcd(m, n * R) == 1)
        calls.clear()
        mean_square_direct(spec)  # over the M / 2 odd m's
        assert len(calls) == -(-N // (2 * rows))
        # folded moduli (L = 2n <= 16) join the chunk's one batch with one
        # value per unit mod L, and here every unit is the residue of some m
        calls.clear()
        M, N, R = 256, 4, 2
        trilinear_form(random_spec(M, N, 8, R, 1, seed=1))
        assert calls == [sum(
            len({m % (n * R) for m in range(M + 1, 2 * M + 1) if gcd(m, n * R) == 1})
            for n in range(N + 1, 2 * N + 1))]


class TestSharedEnumeration:
    """Specs with the same theta, R and nonzero beta indices share one enumeration."""

    def test_each_spec_as_alone(self, kernel_paths):
        # one family (N, R and theta shared) over M, A and seed, beside specs
        # that differ in nu's support, beta's support or R; the last seeded
        # spec differs from the first only in A, and at some moduli takes
        # the FFT path where the first builds its phase block
        seeded = [random_spec(M, 16, A, 3, 1, seed) for M in (64, 32) for A in (8, 4) for seed in (1, 2)]
        seeded.append(random_spec(64, 16, 32, 3, 1, seed=1))
        alpha, beta, nu = seeded[0].alpha, seeded[0].beta, seeded[0].nu
        big = [
            TrilinearSpec(build_sequence("random_unit", m_support, seed=seed),
                          build_sequence("random_unit", {7, 2**64, 3**41}, seed=seed + 1),
                          build_sequence("random_unit", a_support, seed=seed + 2), 10**6, 3)
            for seed, m_support, a_support in (
                (5, set(range(-5, 9)), {1, 3}),
                (6, set(range(-5, 9)), {1, 3}),
                (7, set(range(1, 30)), {2, 5, 9}),
            )
        ]
        specs = seeded + [
            random_spec(32, 16, 4, 5, 1, seed=1),
            TrilinearSpec(alpha, beta, build_sequence("random_unit", DyadicRange(4), seed=9), 1, 3),
            TrilinearSpec(alpha, build_sequence("moebius", DyadicRange(16)), nu, 1, 3),
            TrilinearSpec(alpha, build_sequence("random_unit", DyadicRange(16), seed=11), nu, 1, 3),
        ] + big
        # two folded m lists at each modulus L in (16, 32], some of them on the FFT path
        specs += [random_spec(M, 8, 4, 2, 1, seed) for M in (64, 128) for seed in (1, 2)]
        results = trilinear_forms(specs)
        assert set(kernel_paths["fft"]) & set(kernel_paths["block"])
        assert len(results) == len(specs)
        for spec, res in zip(specs, results):
            lone = trilinear_form(spec)
            assert (res.value, res.terms) == (lone.value, lone.terms)
            assert (res.value, res.terms) == per_n_form(spec)
        assert trilinear_forms([]) == []

    @pytest.mark.parametrize("M,N,A,R", ((512, 64, 8, 8), (256, 4, 16, 2)))
    def test_group_makes_the_calls_of_one_spec(self, monkeypatch, M, N, A, R):
        # below the FFT gate, so that every modulus builds its phase block
        monkeypatch.setattr(forms, "_fft_pays", lambda L, rows, A: False)
        calls = []

        def counting(values, m):
            calls.append(("inverse", np.asarray(values).tolist(), np.asarray(m).tolist()))
            return batch_mod_inverse(values, m)

        def recording(t_vals, a_vals, L, table=None):
            calls.append(("phase", np.asarray(t_vals).tolist(), list(a_vals), L))
            return _phase_block(t_vals, a_vals, L, table)

        monkeypatch.setattr(forms, "batch_mod_inverse", counting)
        monkeypatch.setattr(forms, "_phase_block", recording)
        specs = [random_spec(M, N, A, R, 1, seed) for seed in (1, 2)]
        trilinear_forms(specs[:1])
        one = list(calls)
        calls.clear()
        trilinear_forms(specs)
        assert calls == one
        assert sum(kind == "phase" for kind, *_ in one) == N

    def test_family_shares_one_table_per_modulus(self, monkeypatch):
        # alone, no block reaches the table gate L <= cells; the family's blocks
        # at one modulus reach it together, build one table and keep every bit
        specs = [random_spec(M, 16, A, 5, 1, seed) for M in (16, 32) for A in (1, 2) for seed in (1, 2)]
        lone = [trilinear_form(spec) for spec in specs]
        exp = np.exp
        tables = []
        monkeypatch.setattr(forms.np, "exp", lambda x: np.ndim(x) == 1 and tables.append(len(x)) or exp(x))
        for spec in specs:
            trilinear_form(spec)
        assert tables == []
        results = trilinear_forms(specs)
        assert len(tables) >= 2 and len(set(tables)) == len(tables)
        assert [(r.value, r.terms) for r in results] == [(r.value, r.terms) for r in lone]

    @pytest.mark.parametrize("M,N,A,R", ((512, 64, 8, 8), (256, 4, 16, 2)))
    def test_family_makes_the_inverses_of_one_a(self, monkeypatch, M, N, A, R):
        # the inverses depend on the m's and the moduli, not on the a's; a
        # moebius beta at the same (N, R, theta) has other moduli and makes
        # its own calls
        calls = []

        def counting(values, m):
            calls.append((np.asarray(values).tolist(), np.asarray(m).tolist()))
            return batch_mod_inverse(values, m)

        monkeypatch.setattr(forms, "batch_mod_inverse", counting)
        specs = [random_spec(M, N, a, R, 1, seed) for a in (A, 2 * A) for seed in (1, 2)]
        moebius = TrilinearSpec(specs[0].alpha, build_sequence("moebius", DyadicRange(N)), specs[0].nu, 1, R)
        trilinear_forms(specs[:1])
        trilinear_forms([moebius])
        apart = list(calls)
        calls.clear()
        results = trilinear_forms(specs + [moebius])
        assert calls == apart
        for spec, res in zip(specs + [moebius], results):
            assert (res.value, res.terms) == per_n_form(spec)


class TestMeanSquareDirect:
    def test_zero_beta(self):
        spec = spec_of(ones({3}), make_sequence({2: 0j}), ones({1}))
        assert mean_square_direct(spec) == 0.0

    def test_unit_modulus_single_point(self):
        # oracle: |e(inv(3 mod 2)/2)|^2 = 1
        spec = spec_of(ones({3}), ones({2}), ones({1}))
        assert math.isclose(mean_square_direct(spec), 1.0)

    def test_against_naive(self):
        spec = TrilinearSpec(ones(DyadicRange(2)), ones(DyadicRange(2)), ones(DyadicRange(1)),
                             theta=1, R=3)
        assert math.isclose(mean_square_direct(spec), naive_mean_square(spec), rel_tol=1e-12)

    def test_empty_coprime_m_returns_zero(self):
        spec = spec_of(ones({6}), ones({5}), ones({1}), R=6)
        assert mean_square_direct(spec) == 0.0


class TestComplementarySplit:
    def test_split_examples(self):
        assert complementary_split(12, 1) == (3, 4, 1)
        assert complementary_split(12, 6) == (1, 4, 3)
        assert complementary_split(6, 6) == (1, 1, 6)
        assert complementary_split(4, 2) == (1, 4, 1)

    @given(st.integers(1, 10**6), st.integers(1, 720))
    @settings(max_examples=400)
    def test_split_properties(self, n, R):
        nprime, b, r = complementary_split(n, R)
        assert nprime * b * r == n
        assert is_squarefree(nprime) and is_squarefull(b)
        assert R % r == 0 and is_squarefree(r)
        assert gcd(nprime, radical(R)) == 1 and gcd(nprime, b) == 1


class TestDecomposition:
    def test_r1_reduces_to_b_only(self):
        # with R = 1 the r-component is forced to 1 on every index
        for n in range(1, 200):
            nprime, b, r = complementary_split(n, 1)
            assert r == 1 and nprime * b == n

    def test_squarefree_coprime_support_is_degenerate(self):
        # beta supported on squarefree n coprime to R: b = r = 1 throughout
        R = 6
        idx = [n for n in range(30, 60) if is_squarefree(n) and gcd(n, R) == 1]
        for n in idx:
            assert complementary_split(n, R)[1:] == (1, 1)
        beta = build_sequence("ones", set(idx))
        spec = TrilinearSpec(ones(DyadicRange(4)), beta, ones(DyadicRange(2)), 1, R)
        assert math.isclose(mean_square_decomposed(spec), mean_square_direct(spec), rel_tol=1e-12)

    def test_mismatch_detected_for_corrupted_split(self):
        spec = TrilinearSpec(ones(DyadicRange(4)), ones(DyadicRange(4)), ones(DyadicRange(2)),
                             theta=1, R=2)
        with pytest.raises(DecompositionMismatch):
            mean_square_decomposed(spec, _split=lambda n, R: (n, 1, 1))
        with pytest.raises(DecompositionMismatch):
            mean_square_decomposed(
                spec, _split=lambda n, R: (1, n, 1) if n == 5 else complementary_split(n, R)
            )
        with pytest.raises(DecompositionMismatch, match="reassembles to"):
            mean_square_decomposed(spec, _split=lambda n, R: (n, 1, 2))
        with pytest.raises(DecompositionMismatch, match="not a squarefree divisor of R"):
            mean_square_decomposed(
                spec, _split=lambda n, R: (2, 1, 3) if n == 6 else complementary_split(n, R)
            )


class TestSquarefreeMeanSquare:
    def test_b1_squarefree_support_matches_direct(self):
        idx = {n for n in range(5, 17) if is_squarefree(n)}
        beta = build_sequence("ones", idx)
        spec = TrilinearSpec(ones(DyadicRange(4)), beta, ones(DyadicRange(2)), theta=1, R=1)
        assert math.isclose(squarefree_mean_square(spec, 1), mean_square_direct(spec),
                            rel_tol=1e-12)

    def test_zero_beta(self):
        spec = spec_of(ones({3}), make_sequence({2: 0j}), ones({1}))
        assert squarefree_mean_square(spec, 2) == 0.0

    def test_tiny_against_naive(self):
        spec = TrilinearSpec(ones({2, 3, 4}), ones({2, 3, 4}), ones({1, 2}), theta=1)
        assert math.isclose(squarefree_mean_square(spec, 2), naive_cb(spec, 2), rel_tol=1e-12)

    def test_b_validation(self):
        spec = spec_of(ones({3}), ones({2}), ones({1}))
        with pytest.raises(ValueError):
            squarefree_mean_square(spec, 0)


class TestInequalities:
    def test_trivial_counting_bound(self):
        result = checks.trivial_bound()
        assert result.passed, result.detail

    def test_conjugation_symmetry_real_sequences(self):
        # the check covers real sequences (ones) and conjugated complex ones
        result = checks.conjugation_symmetry()
        assert result.passed, result.detail
