import ast
import cmath
import itertools
import json
import math
import os
import random
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden_oracle import kloosterman_phase, phase_rule
from klab import checks, forms
from klab.arith import (
    _INT64_SAFE,
    _unit_inverses,
    batch_mod_inverse,
    euler_phi,
    factorize,
    is_squarefree,
    is_squarefull,
    radical,
    unit_phase_tables,
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
def phase_evaluations(monkeypatch):
    """Records each evaluation of the phase rule that the forms module
    makes: ("cells", shape of k) for :func:`klab.arith.unit_phases` and
    ("tables", the sorted moduli) for :func:`klab.arith.unit_phase_tables`."""
    calls = []
    unit_phases, unit_phase_tables = forms.unit_phases, forms.unit_phase_tables

    def cells(k, L):
        calls.append(("cells", np.shape(k)))
        return unit_phases(k, L)

    def tables(Ls):
        calls.append(("tables", sorted(Ls)))
        return unit_phase_tables(Ls)

    monkeypatch.setattr(forms, "unit_phases", cells)
    monkeypatch.setattr(forms, "unit_phase_tables", tables)
    return calls


def rule_bits(residue, L):
    """The oracle's bits of e(residue / L), cell by cell, with L one modulus
    or one per column."""
    Ls = np.broadcast_to(np.asarray(L, dtype=object), np.shape(residue))
    return np.array([[phase_rule(int(k), int(m)) for k, m in zip(*row)] for row in zip(residue, Ls)]).tobytes()


@pytest.fixture
def kernel_blocks(monkeypatch, phase_evaluations):
    """Runs the kernel at one modulus L and returns the phase-rule
    evaluations and the (t_vals, a_vals) of each phase block, after checking
    that every block has the oracle's bits of the rule, cell by cell."""
    blocks = []

    def recording(t_vals, a_vals, L, table=None, base=None):
        block = _phase_block(t_vals, a_vals, L, table, base)
        blocks.append((np.asarray(t_vals).tolist(), np.asarray(a_vals).tolist(), block))
        return block

    monkeypatch.setattr(forms, "_phase_block", recording)

    def run(theta, L, groups):
        phase_evaluations.clear()
        blocks.clear()
        list(_coprime_inner_sums(theta, [L], groups))
        for t_vals, a_vals, block in blocks:
            residue = (np.asarray(a_vals)[:, None] * np.asarray(t_vals, dtype=np.int64)[None, :]) % L
            assert block.tobytes() == rule_bits(residue, L)
        return list(phase_evaluations), [(t_vals, a_vals) for t_vals, a_vals, _ in blocks]

    return run


class TestPhaseBlock:
    def test_big_integer_fallback(self, phase_evaluations):
        # nu supported near 2**61: L * max(a) >= 2**62 takes the exact
        # Python-integer branch instead of the int64 kernel
        theta, n, R = -3, 7, 3
        L = n * R
        ms = [m for m in range(2, 40) if gcd(m, L) == 1]
        a_vals = [2**61 + 5, 2**61 + 12]
        assert L * max(a_vals) >= _INT64_SAFE
        # a table given for a Python-integer block is not used
        table = np.full(L, np.nan, dtype=complex)
        # the bound is on |a|: a large negative a beside a small one must not
        # wrap in int64, and one past int64 itself must not overflow
        for a_vals in (a_vals, [-(2**61) - 5, 1], [-(2**70)]):
            t_vals = [(theta * pow(m, -1, L)) % L for m in ms]
            phase_evaluations.clear()
            block = _phase_block(t_vals, a_vals, L)
            # one rule evaluation over the block's cells, with the oracle's bits
            assert phase_evaluations == [("cells", (len(a_vals), len(ms)))]
            assert block.tobytes() == rule_bits([[a * t % L for t in t_vals] for a in a_vals], L)
            for i, m in enumerate(ms):
                for j, a in enumerate(a_vals):
                    assert abs(block[j, i] - kloosterman_phase(theta, a, m, n, R)) <= 1e-12
            every_t = list(range(L))
            assert _phase_block(every_t, a_vals, L, table).tobytes() == _phase_block(every_t, a_vals, L).tobytes()

    @pytest.mark.parametrize("Ls", (
        {1}, {2}, {3}, {5}, {8}, {12}, {63}, {1031}, {16}, {1024}, {4104}, {8192},
        {3, 6, 12, 24}, {5, 10, 20, 40, 80}, {1032, 2064, 4128}, {7, 9, 14, 16, 32, 1000},
    ))
    def test_tables_have_the_oracle_bits(self, Ls):
        # every entry of the buffer, filled by octants in place or read at a
        # stride from a fill at lcm(L, 8), has the oracle's bits of the rule
        table, begin = unit_phase_tables(Ls)
        for L in Ls:
            want = np.array([phase_rule(k, L) for k in range(L)]).tobytes()
            assert table[begin[L]:begin[L] + L].tobytes() == want, L

    @pytest.mark.parametrize("L", (1, 2, 3, 12, 1031, 8192, 2**50 - 1, 2**50 + 3, 2**53 + 1))
    def test_blocks_have_the_oracle_bits(self, L):
        # per cell on int64, gathered from a table, and on Python integers
        # (L * max |a| past 2**62): the same bits, the oracle's
        t_vals = sorted({(L - 1) * i // 40 for i in range(41)} | {L // 8, 3 * L // 8, L // 2})
        for a_vals in ([1, 2, 7], [-5, 3], [-(2**62 // L) - 9, 2**13 + 1]):
            residue = [[a * t % L for t in t_vals] for a in a_vals]
            block = _phase_block(t_vals, a_vals, L)
            assert block.tobytes() == rule_bits(residue, L)
            if L <= 8192:
                table, begin = unit_phase_tables([L])
                offsets = np.full(len(t_vals), begin[L])
                assert _phase_block(t_vals, a_vals, L, table, offsets).tobytes() == block.tobytes()

    @pytest.mark.parametrize("t_vals,a_vals", (
        ([5], list(range(1, 7))),  # one row
        ([5, 11, 1, 7], [1, 4, 9]),  # four rows
    ))
    def test_table_gate(self, kernel_blocks, t_vals, a_vals):
        # the kernel builds a table of the L phases for a modulus whose
        # blocks have L cells, and none for one with L - 1 cells, where the
        # (a x t) block evaluates the rule once per cell; both give the
        # rule's bits.  The m's are the inverses of the t's, so theta = 1
        # gives t.
        cells = len(t_vals) * len(a_vals)
        nu = np.ones(len(a_vals), dtype=complex)
        for L, evaluated in ((cells, [("tables", [cells])]), (cells + 1, [("cells", (len(a_vals), len(t_vals)))])):
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
            assert shapes == [("cells", (2, 4))]
        shapes, blocks = kernel_blocks(1, L, groups)
        assert shapes == [("tables", [L])]
        assert blocks == [(t_vals, a_vals) for t_vals in t_rows]


def one_modulus_sums(theta, ms, L, a_idx, nu_arr):
    """Inner sums over m's all coprime to L, from the chunked path given L alone."""
    ((js, starts, _, sel, (sums,)),) = _coprime_inner_sums(theta, [L], [(ms, a_idx, [nu_arr])])
    assert js.tolist() == starts.tolist() == [0]
    assert len(sel) == len(ms)
    return sums


def complex_of(re, im):
    """The complex array with these float parts, formed with no complex product."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def column_rule(block, nu):
    """The forms module's rule for the inner sums of a phase block, restated
    with a multiply and np.add.reduce down the a axis, which adds in index
    order: U = sum_a v_a Re nu_a and W = sum_a v_a Im nu_a over the float
    view v of the block, and the sum is (U_re - W_im) + i (W_re + U_im)."""
    v = block.view(np.float64)
    U, W = (np.add.reduce(v * part[:, None], axis=0) for part in (nu.real, nu.imag))
    return complex_of(U[0::2] - W[1::2], W[0::2] + U[1::2])


def segment_rule(x, c):
    """The same rule over one modulus's rows: sum_k c_k x_k, with U and W
    from np.add.reduceat over the one segment."""
    v = x.view(np.float64).reshape(-1, 2)
    U, W = (np.add.reduceat(v * part[:, None], [0])[0] for part in (c.real, c.imag))
    return complex(U[0] - W[1], W[0] + U[1])


def times(b, x):
    """b * x from float parts, (b_re x_re - b_im x_im) + i (b_re x_im + b_im x_re)."""
    return complex_of(b.real * x.real - b.imag * x.imag, b.real * x.imag + b.imag * x.real)


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
        # below the FFT gate a block has one column per coprime m at each of
        # its moduli whether its m list is folded (len(sel) > L) or not, each
        # modulus is in one block of each evaluation, and neither path sorts
        # residues
        monkeypatch.setattr(forms, "_fft_pays", lambda L, rows, A: False)
        blocks = []
        uniques = []
        unique = np.unique

        def recording(t_vals, a_vals, L, table=None, base=None):
            columns = np.broadcast_to(L, len(t_vals)).tolist()
            blocks.extend((L, columns.count(L)) for L in dict.fromkeys(columns))
            return _phase_block(t_vals, a_vals, L, table, base)

        monkeypatch.setattr(forms, "_phase_block", recording)
        monkeypatch.setattr(np, "unique", lambda *a, **k: uniques.append(1) or unique(*a, **k))
        spec = random_spec(M, N, A, R, 1, seed=7)
        trilinear_form(spec)
        mean_square_direct(spec)
        assert len(blocks) == 2 * N
        assert sorted(L for L, _ in blocks) == sorted(2 * [n * R for n in range(N + 1, 2 * N + 1)])
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
            direct = column_rule(_phase_block([(theta * pow(m, -1, L)) % L for m in ms], a_idx, L), nu_arr)
            assert np.array_equal(one_modulus_sums(theta, ms, L, a_idx, nu_arr), direct)

    def test_unit_table(self):
        # theta * r^{-1} mod L at the units and -1 elsewhere, theta past
        # int64 reduced mod L before the product
        for L in (1, 2, 8, 24, 48, 97, 210, 1000):
            for theta in (1, -3, 2**70 + 1):
                want = [theta * pow(r, -1, L) % L if gcd(r, L) == 1 else -1 for r in range(L)]
                assert forms._unit_table(theta, L, factorize(L)).tolist() == want

    def test_all_folded_batches_keep_every_bit(self, monkeypatch, folded_tables):
        # every L = 2n <= 256 folds the 4,096 m's of the seeded alpha and the
        # 4,098 of the explicit one, with its negative m's and an m past
        # 2**63: no folded unit reaches batch_mod_inverse, each evaluation
        # builds one table per modulus, which inverts the phi(L) units, and
        # each value keeps its bits wherever the chunks fall
        calls = []

        def counting(values, m):
            calls.append(len(values))
            return batch_mod_inverse(values, m)

        monkeypatch.setattr(forms, "batch_mod_inverse", counting)
        seeded = random_spec(4096, 64, 256, 2, 1, seed=1)
        alpha = build_sequence("random_unit", set(range(-2048, 2049)) | {2**63 + 1}, seed=5)
        specs = [seeded, TrilinearSpec(alpha, seeded.beta, seeded.nu, 1, 2)]
        tables = [(2 * n, euler_phi(2 * n)) for n in range(65, 129)]
        assert sum(units for _, units in tables) == 5022
        runs = []
        for pairs in (1, 2**8, forms._CHUNK_PAIRS):
            monkeypatch.setattr(forms, "_CHUNK_PAIRS", pairs)
            values = []
            for spec in specs:
                for evaluate in (trilinear_form, mean_square_direct):
                    calls.clear()
                    folded_tables.clear()
                    values.append(evaluate(spec))
                    assert calls == []
                    assert sorted(folded_tables) == tables
                values.append(mean_square_decomposed(spec))
                values += [squarefree_mean_square(spec, b) for b in (1, 2, 6)]
            runs.append(repr(values))
        assert runs[0] == runs[1] == runs[2]

    def test_union_folds_per_list_and_modulus(self, monkeypatch):
        # at L = 3n, n in (16, 32], the 64 m's fold below L = 64 and not
        # from it on, and the 32 m's fold nowhere; the (N, R) = (8, 6)
        # moduli 54 and 60 are also (16, 3) moduli, folded for the 64 m's
        # only.  With every cut of the chunks and batches the union gives
        # each spec the value and terms of a lone evaluation
        specs = [random_spec(M, N, A, R, 1, seed) for M, N, A, R in ((64, 16, 8, 3), (32, 16, 8, 3), (64, 8, 4, 6))
                 for seed in (1, 2)]
        lone = [(r.value, r.terms) for r in map(trilinear_form, specs)]
        assert lone == [per_n_form(spec) for spec in specs]
        for pairs in (1, 2**6, forms._CHUNK_PAIRS):
            monkeypatch.setattr(forms, "_CHUNK_PAIRS", pairs)
            assert [(r.value, r.terms) for r in trilinear_forms(specs)] == lone

    def test_unit_tables_live_a_batch_at_a_time(self):
        # L = 16n, n in (256, 512], against 8,192 m's: every L but the last
        # folds, and the moduli sum to 1,574,912, 12 MB of int64 tables at
        # once; each table lives only while the rows of its chunk, two
        # moduli here, read it
        spec = random_spec(8192, 256, 16, 16, 1, seed=1)
        assert 8 * sum(16 * n for n in range(257, 513)) > 12 * 2**20
        tracemalloc.start()
        try:
            trilinear_form(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.fixture
def folded_tables(monkeypatch):
    """Records (L, units inverted) for each table of theta * r^{-1} mod L
    that the kernel builds for a folded modulus."""
    tables = []

    def tabulating(units, q, factors):
        tables.append((q, len(units)))
        return _unit_inverses(units, q, factors)

    monkeypatch.setattr(forms, "_unit_inverses", tabulating)
    return tables


@pytest.fixture
def kernel_paths(monkeypatch):
    """Records the modulus of each FFT and each phase block the kernel makes."""
    paths = {"fft": [], "block": []}
    dft_sums, phase_block = forms._dft_sums, forms._phase_block

    def fft(t_rows, a_vals, L, nus):
        paths["fft"].append(L)
        return dft_sums(t_rows, a_vals, L, nus)

    def block(t_vals, a_vals, L, table=None, base=None):
        paths["block"].extend(dict.fromkeys(np.broadcast_to(L, len(t_vals)).tolist()))
        return phase_block(t_vals, a_vals, L, table, base)

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
            ((_, _, _, sel, (sums,)),) = _coprime_inner_sums(theta, [L], [(m_list, a_idx, [nu_arr])])
            coprime = [m for m in m_list if gcd(m, L) == 1]
            assert [m_list[i] for i in sel] == coprime
            block = column_rule(_phase_block([(theta * pow(m, -1, L)) % L for m in coprime], a_idx, L), nu_arr)
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
        segment = segment_rule(inner, np.asarray([am for _, am in sel], dtype=complex))
        parts.append(times(np.asarray(bn, dtype=complex), np.asarray(segment)).item())
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
            forms._kahan_vadd(inner, comp, sel, times(np.asarray(bn, dtype=complex), sums))
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

    def test_chunk_and_sub_batch_boundaries_change_no_bit(self, monkeypatch):
        # one modulus per chunk (and so per sub-batch), a middle size and the
        # default: each form and mean square keeps its bits, on a desk family,
        # on folded moduli that also take the FFT, and on object arrays (n
        # past 2**63)
        specs = [random_spec(M, 32, A, 8, 1, seed) for M in (64, 128) for A in (4, 8) for seed in (1, 2)]
        specs += [random_spec(M, 4, 16, 2, 1, seed=3) for M in (128, 256)]
        beta = build_sequence("random_unit", {7, 2**64, 3**41}, seed=3)
        nu = build_sequence("random_unit", {1, 2, 7}, seed=4)
        specs += [TrilinearSpec(build_sequence("random_unit", set(range(-5, 30)), seed=seed), beta, nu, 10**6, 3)
                  for seed in (5, 6)]
        runs = []
        for pairs in (1, 2**11, forms._CHUNK_PAIRS):
            monkeypatch.setattr(forms, "_CHUNK_PAIRS", pairs)
            forms_ = [(r.value, r.terms) for r in trilinear_forms(specs)]
            runs.append((forms_, [mean_square_direct(spec) for spec in specs]))
        assert runs[0] == runs[1] == runs[2]

    def test_coprime_mask_matches_gcd(self):
        # small primes kept across calls, larger ones per row, and an L past
        # len(m)**2 on np.gcd, for negative m's, m = 0 and L = 1
        m_arr = np.arange(-40, 60)
        kept = {}
        for Ls in ([1, 2, 97, 210, 2 * 3 * 5 * 7 * 11, 9973], [6, 35, 4 * 9973, 10**4 + 7]):
            primes = {}
            for L in Ls:
                assert np.array_equal(forms._coprime(m_arr, L, kept, 5, primes), np.gcd(m_arr, L) == 1)
        assert sorted(kept) == [2, 3, 5]

    def test_family_takes_every_row_branch(self, monkeypatch, folded_tables):
        # the 64 m's fold at L = 2n < 64; the 8 m's take np.gcd at L >= 64,
        # prime masks at the odd L = 3n < 64, and at each even L < 64 the
        # data of 2L, which another spec needs; at every chunk size the
        # family's values are the lone evaluations'
        specs = [random_spec(64, 16, 4, 2, 1, seed=1), random_spec(8, 16, 4, 2, 1, seed=2),
                 random_spec(8, 32, 4, 2, 1, seed=3), random_spec(8, 16, 4, 3, 1, seed=4)]
        lone = [(r.value, r.terms) for r in map(trilinear_form, specs)]
        coprime = forms._coprime
        on_gcd = []

        def selecting(m_arr, L, *args):
            on_gcd.append(L >= len(m_arr) ** 2)
            return coprime(m_arr, L, *args)

        monkeypatch.setattr(forms, "_coprime", selecting)
        calls = []
        for pairs in (1, 2**8, forms._CHUNK_PAIRS):
            monkeypatch.setattr(forms, "_CHUNK_PAIRS", pairs)
            on_gcd.clear()
            folded_tables.clear()
            assert [(r.value, r.terms) for r in trilinear_forms(specs)] == lone
            calls.append(len(on_gcd))
            assert sorted(L for L, _ in folded_tables) == list(range(34, 64, 2))
        assert set(on_gcd) == {True, False}
        # one modulus per chunk leaves no double in the chunk
        assert calls[0] > calls[1] > calls[2]

    def test_einsum_adds_in_index_order(self):
        # the inner sums take np.einsum("kr,kq->qr", ...) of a block's float
        # view; it must add each column in index order of k, as a multiply
        # and np.add.reduce down axis 0 do, bit for bit
        rng = np.random.default_rng(0)
        for A, R, q in itertools.product((1, 2, 3, 8, 16, 33, 512), (1, 5, 64, 1000), (2, 4, 6)):
            v, c = rng.standard_normal((A, 2 * R)), rng.standard_normal((A, q))
            got = np.einsum("kr,kq->qr", v, c)
            for i in range(q):
                assert np.array_equal(got[i], np.add.reduce(v * c[:, i:i + 1], axis=0))

    def test_one_inverse_batch_per_chunk(self, monkeypatch, folded_tables):
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
        # folded moduli (L = 2n <= 16) take no batch: each builds one table
        # with one value per unit mod L, and here every unit is the residue of some m
        calls.clear()
        M, N, R = 256, 4, 2
        trilinear_form(random_spec(M, N, 8, R, 1, seed=1))
        assert calls == []
        assert sorted(folded_tables) == [
            (n * R, len({m % (n * R) for m in range(M + 1, 2 * M + 1) if gcd(m, n * R) == 1}))
            for n in range(N + 1, 2 * N + 1)]

    def test_desk_family_memory(self):
        # the 48 specs of the sweep-desk grid (M 128/256/512, N 128/256, A
        # 8/16, R 8/16, two seeds whose role streams do not overlap) in one
        # call: chunks of 36 moduli, each sub-batch's table of its chain
        # tops and the blocks cut per group keep the traced peak below
        # 2.5 MiB (2.19 MiB measured)
        specs = [random_spec(M, N, A, R, 1, seed) for M in (128, 256, 512) for N in (128, 256)
                 for A in (8, 16) for R in (8, 16) for seed in (0, 4)]
        tracemalloc.start()
        try:
            trilinear_forms(specs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


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

    def test_folded_lists_share_one_units_entry(self, monkeypatch, folded_tables):
        # at L = 2n in (32, 64] the lists of 128 and 256 m's fold, and the 64
        # m's too below L = 64: the units mod L are inverted once per modulus,
        # in one table the lists share, and only the 64 m's at L = 64 take
        # batch_mod_inverse, for their 32 odd m's
        values = []

        def counting(v, m):
            values.append(len(v))
            return batch_mod_inverse(v, m)

        monkeypatch.setattr(forms, "batch_mod_inverse", counting)
        specs = [random_spec(M, 16, 4, 2, 1, seed=1) for M in (64, 128, 256)]
        results = trilinear_forms(specs)
        assert sorted(folded_tables) == [(2 * n, euler_phi(2 * n)) for n in range(17, 33)]
        assert sum(units for _, units in folded_tables) == 324
        assert values == [32]
        for spec, res in zip(specs, results):
            assert (res.value, res.terms) == per_n_form(spec)

    @pytest.mark.parametrize("M,N,A,R", ((512, 64, 8, 8), (256, 4, 16, 2)))
    def test_group_makes_the_calls_of_one_spec(self, monkeypatch, M, N, A, R):
        # below the FFT gate, so that every modulus builds its phase block
        monkeypatch.setattr(forms, "_fft_pays", lambda L, rows, A: False)
        calls = []

        def counting(values, m):
            calls.append(("inverse", np.asarray(values).tolist(), np.asarray(m).tolist()))
            return batch_mod_inverse(values, m)

        def recording(t_vals, a_vals, L, table=None, base=None):
            calls.append(("phase", np.asarray(t_vals).tolist(), list(a_vals), np.broadcast_to(L, len(t_vals)).tolist()))
            return _phase_block(t_vals, a_vals, L, table, base)

        monkeypatch.setattr(forms, "batch_mod_inverse", counting)
        monkeypatch.setattr(forms, "_phase_block", recording)
        specs = [random_spec(M, N, A, R, 1, seed) for seed in (1, 2)]
        trilinear_forms(specs[:1])
        one = list(calls)
        calls.clear()
        trilinear_forms(specs)
        assert calls == one
        # the blocks cover each modulus once, a sub-batch of moduli at a time
        columns = [dict.fromkeys(call[3]) for call in one if call[0] == "phase"]
        assert sorted(L for Ls in columns for L in Ls) == [n * R for n in range(N + 1, 2 * N + 1)]
        assert len(columns) < N

    def test_family_shares_one_table_buffer(self, phase_evaluations):
        # alone, no spec's blocks have as many cells as their moduli sum to,
        # so none builds a table; the family's blocks reach that together and
        # gather from one buffer that holds the table of every modulus, and
        # every bit stays
        specs = [random_spec(M, 16, A, 5, 1, seed) for M in (16, 32) for A in (1, 2, 3) for seed in (1, 2)]
        lone = [trilinear_form(spec) for spec in specs]
        tables = phase_evaluations
        tables.clear()
        for spec in specs:
            trilinear_form(spec)
        assert [call for call in tables if call[0] == "tables"] == []
        tables.clear()
        results = trilinear_forms(specs)
        assert [call for call in tables if call[0] == "tables"] == [("tables", [5 * n for n in range(17, 33)])]
        assert [(r.value, r.terms) for r in results] == [(r.value, r.terms) for r in lone]

    @pytest.mark.parametrize("M,N,A,R", ((512, 64, 8, 8), (256, 4, 16, 2)))
    def test_family_makes_the_inverses_of_one_a(self, monkeypatch, folded_tables, M, N, A, R):
        # the inverses depend on the m's and the moduli, not on the a's; a
        # moebius beta at the same (N, R, theta) has a subset of the moduli,
        # so the union adds no inverse call, folded table or phase cell, and
        # makes fewer inverse values (batched and tabled) or phase cells
        # than its families apart
        calls, cells = [], []

        def counting(values, m):
            calls.append((np.asarray(values).tolist(), np.asarray(m).tolist()))
            return batch_mod_inverse(values, m)

        def recording(t_vals, a_vals, L, table=None, base=None):
            cells.append(len(t_vals) * len(a_vals))
            return _phase_block(t_vals, a_vals, L, table, base)

        monkeypatch.setattr(forms, "batch_mod_inverse", counting)
        monkeypatch.setattr(forms, "_phase_block", recording)
        specs = [random_spec(M, N, a, R, 1, seed) for a in (A, 2 * A) for seed in (1, 2)]
        moebius = TrilinearSpec(specs[0].alpha, build_sequence("moebius", DyadicRange(N)), specs[0].nu, 1, R)
        def inverses():
            return sum(len(values) for values, _ in calls) + sum(units for _, units in folded_tables)

        trilinear_forms(specs[:1])
        one = (list(calls), list(folded_tables))
        calls.clear()
        folded_tables.clear()
        cells.clear()
        trilinear_forms(specs)
        assert (calls, folded_tables) == one
        family_cells = sum(cells)
        trilinear_forms([moebius])
        apart = (inverses(), sum(cells))
        calls.clear()
        folded_tables.clear()
        cells.clear()
        results = trilinear_forms(specs + [moebius])
        assert (calls, folded_tables) == one
        assert sum(cells) == family_cells
        assert (inverses(), sum(cells)) < apart
        for spec, res in zip(specs + [moebius], results):
            assert (res.value, res.terms) == per_n_form(spec)

    @pytest.mark.parametrize("nested", (True, False))
    def test_union_of_families(self, monkeypatch, nested):
        # the moduli nR of (8, 8) lie in those of (16, 4) and those in (32,
        # 2), and each (8, 8) modulus L has 2L among the (16, 8) moduli; in
        # the slice, the (64, 8) group is at only two of the (N, R)'s.  One
        # enumeration gives each spec the value and terms of a lone
        # evaluation, with no more inverse values or phase cells than the
        # families make apart
        counts = {"values": 0, "cells": 0}

        def counting(values, m):
            counts["values"] += len(values)
            return batch_mod_inverse(values, m)

        def recording(t_vals, a_vals, L, table=None, base=None):
            counts["cells"] += len(t_vals) * len(a_vals)
            return _phase_block(t_vals, a_vals, L, table, base)

        monkeypatch.setattr(forms, "batch_mod_inverse", counting)
        monkeypatch.setattr(forms, "_phase_block", recording)
        families = ((8, 8), (16, 4), (32, 2), (16, 8))
        specs = [random_spec(M, N, A, R, 1, seed) for N, R in families
                 for M, A in ((32, 4), (64, 8)) for seed in (1, 2)
                 if nested or (M, A) == (32, 4) or (N, R) in ((8, 8), (16, 8))]
        lone = [trilinear_form(spec) for spec in specs]
        for key in counts:
            counts[key] = 0
        for N, R in families:
            trilinear_forms([spec for spec in specs if (len(spec.beta.values), spec.R) == (N, R)])
        apart = dict(counts)
        for key in counts:
            counts[key] = 0
        results = trilinear_forms(specs)
        assert counts["values"] < apart["values"] and counts["cells"] < apart["cells"]
        assert [(r.value, r.terms) for r in results] == [(r.value, r.terms) for r in lone]

    def test_chains_take_their_data_from_the_top(self, monkeypatch, phase_evaluations):
        # N = 16 and 32 at R = 4: each L = 4n, n in (16, 32], has 2L among
        # the N = 32 moduli.  In one chunk and one sub-batch, only the chain
        # maxima (the L whose double is not a modulus) make inverse values,
        # and the one table call holds exactly those maxima, from which the
        # other moduli gather at a stride; chunks of one modulus, or of 8,
        # cut the chains, and every value keeps its bits
        values = []

        def counting(v, m):
            values.append(len(v))
            return batch_mod_inverse(v, m)

        monkeypatch.setattr(forms, "batch_mod_inverse", counting)
        specs = [random_spec(32, N, A, 4, 1, seed) for N in (16, 32) for A in (8, 16) for seed in (1, 2)]
        phase_evaluations.clear()
        results = trilinear_forms(specs)
        Ls = {4 * n for n in range(17, 65)}
        maxima = sorted(L for L in Ls if 2 * L not in Ls)
        assert maxima == [4 * n for n in range(33, 65)]
        assert sum(values) == sum(1 for L in maxima for m in range(33, 65) if gcd(m, L) == 1)
        assert phase_evaluations == [("tables", maxima)]
        # a beta on L, 2L and 4L: the mean square takes the chain in its own order
        beta = build_sequence("random_unit", {20, 5, 10, 3, 12, 6}, seed=3)
        chain = TrilinearSpec(specs[0].alpha, beta, specs[0].nu, 1, 4)
        runs = []
        for pairs in (1, 2**8, forms._CHUNK_PAIRS):
            monkeypatch.setattr(forms, "_CHUNK_PAIRS", pairs)
            runs.append(([(r.value, r.terms) for r in trilinear_forms(specs + [chain])], mean_square_direct(chain)))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0][:-1] == [(r.value, r.terms) for r in results]
        assert runs[0][0][-1] == per_n_form(chain)
        assert runs[0][1] == per_n_mean_square(chain)


    @pytest.mark.parametrize("chain", ([3, 6, 12], [5, 10, 20, 40], [7, 14, 28, 56], [9, 18, 36, 72, 144]))
    @pytest.mark.parametrize("theta", (1, -5))
    def test_chain_gathers_from_its_top(self, monkeypatch, phase_evaluations, chain, theta):
        # the moduli of a chain read the one table of its top T, 12 and 40
        # among them with T % 8 != 0 (filled at lcm(T, 8)): a column of
        # L = T / s reads entry s (a t mod L) of T's table.  The gathered
        # block has the bytes of the per-cell rule at its scaled (t, T), and
        # each modulus's inner sums the bytes of the per-cell block at L
        monkeypatch.setattr(forms, "_fft_pays", lambda L, rows, A: False)
        gathered = []

        def recording(t_vals, a_vals, L, table=None, base=None):
            block = _phase_block(t_vals, a_vals, L, table, base)
            if table is not None:
                gathered.append(block.tobytes() == _phase_block(t_vals, a_vals, L).tobytes())
            return block

        monkeypatch.setattr(forms, "_phase_block", recording)
        T = chain[-1]
        ms = [m for m in range(-T, 3 * T) if gcd(m, T) == 1]
        a_idx = list(range(-3, 9))
        nu = np.exp(2j * np.pi * np.arange(len(a_idx)) / 7.3)
        yields = list(_coprime_inner_sums(theta, chain, [(ms, a_idx, [nu])]))
        assert [call for call in phase_evaluations if call[0] == "tables"] == [("tables", [T])]
        assert gathered == [True]
        seen = []
        for js, starts, _, sel, (sums,) in yields:
            bounds = [*starts.tolist(), len(sel)]
            for j, lo, hi in zip(js.tolist(), bounds, bounds[1:]):
                L = chain[j]
                seen.append(L)
                t_vals = [theta * pow(ms[k], -1, L) % L for k in sel[lo:hi]]
                assert sums[lo:hi].tobytes() == column_rule(_phase_block(t_vals, a_idx, L), nu).tobytes(), L
        assert seen == chain

    def test_blocks_and_tables_within_their_caps(self, monkeypatch, phase_evaluations):
        # two groups at L = 8n, n in (64, 256], chains L, 2L among them: the
        # (512 m's, 16 a's) group has up to 4,000 cells per modulus, so its
        # runs are cut into blocks near the cap; the (64 m's, 4 a's) group
        # has about 100, so its run in a sub-batch is one block.  No block
        # passes _CHUNK_PAIRS // 2 cells unless it holds one modulus, no
        # table call holds more than 2 * _CHUNK_PAIRS entries unless it
        # holds a single top, and every value is the lone one
        monkeypatch.setattr(forms, "_fft_pays", lambda L, rows, A: False)

        def recording(t_vals, a_vals, L, table=None, base=None):
            moduli = len(set(np.broadcast_to(L, len(t_vals)).tolist()))
            phase_evaluations.append(("block", len(a_vals), len(t_vals) * len(a_vals), moduli))
            return _phase_block(t_vals, a_vals, L, table, base)

        monkeypatch.setattr(forms, "_phase_block", recording)
        specs = [random_spec(M, N, A, 8, 1, seed)
                 for M, A in ((512, 16), (64, 4)) for N in (64, 128) for seed in (1, 2)]
        lone = [(r.value, r.terms) for r in map(trilinear_form, specs)]
        for pairs in (1, 2**8, forms._CHUNK_PAIRS):
            monkeypatch.setattr(forms, "_CHUNK_PAIRS", pairs)
            phase_evaluations.clear()
            assert [(r.value, r.terms) for r in trilinear_forms(specs)] == lone
            blocks = [call[1:] for call in phase_evaluations if call[0] == "block"]
            assert all(cells <= pairs // 2 or moduli == 1 for _, cells, moduli in blocks)
            tables = [call[1] for call in phase_evaluations if call[0] == "tables"]
            assert tables
            assert all(sum(Ls) <= 2 * pairs or len(Ls) == 1 for Ls in tables)
        # at the default, the large group's blocks come near the cap, and the
        # small group makes one block after each table call
        cap = forms._CHUNK_PAIRS // 2
        assert cap // 2 < max(cells for A, cells, _ in blocks if A == 16) <= cap
        small = [0]
        for call in phase_evaluations:
            if call[0] == "tables":
                small.append(0)
            elif call[:2] == ("block", 4):
                small[-1] += 1
        assert small == [0] + [1] * len(tables)
        assert max(moduli for A, _, moduli in blocks if A == 4) > 2 * max(moduli for A, _, moduli in blocks if A == 16)


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

    def test_support_indices_without_values(self):
        # the mean squares run over every m of the alpha support: 5 and 7 carry
        # no value but still add |S_m|^2 (13.60 at R = 1, against 2.0 on {3})
        alpha, lone = make_sequence({3: 1}, support={3, 5, 7}), make_sequence({3: 1})
        beta, nu = ones({4, 9}), ones({1, 2})
        for R in (1, 2):
            spec = spec_of(alpha, beta, nu, R=R)
            want = naive_mean_square(spec)
            assert math.isclose(mean_square_direct(spec), want, rel_tol=1e-12)
            assert math.isclose(mean_square_decomposed(spec), want, rel_tol=1e-12)
            assert not math.isclose(want, mean_square_direct(spec_of(lone, beta, nu, R=R)), rel_tol=1e-3)
        squarefree = ones({5, 6, 11})
        for b in (1, 2):
            spec = spec_of(alpha, squarefree, nu)
            want = naive_cb(spec, b)
            assert math.isclose(squarefree_mean_square(spec, b), want, rel_tol=1e-12)
            assert not math.isclose(want, squarefree_mean_square(spec_of(lone, squarefree, nu), b), rel_tol=1e-3)

    @pytest.mark.parametrize("fixed", (1, 2, 12, 2**61 - 1, 3 * 2**64))
    def test_coprime_m_match_gcd_list(self, monkeypatch, fixed):
        # the m's of the alpha support coprime to R, from one array gcd: the
        # same Python ints, in the same order, as a per-m gcd list
        support = [*range(-13, 40), fixed, 2 * fixed, fixed + 1, 3 * 2**63 + 1]
        spec = spec_of(make_sequence(dict.fromkeys(support, 1)), ones({1, 2}), ones({1, 3}), R=fixed)
        seen = []
        kernel = forms._coprime_inner_sums
        monkeypatch.setattr(forms, "_coprime_inner_sums",
                            lambda theta, Ls, groups: seen.append(groups[0][0]) or kernel(theta, Ls, groups))
        mean_square_direct(spec)
        want = [m for m in spec.alpha.support_indices() if gcd(m, fixed) == 1]
        assert seen == [want]
        assert all(type(m) is int for m in seen[0])

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
