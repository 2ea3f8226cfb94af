"""Exact evaluators for trilinear Kloosterman-fraction forms and mean squares.

The central objects:

- the trilinear form  sum_{a,m,n, (m,nR)=1} alpha_m beta_n nu_a e(theta a m^{-1} / (n R)),
- its mean square over the m's of the alpha support (outer |.|^2 over the
  inner a,n double sum),
- the same mean square re-evaluated through the complementary-divisor
  rewriting n = n' * b * r (n' squarefree and coprime to R, b the squarefull
  part, r | R squarefree), with a machine-checked bijection audit,
- the squarefree-restricted mean square with denominator n*b.

Evaluation is by direct enumeration, along one path.  The moduli L = nR
are taken a chunk of n's at a time, and one pass over each m list's rows
of the chunk gives each (L, list) its coprime m's and t = theta * m^{-1}
mod L by one of three branches: a list longer than L is folded mod L (the
inner a-sum depends only on m mod L) and reads t from the modulus's one
table over the units mod L, inverted by klab.arith's single-modulus rule;
an even L whose double 2L is in the chunk for the same list takes 2L's
m's and t_2L mod L, since L and 2L have the same primes; any other row
selects its m's from masks over the primes of L (or a gcd) and joins the
chunk's one batch of inverses.  Phases are reduced exactly mod 1 as integers
before any phase is evaluated, on int32, int64 or Python integers as
klab.arith decides from the kernel's bounds, and every phase comes from
klab.arith's one rule for e(k / L), which calls no libm.

The chunk's moduli are then cut into sub-batches of consecutive moduli,
capped by the table entries of their chain tops T (the moduli whose double
is not in the sub-batch), and each group of m's and a's gets (a x m) phase
blocks of capped size, one column per selected m at each modulus.  Once a
sub-batch's blocks have as many cells as its tops' tables have entries,
the int32 or int64 blocks gather their phases from one buffer of
klab.arith's tables e(k / T), a column at L = T / s at entry s k for its
residue k mod L, which has the rule's bits of e(k / L); so the buffer
changes no bit.
The inner sum of each column, and each modulus's sum of alpha_m times
them, follow one product rule in float parts (U = sum v Re c and W = sum v
Im c over the float view v, then (U_re - W_im) + i (W_re + U_im)), with no
BLAS call and no complex product: each column's sum adds in index order
of a, and each modulus's in the order np.add.reduceat fixes by its rows
alone.  So the bits do not depend on the OpenBLAS core or on numpy's SIMD
groups, nor on where the chunks and sub-batches fall.

One gate decides, per group and modulus, whether a block is built: one
whose rows x A cells would exceed about L log2 L + A is not, and the inner
sums of its rows come from one FFT of nu folded mod L, S(t) = sum_k w_k
e(t k / L) with w_k the sum of the nu_a with a = k mod L, gathered at
their t's.  Below that gate every sum is bit-identical to one modulus, one
m and one phase per term at a time; above it the sums agree with
that to within 1e-12 relative (at most 4e-14 measured on the benchmark's
unbalanced points), and no point of the desk sweeps reaches it.
:func:`trilinear_forms` evaluates the forms with the same theta, as the
points of a sweep are, in one enumeration of the union of their moduli,
ordered so that each chain L, 2L, 4L is adjacent: forms with the same
alpha support share its coprimality masks and inverses, those with the
same nu support as well share each phase block at the moduli they need,
built once and reduced once against each distinct nu, so sharing changes
no bit either.  Each form value fsums its moduli's float-part products
beta_n times the alpha sum; only a mean square's S_m is Kahan-compensated,
and its squares are fsummed, so identity checks hold to 1e-9 over grids
with millions of summands.  All evaluators are pure functions; the outer
loops can be partitioned across workers and merged in index order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import fsum, gcd
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import (
    _exact_ints, _fits_int64, _lane_ints, _unit_inverses, _unit_mask, batch_mod_inverse, factorize, is_squarefree,
    is_squarefull, radical, squarefree_squarefull_split, unit_phase_tables, unit_phases,
)
from .sequences import CoefficientSequence, _csum

__all__ = [
    "DecompositionMismatch",
    "TrilinearSpec",
    "FormResult",
    "trilinear_form",
    "trilinear_forms",
    "mean_square_direct",
    "mean_square_decomposed",
    "squarefree_mean_square",
    "complementary_split",
]

# About this many (m, L) pairs share one chunk and its one batch of inverses;
# a sub-batch's table holds at most twice as many entries, a block half as many cells.
_CHUNK_PAIRS = 2**15


class DecompositionMismatch(ValueError):
    """The complementary-divisor reassembly failed to reproduce the original indices."""


@dataclass(frozen=True)
class TrilinearSpec:
    """Inputs of the trilinear form: three coefficient sequences, the integer
    phase multiplier theta != 0 and the fixed denominator factor R >= 1;
    the beta indices n are at least 1, so every modulus nR is positive.
    The mean squares run over the m's of the alpha support, including those
    where alpha vanishes."""

    alpha: CoefficientSequence
    beta: CoefficientSequence
    nu: CoefficientSequence
    theta: int
    R: int = 1

    def __post_init__(self):
        if self.theta == 0:
            raise ValueError("theta must be a nonzero integer")
        if self.R < 1:
            raise ValueError(f"R must be positive, got {self.R}")
        if (low := min(self.beta.support_indices(), default=1)) < 1:
            raise ValueError(f"beta indices must be positive, got {low}")


@dataclass(frozen=True)
class FormResult:
    """Value of a sum and the number of accumulated summands."""

    value: complex
    terms: int


def _coprime(
    m_arr: np.ndarray, L: int, kept: dict[int, np.ndarray], cap: int, primes: dict[int, dict[int, int]]
) -> np.ndarray:
    """Whether gcd(m, L) = 1, for each m of ``m_arr``.  An L below
    len(m_arr) squared, whose trial division costs less than a row of gcds,
    takes the AND over its primes p of m mod p != 0, and the masks of the
    primes up to ``cap`` are kept in ``kept`` for later moduli and the
    factorizations in ``primes`` for the other m lists; any other L takes
    np.gcd."""
    if L >= len(m_arr) ** 2:
        return np.gcd(m_arr, L) == 1
    if L not in primes:
        primes[L] = factorize(L)
    row = np.ones(len(m_arr), dtype=bool)
    for p in primes[L]:
        if p not in kept:
            if p > cap:
                row &= m_arr % p != 0
                continue
            kept[p] = m_arr % p != 0
        row &= kept[p]
    return row


def _phase_block(
    t_vals: Sequence[int], a_vals: Sequence[int], L, table: np.ndarray | None = None, base: np.ndarray | None = None
) -> np.ndarray:
    """Matrix of e(t*a / L) over (a, t), one column per t, where L is one
    modulus or one per t; exact integer reduction mod L first, for the
    bound max L * max |a|.

    Within int64, a block gathers from ``table`` at ``base`` plus its
    residues when a table is given, ``base`` giving for each column where
    the values e(k / L) of its modulus, k in [0, L), begin, on the lanes of
    :func:`_lane_ints` for the bound plus max ``base``; otherwise, and on
    Python integers, where ``table`` and ``base`` are not used, it applies
    :func:`unit_phases` to the residues of :func:`_exact_ints`, cell by
    cell.  Each table entry has the bits of that rule at its integer (see
    :func:`unit_phase_tables`), so every path gives the same bits.
    ``t_vals`` may be a list or an array; ``a_vals`` is sorted, so that its
    largest |a| is at one of its ends.
    """
    bound = int(np.max(L)) * (int(max(-a_vals[0], a_vals[-1])) if len(a_vals) else 0)
    lanes = _exact_ints
    if table is not None and _fits_int64(bound):
        # the gather's index, residue + base, is below bound + max(base)
        lanes, bound = _lane_ints, bound + int(np.max(base))
    residue = lanes(a_vals, bound)[:, None] * lanes(t_vals, bound)[None, :]
    residue %= lanes(L, bound)
    if table is None or residue.dtype == object:
        return unit_phases(residue, L)
    residue += lanes(base, bound)
    return table.take(residue)


def _column_sums(block: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """The one product rule of this module, down the columns of a phase
    block: for each column i of ``nus`` and each column of ``block``, the
    sum over k of nus[k, i] * block[k, column], as row i of the result.
    With v the float view (re, im) of the block, U = sum_k v_k Re nu_k and
    W = sum_k v_k Im nu_k accumulate in index order of k, and the sum is
    (U_re - W_im) + i (W_re + U_im).  No BLAS call and no complex product
    is made; both round as the CPU's kernels do.
    """
    S = np.einsum("kr,kq->qr", block.view(np.float64), nus.view(np.float64))
    sums = np.empty((nus.shape[1], block.shape[1]), dtype=complex)
    f = sums.view(np.float64)
    np.subtract(S[0::2, 0::2], S[1::2, 1::2], out=f[:, 0::2])
    np.add(S[1::2, 0::2], S[0::2, 1::2], out=f[:, 1::2])
    return sums


def _segment_sums(x: np.ndarray, c: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The rule of :func:`_column_sums` along each row of x and c, per
    segment: the sums over k in [starts[s], starts[s + 1]) of c[i, k] x[i, k],
    with U and W from ``np.add.reduceat``, which fixes each segment's order
    by the segment alone."""
    x_re, x_im, c_re, c_im = x.real, x.imag, c.real, c.imag
    terms = np.empty((4, *x.shape))
    np.multiply(x_re, c_re, out=terms[0])
    np.multiply(x_im, c_re, out=terms[1])
    np.multiply(x_re, c_im, out=terms[2])
    np.multiply(x_im, c_im, out=terms[3])
    U_re, U_im, W_re, W_im = np.add.reduceat(terms, starts, axis=2)
    sums = np.empty(U_re.shape, dtype=complex)
    np.subtract(U_re, W_im, out=sums.real)
    np.add(W_re, U_im, out=sums.imag)
    return sums


def _times(c, x: np.ndarray) -> np.ndarray:
    """The products c * x from float parts, (c_re x_re - c_im x_im) +
    i (c_re x_im + c_im x_re), for a complex scalar c or an array c of x's
    shape."""
    v = x.view(np.float64).reshape(*x.shape, 2)
    if isinstance(c, np.ndarray):
        c = c[..., None]
    U, W = v * c.real, v * c.imag
    U[..., 0] -= W[..., 1]
    U[..., 1] += W[..., 0]
    return U.view(complex)[..., 0]


def _fft_pays(L: int, rows: int, A: int) -> bool:
    """Whether a group's sums at modulus L come from one FFT: its rows x A
    phase cells against about L log2 L FFT steps plus the A-term fold."""
    return rows * A > L * L.bit_length() + A


def _dft_sums(t_rows: np.ndarray, a_arr: np.ndarray, L: int, nus: list[np.ndarray]) -> np.ndarray:
    """For each nu, sum_a nu_a e(t a / L) at each t of ``t_rows``, as the rows
    of the result: nu folded mod L into w, whose unnormalised inverse DFT
    S(t) = sum_k w_k e(t k / L) one FFT gives at every t at once.  ``a_arr``
    holds the a's as exact integers."""
    a_res = (a_arr % L).astype(np.int64)
    t_idx = np.asarray(t_rows, dtype=np.int64)
    sums = np.empty((len(nus), len(t_idx)), dtype=complex)
    for nu, row in zip(nus, sums):
        w = np.empty(L, dtype=complex)
        w.real = np.bincount(a_res, weights=nu.real, minlength=L)
        w.imag = np.bincount(a_res, weights=nu.imag, minlength=L)
        np.take(np.fft.ifft(w, norm="forward"), t_idx, out=row)
    return sums


def _unit_table(theta: int, L: int, factors: dict[int, int]) -> np.ndarray:
    """theta * r^{-1} mod L at each residue r mod L, and -1 at the non-units,
    for L with the factorization ``factors``: the units, from klab.arith's
    :func:`_unit_mask`, are inverted by its one rule, :func:`_unit_inverses`,
    and theta is reduced mod L before the product."""
    units = np.flatnonzero(_unit_mask(L, factors))
    table = np.full(L, -1)
    table[units] = theta % L * _unit_inverses(units, L, factors) % L
    return table


# A kernel group: the m's, the a's (each sorted), and the coefficient vectors nu indexed by the a's.
_Group = tuple[Sequence[int], Sequence[int], list[np.ndarray]]
# A kernel yield: the modulus indices js, where each one's rows start, the
# group, the rows' positions sel in its m list, and one row of inner sums per nu.
_Sums = tuple[np.ndarray, np.ndarray, int, np.ndarray, np.ndarray]


def _coprime_inner_sums(
    theta: int, Ls: list[int], groups: Sequence[_Group], needs: Sequence[np.ndarray] | None = None
) -> Iterator[_Sums]:
    """For the moduli ``Ls[j]`` in order, and each group g = (ms, a_idx, nus)
    of ``groups`` with some m in ms coprime to them, yield (js, starts, g,
    sel, sums): the indices js of one or more moduli, in increasing order,
    where each one's rows start, the positions ``sel`` of the coprime m's
    in ms, row by row, and, as row i of ``sums``, the inner sums sum_a
    nu_a e(theta a m^{-1} / L) of the i-th nu.  Each group's yields come in
    modulus order.  With ``needs``, group g is evaluated only at the
    moduli where the boolean row ``needs[g]`` is set; otherwise at every
    modulus.

    The moduli are taken a chunk at a time, about ``_CHUNK_PAIRS`` (m, L)
    pairs per chunk over the distinct m lists, and one pass over each m
    list's rows of the chunk, the moduli where one of its groups is
    evaluated, gives each row the positions ``sel`` of its coprime m's and
    their t = theta * m^{-1} mod L by exactly one branch.  Fold: a list
    longer than L reads t at each m's residue in the modulus's one table
    of theta * r^{-1} mod L, which marks the non-units as not coprime: the
    first such row builds it by :func:`_unit_table`, the chunk's other
    lists read it, and it is dropped once the chunk's rows have passed.
    Double: an even L whose double 2L is in the chunk and wanted by the
    same list takes 2L's ``sel``, L and 2L having the same primes, and t =
    t_2L mod L.  Invert: any other row selects its m's by :func:`_coprime`
    and joins the chunk's one :func:`batch_mod_inverse` call.  So groups
    that differ only in their a's share both the selection and the
    inverses, which do not depend on the a's.  The m and a lists are
    sorted, so that their ends bound them.

    The chunk's moduli are then cut into sub-batches of consecutive moduli
    whose chain tops' tables hold at most 2 * ``_CHUNK_PAIRS`` entries,
    unless one top alone passes it.  One gate, :func:`_fft_pays`, reads
    each group's own (L, rows, A) at each modulus: a group that reaches it
    builds no block there and takes its sums from :func:`_dft_sums`, one
    modulus per yield, within 1e-12 relative of the block's.  Every other
    run of a group's consecutive moduli in a sub-batch gets (a x m) phase
    blocks from :func:`_sub_batch_sums`, on int64 or, for the moduli whose
    phases need them, on Python integers, each reduced against every nu at
    once by :func:`_column_sums`.  Each column's sum depends on that column
    alone, so a family, a lone evaluation and one modulus at a time agree
    bit for bit wherever the chunks, sub-batches and blocks fall.  A block
    is released before the yield.
    The m's, L's and a's are on the lanes of :func:`_lane_ints` for the
    bound max(|m|, |theta| * L), which covers theta * m^{-1} (the a's also
    for max |a|).
    """
    supports: dict[tuple[int, ...], list[int]] = {}
    for g, (ms, a_idx, _) in enumerate(groups):
        if ms and a_idx:
            supports.setdefault(tuple(ms), []).append(g)
    if not supports:
        return
    # the lists are sorted, so each one's largest |m| or |a| is at one of its ends
    bound = max(max(max(-ms[0], ms[-1]) for ms in supports), max(Ls, default=0) * abs(theta))
    m_arrs = [_lane_ints(ms, bound) for ms in supports]
    members = list(supports.values())
    a_max = [max(-a_idx[0], a_idx[-1]) if a_idx else 0 for _, a_idx, _ in groups]
    # the FFT path reduces the a's mod L, which the bound covers
    a_arrs = [_lane_ints(a_idx, max(top, bound)) for (_, a_idx, _), top in zip(groups, a_max)]
    coefs = [np.stack(nus, axis=1) for _, _, nus in groups]
    # whether each group is evaluated at each modulus, and whether any of each m list's groups is
    wanted = np.ones((len(groups), len(Ls)), dtype=bool) if needs is None else np.stack(needs)
    listed = [wanted[gs].any(axis=0) for gs in members]
    L_all = _lane_ints(Ls, bound)
    primes: dict[int, dict[int, int]] = {}
    # each folded modulus's table of theta * r^{-1} mod L, -1 at the non-units
    t_of_r: dict[int, np.ndarray] = {}
    rows = max(1, _CHUNK_PAIRS // sum(map(len, m_arrs)))
    coprime: list[dict[int, np.ndarray]] = [{} for _ in m_arrs]
    for j0 in range(0, len(Ls), rows):
        L_chunk = Ls[j0:j0 + rows]
        row_of = {L: i for i, L in enumerate(L_chunk)}
        # per row, each m list's (sel, t_rows)
        found: list[dict[int, tuple[np.ndarray, np.ndarray]]] = [{} for _ in L_chunk]
        # (i, s, sel) for an m list at row i whose selected m's take inverses,
        # and (i, s, row of 2L) for one that takes its data from the double
        pending: list[tuple[int, int, np.ndarray]] = []
        doubles: list[tuple[int, int, int]] = []
        for s, m_arr in enumerate(m_arrs):
            need = listed[s][j0:j0 + rows]
            for i in np.flatnonzero(need).tolist():
                L = L_chunk[i]
                if L < len(m_arr):
                    if L not in t_of_r:
                        if L not in primes:
                            primes[L] = factorize(L)
                        t_of_r[L] = _unit_table(theta, L, primes[L])
                    t_m = t_of_r[L].take(_lane_ints(m_arr % L, L))
                    sel = np.flatnonzero(t_m >= 0)
                    found[i][s] = (sel, t_m[sel])
                elif L % 2 == 0 and (double := row_of.get(2 * L)) is not None and need[double]:
                    doubles.append((i, s, double))
                elif (sel := np.flatnonzero(_coprime(m_arr, L, coprime[s], rows, primes))).size:
                    pending.append((i, s, sel))
        # the rows of the chunk have read its tables
        t_of_r.clear()
        if pending:
            counts = [len(sel) for *_, sel in pending]
            L_rows = np.repeat(L_all[[j0 + i for i, _, _ in pending]], counts)
            t = theta * batch_mod_inverse(np.concatenate([m_arrs[s][sel] for _, s, sel in pending]), L_rows) % L_rows
            for (i, s, sel), t_rows in zip(pending, np.split(t, np.cumsum(counts)[:-1])):
                found[i][s] = (sel, t_rows)
        # from the top of each chain down, so that 2L's data is there before L's
        for i, s, double in sorted(doubles, key=lambda entry: L_chunk[entry[0]], reverse=True):
            if s in found[double]:
                sel, t_rows = found[double][s]
                found[i][s] = (sel, t_rows % L_chunk[i])
        batch: dict[int, list[tuple]] = {}
        # the sub-batch's moduli with an int64 block, and the entries of their chain tops
        tabled: set[int] = set()
        table_size = 0
        for i, row in enumerate(found):
            L = L_chunk[i]
            # (g, sel, t_rows, path): path 0 for a block on int64, 1 for a block
            # on Python integers, 2 for an FFT
            entries = []
            for s, (sel, t_rows) in row.items():
                for g in members[s] if sel.size else ():
                    if wanted[g, j0 + i]:
                        path = 2 if _fft_pays(L, len(sel), len(a_arrs[g])) else int(not _fits_int64(L * a_max[g]))
                        entries.append((g, sel, t_rows, path))
            if any(path == 0 for *_, path in entries):
                # L is a top unless 2L is tabled, and L / 2 stops being one
                grow = L * (2 * L not in tabled) - (L // 2 if L % 2 == 0 and L // 2 in tabled else 0)
                if tabled and table_size + grow > 2 * _CHUNK_PAIRS:
                    yield from _sub_batch_sums(batch, groups, a_arrs, coefs)
                    batch, tabled, table_size, grow = {}, set(), 0, L
                tabled.add(L)
                table_size += grow
            for g, sel, t_rows, path in entries:
                batch.setdefault(g, []).append((j0 + i, L, sel, t_rows, path))
        if batch:
            yield from _sub_batch_sums(batch, groups, a_arrs, coefs)


def _sub_batch_sums(
    batch: dict[int, list[tuple]], groups: Sequence[_Group], a_arrs: list[np.ndarray], coefs: list[np.ndarray]
) -> Iterator[_Sums]:
    """The yields of :func:`_coprime_inner_sums` for one sub-batch, given as
    each group's entries (j, L, sel, t_rows, path) in modulus order: an FFT
    per modulus, and the blocks of each run of consecutive moduli on the
    same block path, of at most ``_CHUNK_PAIRS // 2`` cells or one modulus.
    Once they have as many cells as the tables of their chain tops (the
    moduli T whose double has no int64 block here) have entries, the int64
    blocks gather from one :func:`unit_phase_tables` buffer of those: a
    column of L = T / s takes t scaled by s and the modulus T, and
    a (s t) mod T = s (a t mod L) is the entry of T's table with the bits
    of e(a t / L)."""
    top: dict[int, int] = {}
    for L in sorted({L for entries in batch.values() for _, L, _, _, path in entries if not path}, reverse=True):
        top[L] = top.get(2 * L, L)
    cells = sum(len(sel) * len(a_arrs[g]) for g, entries in batch.items() for _, _, sel, _, path in entries if not path)
    table, begin = None, {}
    tops = [T for L, T in top.items() if T == L]
    if top and cells >= sum(tops):
        table, begin = unit_phase_tables(tops)
    cap = _CHUNK_PAIRS // 2
    for g, entries in batch.items():
        _, a_idx, nus = groups[g]
        for path, run in itertools.groupby(entries, key=lambda entry: entry[-1]):
            if path == 2:
                for j, L, sel, t_rows, _ in run:
                    yield np.array([j]), np.zeros(1, dtype=np.int64), g, sel, _dft_sums(t_rows, a_arrs[g], L, nus)
                continue
            for block_entries in _cut(run, cap // len(a_idx)):
                js, Ls, sels, t_rows, _ = zip(*block_entries)
                counts = np.fromiter(map(len, sels), dtype=np.int64, count=len(sels))
                t_vals = np.concatenate(t_rows)
                if table is not None and path == 0:
                    Ts = [top[L] for L in Ls]
                    t_vals = t_vals * np.repeat([T // L for T, L in zip(Ts, Ls)], counts)
                    block = _phase_block(t_vals, a_idx, np.repeat(Ts, counts), table,
                                         np.repeat([begin[T] for T in Ts], counts))
                else:
                    block = _phase_block(t_vals, a_idx, np.asarray(Ls).repeat(counts))
                sums = _column_sums(block, coefs[g])
                del block
                yield np.asarray(js), counts.cumsum() - counts, g, np.concatenate(sels), sums


def _cut(entries: Iterator[tuple], rows: int) -> Iterator[list[tuple]]:
    """``entries`` (j, L, sel, ...) in order, in lists of at most ``rows``
    rows of sel in all, or of one entry with more."""
    run, total = [], 0
    for entry in entries:
        if run and total + len(entry[2]) > rows:
            yield run
            run, total = [], 0
        run.append(entry)
        total += len(entry[2])
    if run:
        yield run


def trilinear_form(spec: TrilinearSpec) -> FormResult:
    """Evaluate the trilinear sum by direct triple enumeration.

    Triples (a, m, n) with gcd(m, nR) > 1 are skipped per the summation
    condition; indices whose coefficient vanishes produce no summand, so
    ``terms`` counts exactly the accumulated triples.
    """
    return trilinear_forms([spec])[0]


def trilinear_forms(specs: Sequence[TrilinearSpec]) -> list[FormResult]:
    """:func:`trilinear_form` of each spec, in order.

    The specs with the same theta run one :func:`_coprime_inner_sums`
    enumeration over the union of their moduli L = nR, ordered by the odd
    part of L and then by L, so that each chain L, 2L, 4L, ... is adjacent.
    Within it, specs with the same nonzero alpha indices share their
    coprimality masks and inverses, and those that also have the same
    nonzero nu indices form one kernel group, evaluated only at the moduli
    its own specs need: it shares each phase block, reduced once against
    each distinct nu vector.  Each distinct (alpha, nu) pair of a group
    takes each modulus's sum of alpha_m times the inner sums once, by the
    rule of :func:`_segment_sums`.  Each spec then picks the sums at its own
    moduli, multiplies them by beta_n in float parts and sums the products
    with fsum, and its ``terms`` counts its own moduli; so every value has
    the bits of a lone evaluation.
    """
    families: dict[int, dict[tuple, list[int]]] = {}
    for i, spec in enumerate(specs):
        families.setdefault(spec.theta, {}).setdefault((spec.alpha.indices, spec.nu.indices), []).append(i)
    # one list of moduli per distinct (beta indices, R), shared by its specs
    keys = [(spec.beta.indices, spec.R) for spec in specs]
    moduli = {key: [n * key[1] for n in key[0]] for key in dict.fromkeys(keys)}
    results: dict[int, FormResult] = {}
    for theta, family in families.items():
        lists = dict.fromkeys(keys[i] for idx in family.values() for i in idx)
        # by odd part, then size: L = odd * 2**k with k the trailing zeros of L
        Ls = sorted({L for key in lists for L in moduli[key]},
                    key=lambda L: (L >> (L & -L).bit_length() - 1, L))
        where = {L: j for j, L in enumerate(Ls)}
        # each list's column indices
        columns = {key: np.asarray([where[L] for L in moduli[key]], dtype=np.int64) for key in lists}
        groups, needs, reductions = [], [], []
        for (ms, a_idx), idx in family.items():
            cols = [columns[keys[i]] for i in idx]
            need = np.zeros(len(Ls), dtype=bool)
            need[np.concatenate(cols)] = True
            needs.append(need)
            # the distinct nu vectors, and the distinct (alpha, nu) pairs
            nus: dict[bytes, tuple[int, np.ndarray]] = {}
            pairs: dict[tuple[bytes, int], tuple[int, np.ndarray, int]] = {}
            picks = []
            for i, at in zip(idx, cols):
                alpha, beta, nu = (seq.coeffs for seq in (specs[i].alpha, specs[i].beta, specs[i].nu))
                k = nus.setdefault(nu.tobytes(), (len(nus), nu))[0]
                p = pairs.setdefault((alpha.tobytes(), k), (len(pairs), alpha, k))[0]
                picks.append((i, p, at, beta))
            groups.append((ms, a_idx, [nu for _, nu in nus.values()]))
            _, alphas, nu_of = zip(*pairs.values())
            # each pair's row of inner sums (None when pair k takes row k), its
            # segment sum at each modulus (0 where no m is coprime or the group
            # is not evaluated), and the coprime m's at each modulus
            rows = None if nu_of == tuple(range(len(nus))) else np.asarray(nu_of)
            reductions.append((np.stack(alphas), rows, np.zeros((len(pairs), len(Ls)), dtype=complex), [0] * len(Ls),
                               picks))
        for js, starts, g, sel, inners in _coprime_inner_sums(theta, Ls, groups, needs):
            alphas, rows, segments, counts, _ = reductions[g]
            x = inners if rows is None else inners[rows]
            segments[:, js] = _segment_sums(x, np.take(alphas, sel, axis=1), starts)
            bounds = [*starts.tolist(), len(sel)]
            for j, lo, hi in zip(js.tolist(), bounds, bounds[1:]):
                counts[j] = hi - lo
        for (_, a_idx), (*_, segments, counts, picks) in zip(family, reductions):
            counts = np.asarray(counts)
            for i, p, at, beta in picks:
                results[i] = FormResult(_csum(_times(beta, segments[p, at])), len(a_idx) * int(counts[at].sum()))
    return [results[i] for i in range(len(specs))]


def _kahan_vadd(total: np.ndarray, comp: np.ndarray, idx: np.ndarray | list[int], delta: np.ndarray) -> None:
    """Compensated in-place total[idx] += delta."""
    c, s = comp[idx], total[idx]
    y = delta - c
    t = s + y
    comp[idx] = (t - s) - y
    total[idx] = t


def _mean_square(spec: TrilinearSpec, fixed: int, groups: list[tuple[int, complex, int]]) -> float:
    """Sum over the m coprime to ``fixed`` (R or b) of |S_m|^2, where S_m sums
    beta_n * sum_a nu_a e(theta a m^{-1} / L) over the supplied (n, beta_n, L)
    triples with (m, L) = 1; 0.0 when no m remains.

    S_m is Kahan-accumulated in the group order given by the caller, and the
    squares are summed with fsum.
    """
    support = spec.alpha.support_indices()  # sorted, so the largest |m| is at an end
    coprime = np.gcd(_exact_ints(support, max(-support[0], support[-1], fixed)), fixed) == 1
    ms = list(itertools.compress(support, coprime.tolist()))
    inner = np.zeros(len(ms), dtype=complex)
    comp = np.zeros(len(ms), dtype=complex)
    Ls = [L for _, _, L in groups]
    for js, starts, _, sel, (sums,) in _coprime_inner_sums(spec.theta, Ls, [(ms, spec.nu.indices, [spec.nu.coeffs])]):
        bounds = [*starts.tolist(), len(sel)]
        for j, lo, hi in zip(js.tolist(), bounds, bounds[1:]):
            _kahan_vadd(inner, comp, sel[lo:hi], _times(groups[j][1], sums[lo:hi]))
    return fsum((inner.real * inner.real + inner.imag * inner.imag).tolist())


def mean_square_direct(spec: TrilinearSpec) -> float:
    """Mean square over m in the alpha support with (m, R) = 1 of the inner (a, n)
    double sum with phases e(theta a m^{-1} / (n R)) restricted to (m, n) = 1."""
    groups = [(n, bn, n * spec.R) for n, bn in spec.beta.nonzero_items()]
    return _mean_square(spec, spec.R, groups)


def complementary_split(n: int, R: int) -> tuple[int, int, int]:
    """Unique factorization n = n' * b * r with b the squarefull part of n,
    r | R the squarefree product of primes of n shared with R, and n'
    squarefree and coprime to both b and R."""
    split = squarefree_squarefull_split(n)
    r = gcd(split.squarefree_part, radical(R))
    return split.squarefree_part // r, split.squarefull_part, r


def mean_square_decomposed(
    spec: TrilinearSpec,
    _split: Callable[[int, int], tuple[int, int, int]] = complementary_split,
) -> float:
    """Same quantity as :func:`mean_square_direct`, evaluated through the
    complementary-divisor grouping of the n-indices.

    Every original index n is split as n = n' * b * r and the sum is
    re-accumulated group by group (b, r) in increasing order, so the result
    must agree with the direct evaluation up to summation order.  The split
    of each n is audited: if n' * b * r is not n, or a part lacks its
    advertised property, :class:`DecompositionMismatch` is raised, so the
    groups hold each original index exactly once.
    """
    R = spec.R
    groups: dict[tuple[int, int], list[tuple[int, complex]]] = {}
    for n, bn in spec.beta.nonzero_items():
        nprime, b, r = _split(n, R)
        if nprime * b * r != n:
            raise DecompositionMismatch(f"split of {n} reassembles to {nprime * b * r}")
        if not is_squarefree(nprime) or not is_squarefull(b):
            raise DecompositionMismatch(f"split of {n} has invalid parts ({nprime}, {b}, {r})")
        if R % r != 0 or not is_squarefree(r):
            raise DecompositionMismatch(f"split of {n} yields r = {r} not a squarefree divisor of R")
        if gcd(nprime, R) != 1 or gcd(nprime, b) != 1:
            raise DecompositionMismatch(f"split of {n} leaves n' = {nprime} sharing factors")
        groups.setdefault((b, r), []).append((nprime, bn))

    ordered = []
    for (b, r) in sorted(groups):
        for nprime, bn in sorted(groups[(b, r)]):
            n = nprime * b * r
            ordered.append((n, bn, n * R))
    return _mean_square(spec, R, ordered)


def squarefree_mean_square(spec: TrilinearSpec, b: int) -> float:
    """Mean square over m of the inner (a, n) sum restricted to squarefree n
    with (mb, n) = 1 and denominator n*b.

    The fixed factor R carried by ``spec`` plays no role here.  Outer indices m with
    gcd(m, b) > 1 are skipped: the inverse of m mod n*b does not exist for
    them, so they carry no well-defined summand.
    """
    if b < 1:
        raise ValueError(f"b must be positive, got {b}")
    groups = [
        (n, bn, n * b)
        for n, bn in spec.beta.nonzero_items()
        if gcd(n, b) == 1 and is_squarefree(n)
    ]
    return _mean_square(spec, b, groups)
