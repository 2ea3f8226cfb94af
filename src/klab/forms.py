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
are taken a chunk of n's at a time, and each m list at each modulus of a
chunk becomes one entry of the chunk's one batch of inverses: the m's
coprime to L, from one gcd mask per chunk, for a list no longer than L,
and the units mod L for a longer one, which is folded mod L and reads each
m's t = theta * m^{-1} mod L from the table its entry's inverses fill (the
inner a-sum depends only on m mod L).  Each n keeps its own phase block,
one row per selected m.  Phases are reduced exactly mod 1 as integers
before any transcendental call, on int64 or on Python integers as
klab.arith decides.  Once the blocks at one modulus have at least L cells
together, the kernel computes the L values e(k / L) once and the int64
blocks gather their phases from that table; each entry is the same
expression as a per-cell phase, so the table changes no bit of any value.
One gate decides, per group and modulus, whether a block is built: one
whose rows x A cells would exceed about L log2 L + A is not, and the inner
sums of its rows come from one FFT of nu folded mod L, S(t) = sum_k w_k
e(t k / L) with w_k the sum of the nu_a with a = k mod L, gathered at
their t's.  Below that gate every sum is bit-identical to one modulus, one
m and one exponential per term at a time; above it the sums agree with
that to within 1e-12 relative (at most 4e-14 measured on the benchmark's
unbalanced points), and no point of the desk sweeps reaches it.
:func:`trilinear_forms` evaluates a family of forms with the same theta, R
and nonzero beta indices, as the points of a sweep with the same (N, R,
theta) are, in one enumeration of their moduli: forms with the same alpha
support share its gcd masks and inverses, those with the same nu support
as well share each phase block, built once and reduced against each nu in
turn with the same products as a lone evaluation, so sharing changes no
bit either.  Accumulation is Kahan-compensated so identity checks hold to
1e-9 over grids with millions of summands.  All evaluators are pure
functions; the outer loops can be partitioned across workers and merged in
index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, gcd
from typing import Callable, Iterator, Sequence

import numpy as np

from .arith import (
    _exact_ints, batch_mod_inverse, is_squarefree, is_squarefull, radical, squarefree_squarefull_split,
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

# About this many (m, L) pairs share one gcd mask and one batch of inverses.
_CHUNK_PAIRS = 2**14


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


def _phase_block(
    t_vals: Sequence[int], a_vals: list[int], L: int, table: np.ndarray | None = None
) -> np.ndarray:
    """Matrix of e(t*a / L) over (t, a) for t in [0, L); exact integer
    reduction mod L first, on the arrays that :func:`_exact_ints` gives for
    the bound L * max |a|.

    In int64, a block gathers from ``table``, the L values e(k / L) for k
    in [0, L), at its residues when one is given, and otherwise computes
    one exponential per cell; each table entry is the same float expression
    on the same integer as the per-cell phase, so both give the same bits.
    On Python integers the angle is formed as ``2j * pi * residue / L``,
    one Python operation per cell, before a single ``np.exp``, and
    ``table`` is not used.  ``t_vals`` may be a list or an array.
    """
    bound = L * max(map(abs, a_vals), default=0)
    residue = (_exact_ints(t_vals, bound)[:, None] * _exact_ints(a_vals, bound)[None, :]) % L
    if residue.dtype == object:
        return np.exp((2j * np.pi * residue / L).astype(complex))
    if table is None:
        return np.exp((2j * np.pi) * (residue / L))
    return table[residue]


def _fft_pays(L: int, rows: int, A: int) -> bool:
    """Whether a group's sums at modulus L come from one FFT: its rows x A
    phase cells against about L log2 L FFT steps plus the A-term fold."""
    return rows * A > L * L.bit_length() + A


def _dft_sums(t_rows: np.ndarray, a_vals: list[int], L: int, nus: list[np.ndarray]) -> list[np.ndarray]:
    """For each nu, sum_a nu_a e(t a / L) at each t of ``t_rows``: nu folded
    mod L into w, whose unnormalised inverse DFT S(t) = sum_k w_k e(t k / L)
    one FFT gives at every t at once."""
    a_res = (_exact_ints(a_vals, max(map(abs, a_vals))) % L).astype(np.int64)
    t_idx = np.asarray(t_rows, dtype=np.int64)
    sums = []
    for nu in nus:
        w = np.bincount(a_res, weights=nu.real, minlength=L) + 1j * np.bincount(a_res, weights=nu.imag, minlength=L)
        sums.append(np.fft.ifft(w, norm="forward")[t_idx])
    return sums


# A kernel group: the m's, the a's, and the coefficient vectors nu indexed by the a's.
_Group = tuple[list[int], list[int], list[np.ndarray]]


def _coprime_inner_sums(
    theta: int, Ls: list[int], groups: Sequence[_Group]
) -> Iterator[tuple[int, int, np.ndarray, list[np.ndarray]]]:
    """For each modulus ``Ls[j]`` in order, and each group g = (ms, a_idx,
    nus) of ``groups`` in order with some m in ms coprime to it, yield j, g,
    the positions ``sel`` of those m's in ms and, for each nu in nus, their
    inner sums sum_a nu_a e(theta a m^{-1} / L).

    The moduli are taken a chunk at a time, about ``_CHUNK_PAIRS`` (m, L)
    pairs per chunk over the distinct m lists.  Each m list at each modulus
    of the chunk is one entry (s, sel, key) of the chunk's one
    :func:`batch_mod_inverse` call, which inverts the keys of all entries
    at once, so groups that differ only in their a's share both the
    selection and the inverses; t = theta * key^{-1} mod L is formed as an
    array.  An m list no longer than L gets one gcd mask per chunk, and its
    entry holds the positions ``sel`` of its coprime m's and those m's.
    One longer than L is folded mod L: its entry holds None and the units r
    mod L, and each m reads its t from the table of theta * r^{-1} mod L at
    its residue, which marks the non-units as not coprime.  Whether a list
    folds rests on its length and L alone, so the inverses do not depend on
    the a's.

    Each group gets one row of phases per selected m at each modulus, built
    once and multiplied by each nu in turn; when the blocks of one modulus
    L have at least L cells together, one table of e(k / L) is built for
    them all, and otherwise none.  These sums equal the one-modulus-at-a-
    time, one-vector-at-a-time evaluation bit for bit.  The one gate,
    :func:`_fft_pays`, reads each group's own (L, rows, A): a group that
    reaches it builds no block and takes its sums from :func:`_dft_sums`,
    within 1e-12 relative of the block's, so a family, a lone evaluation and
    one modulus at a time still agree bit for bit.  A block is released
    before the yield.  The m's and L's are exact integer arrays for the
    bound max(|m|, |theta| * L), which covers theta * m^{-1}.
    """
    supports: dict[tuple[int, ...], list[int]] = {}
    for g, (ms, a_idx, _) in enumerate(groups):
        if ms and a_idx:
            supports.setdefault(tuple(ms), []).append(g)
    if not supports:
        return
    bound = max(max(max(map(abs, ms)) for ms in supports), max(map(abs, Ls), default=0) * abs(theta))
    m_arrs = [_exact_ints(ms, bound) for ms in supports]
    members = list(supports.values())
    rows = max(1, _CHUNK_PAIRS // sum(map(len, m_arrs)))
    for j0 in range(0, len(Ls), rows):
        L_chunk = Ls[j0:j0 + rows]
        L_arr = _exact_ints(L_chunk, bound)
        # per row: (s, sel, coprime m's) for a selected m list, (s, None, units mod L) for a folded one
        found: list[list[tuple[int, np.ndarray | None, np.ndarray]]] = [[] for _ in L_chunk]
        for s, m_arr in enumerate(m_arrs):
            fold = (L_arr > 0) & (L_arr < len(m_arr))
            for i in np.flatnonzero(fold).tolist():
                found[i].append((s, None, np.flatnonzero(np.gcd(np.arange(L_chunk[i]), L_chunk[i]) == 1)))
            direct = np.flatnonzero(~fold).tolist()
            mask = np.gcd(m_arr, L_arr[direct][:, None]) == 1
            cols = np.nonzero(mask)[1]
            m_cols = m_arr[cols]
            pos = 0
            for i, count in zip(direct, mask.sum(axis=1).tolist()):
                if count:
                    found[i].append((s, cols[pos:pos + count], m_cols[pos:pos + count]))
                    pos += count
        keys = [key for row in found for _, _, key in row]
        if not keys:
            continue
        L_rows = np.repeat(L_arr, [sum(len(key) for _, _, key in row) for row in found])
        t = theta * batch_mod_inverse(np.concatenate(keys), L_rows) % L_rows
        start = 0
        for i, row in enumerate(found):
            L = L_chunk[i]
            entries = []
            for s, sel, key in row:
                t_rows = t[start:start + len(key)]
                start += len(key)
                if sel is None:
                    t_of_r = np.full(L, -1)
                    t_of_r[key] = t_rows
                    t_m = t_of_r[np.asarray(m_arrs[s] % L, dtype=np.int64)]
                    sel = np.flatnonzero(t_m >= 0)
                    t_rows = t_m[sel]
                if sel.size:
                    entries.append((s, sel, t_rows))
            fft = {g for s, sel, _ in entries for g in members[s] if _fft_pays(L, len(sel), len(groups[g][1]))}
            cells = sum(len(t_rows) * len(groups[g][1]) for s, _, t_rows in entries for g in members[s] if g not in fft)
            table = np.exp((2j * np.pi) * (np.arange(L) / L)) if cells >= L else None
            for s, sel, t_rows in entries:
                for g in members[s]:
                    _, a_idx, nus = groups[g]
                    if g in fft:
                        sums = _dft_sums(t_rows, a_idx, L, nus)
                    else:
                        block = _phase_block(t_rows, a_idx, L, table)
                        sums = [block @ nu for nu in nus]
                        del block
                    yield j0 + i, g, sel, sums


def trilinear_form(spec: TrilinearSpec) -> FormResult:
    """Evaluate the trilinear sum by direct triple enumeration.

    Triples (a, m, n) with gcd(m, nR) > 1 are skipped per the summation
    condition; indices whose coefficient vanishes produce no summand, so
    ``terms`` counts exactly the accumulated triples.
    """
    return trilinear_forms([spec])[0]


def trilinear_forms(specs: Sequence[TrilinearSpec]) -> list[FormResult]:
    """:func:`trilinear_form` of each spec, in order.

    Specs with the same theta, R and nonzero beta indices form one family:
    they have the same moduli L = nR and run one
    :func:`_coprime_inner_sums` enumeration.  Within it, specs with the
    same nonzero alpha indices share their gcd masks and inverses; those
    that also have the same nonzero nu indices form one kernel group and
    share their phase blocks; and the blocks at one modulus share one table
    of e(k / L) once they have at least L cells together.  Each spec keeps
    its own reductions, so every value has the bits of a lone evaluation.
    """
    families: dict[tuple, dict[tuple, list[int]]] = {}
    coeffs = []
    for i, spec in enumerate(specs):
        alpha, beta, nu = (seq.nonzero_items() for seq in (spec.alpha, spec.beta, spec.nu))
        family = (spec.theta, spec.R, tuple(n for n, _ in beta))
        group = (tuple(m for m, _ in alpha), tuple(a for a, _ in nu))
        families.setdefault(family, {}).setdefault(group, []).append(i)
        coeffs.append((
            np.asarray([v for _, v in alpha], dtype=complex),
            [v for _, v in beta],
            np.asarray([v for _, v in nu], dtype=complex),
        ))
    results: dict[int, FormResult] = {}
    for (theta, R, ns), family in families.items():
        members = list(family.values())
        groups = [(list(ms), list(a_idx), [coeffs[i][2] for i in idx]) for (ms, a_idx), idx in family.items()]
        parts: dict[int, list[complex]] = {i: [] for idx in members for i in idx}
        terms = dict.fromkeys(parts, 0)
        for j, g, sel, inners in _coprime_inner_sums(theta, [n * R for n in ns], groups):
            for i, inner in zip(members[g], inners):
                alpha_arr, beta_vals, _ = coeffs[i]
                parts[i].append(beta_vals[j] * complex(alpha_arr[sel] @ inner))
                terms[i] += len(sel) * len(groups[g][1])
        for i, part in parts.items():
            results[i] = FormResult(_csum(part), terms[i])
    return [results[i] for i in range(len(specs))]


def _kahan_vadd(total: np.ndarray, comp: np.ndarray, idx: np.ndarray | list[int], delta: np.ndarray) -> None:
    """Compensated in-place total[idx] += delta."""
    y = delta - comp[idx]
    t = total[idx] + y
    comp[idx] = (t - total[idx]) - y
    total[idx] = t


def _mean_square(spec: TrilinearSpec, fixed: int, groups: list[tuple[int, complex, int]]) -> float:
    """Sum over the m coprime to ``fixed`` (R or b) of |S_m|^2, where S_m sums
    beta_n * sum_a nu_a e(theta a m^{-1} / L) over the supplied (n, beta_n, L)
    triples with (m, L) = 1; 0.0 when no m remains.

    S_m is Kahan-accumulated in the group order given by the caller, and the
    squares are summed with fsum.
    """
    ms = [m for m in spec.alpha.support_indices() if gcd(m, fixed) == 1]
    if not ms:
        return 0.0
    a_items = spec.nu.nonzero_items()
    a_idx = [a for a, _ in a_items]
    nu_arr = np.asarray([v for _, v in a_items], dtype=complex)
    inner = np.zeros(len(ms), dtype=complex)
    comp = np.zeros(len(ms), dtype=complex)
    Ls = [L for _, _, L in groups]
    for j, _, sel, (sums,) in _coprime_inner_sums(spec.theta, Ls, [(ms, a_idx, [nu_arr])]):
        _kahan_vadd(inner, comp, sel, groups[j][1] * sums)
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
