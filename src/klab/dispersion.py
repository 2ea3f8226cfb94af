"""Arithmetic-progression error terms, the dispersion split, and Fourier completion.

Contents:

- :class:`SmoothCutoff`: a C-infinity plateau function built from the
  exp(-1/t) blend, with an exactly-known mass and a Fourier transform by
  one fixed trapezoid rule on the derivatives of its ramps (numpy only);
- the progression error E (one modulus) and its absolute sum over a modulus
  range;
- the dispersion split U / V / W against a sign sequence c_q derived from
  the error signs, with V stored as the cross term so that
  sum_m psi(m/M) |X_m - Y_m|^2 = W - 2 Re V + U holds identically;
- behind all three, one per-modulus routine, ``_error``.  Its one table
  holds, for each residue r of alpha's support and of the m's asked for, the
  beta sum over the classes solving r x = a (mod q); it returns E_q, the
  table at those m's and the coprime beta sum, for c_q, X_m and Y_m (the
  split reads the sign of Re E_q only, so it forms no imaginary part);
- all of it on numpy arrays, one modulus at a time: the sequences become
  index and value arrays once per call, and X and Y are arrays over the
  window.  A table is indexed by residue when q is at most the number of
  residues looked up in it; above that it covers only the residues looked
  up, found by np.unique and searchsorted.  Both sizes sum beta's classes
  by one rule (np.bincount, and fsum for a class of three or more values)
  and invert the units by klab.arith's one single-modulus rule (powers
  u^(lambda(q) - 1) while q * q fits int64, a Euclid above).  The coprime
  sums are sum_{d | rad q} mu(d) sum_{d | m} x_m (Moebius inversion, from
  the one factorization of q), each inner sum an exact float expansion
  built once per squarefree d and sequence in an evaluator call; fsum
  rounds the exact total once, so one fsum of the signed expansions has
  the bits of an fsum over the coprime indices.  Every sum is math.fsum (or a single rounding
  that equals it), and every product is formed as Python forms it, so the
  values are those of a per-element Python loop, bit for bit.  Indices and
  residues are int64 or Python integers as klab.arith decides;
- completed progression sums: the smooth sum over one residue class against
  its truncated Fourier expansion, and the coprime-m sum against its
  phi(q)/q main term;
- the closed-form dispersion bound evaluator (tail exponents from klab.bounds).

All evaluators are pure; the q- and m-loops can be partitioned across
workers and reduced in index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import fsum, gcd
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .arith import _exact_ints, _totient, _unit_inverses, _unit_mask, divisor_count, euler_phi, factorize, unit_phases
from .bounds import DISPERSION_TAIL_EXPONENTS, RhsReport, check_rhs_inputs
from .sequences import CoefficientSequence, _csum

__all__ = [
    "PsiDoesNotMajorize",
    "NegativeQuadratic",
    "smooth_step",
    "SmoothCutoff",
    "DispersionSplit",
    "progression_error",
    "progression_error_total",
    "dispersion_split",
    "cauchy_schwarz_gap",
    "CompletionResult",
    "CoprimeCompletionResult",
    "completed_progression_sum",
    "completed_coprime_sum",
    "default_completion_bandwidth",
    "rhs_dispersion",
    "DISPERSION_TAIL_EXPONENTS",
]


class PsiDoesNotMajorize(ValueError):
    """The cutoff's plateau does not cover the interval it must dominate."""


class NegativeQuadratic(ValueError):
    """W - 2 Re V + U came out below the numerical slack: an implementation bug."""


def smooth_step(t: float) -> float:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, exp(-1/t) blend between.

    s(t) = f(t) / (f(t) + f(1-t)) with f(t) = exp(-1/t); all derivatives
    vanish at both endpoints, and s(t) + s(1-t) = 1.
    """
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    f = math.exp(-1.0 / t)
    g = math.exp(-1.0 / (1.0 - t))
    return f / (f + g)


# SmoothCutoff.hat's trapezoid nodes per ramp, and the frequency xi |w| of a
# ramp of width |w| from which the transform of its bump s' is below 1e-40
_HAT_NODES = 4096
_HAT_CUT = 1024.0


def _check_m_scale(m_scale: float) -> None:
    if not 0.0 < m_scale < math.inf:
        raise ValueError(f"m_scale must be positive and finite, got {m_scale}")


@dataclass(eq=False)
class SmoothCutoff:
    """Smooth compactly supported plateau function.

    psi = 1 on ``plateau``, 0 outside ``support``, with smooth_step ramps in
    between; 0 <= psi <= 1 everywhere.  The default majorizes the indicator
    of [1, 2].  ``hat`` evaluates the Fourier transform
    psi^(xi) = integral psi(x) e(-xi x) dx by a fixed trapezoid rule.
    """

    plateau: tuple[float, float] = (1.0, 2.0)
    support: tuple[float, float] = (0.5, 2.5)

    def __post_init__(self):
        s0, s1 = self.support
        p0, p1 = self.plateau
        if not all(map(math.isfinite, (s0, p0, p1, s1))):
            raise ValueError(f"need finite plateau and support, got {self}")
        if not (s0 <= p0 <= p1 <= s1):
            raise ValueError(f"need support[0] <= plateau <= support[1], got {self}")

    def __call__(self, x: float) -> float:
        s0, s1 = self.support
        p0, p1 = self.plateau
        if x <= s0 or x >= s1:
            return 0.0
        if p0 <= x <= p1:
            return 1.0
        if x < p0:
            return smooth_step((x - s0) / (p0 - s0))
        return smooth_step((s1 - x) / (s1 - p1))

    def plateau_covers(self, lo: float, hi: float) -> bool:
        return self.plateau[0] <= lo and hi <= self.plateau[1]

    def mass(self) -> float:
        """:meth:`mass_fraction`, correctly rounded."""
        return float(self.mass_fraction())

    def mass_fraction(self) -> Fraction:
        """Exact integral of psi, as a rational of the (float) endpoints: the
        blend is symmetric, so each ramp contributes exactly half its width."""
        s0, s1 = (Fraction(v) for v in self.support)
        p0, p1 = (Fraction(v) for v in self.plateau)
        return (p1 - p0) + (p0 - s0) / 2 + (s1 - p1) / 2

    def window(self, m_scale: float) -> range:
        """Integers m with m / m_scale inside the support."""
        _check_m_scale(m_scale)
        s0, s1 = self.support
        lo = math.ceil(s0 * m_scale)
        hi = math.floor(s1 * m_scale)
        return range(lo, hi + 1)

    def hat(self, xi: float) -> complex:
        """Fourier transform psi^(xi) = integral psi(x) e(-xi x) dx, for any
        finite xi, by one fixed trapezoid rule on the ramps' derivatives.

        Integration by parts gives psi^(xi) = (I0 - I1) / (2 pi i xi) with no
        plateau term: I0 = int_0^1 s'(t) e(-xi (s0 + w0 t)) dt over the
        rising ramp (w0 = p0 - s0), I1 the same at s1 with w1 = p1 - s1, and
        s' the bump smooth_step' (a point mass where w = 0).  s' vanishes
        with every derivative at 0 and 1, so the trapezoid rule at the nodes
        j / _HAT_NODES converges faster than any power of the step.  Where
        xi |w| >= _HAT_CUT a ramp's I, the transform of s', is below 1e-40
        and counts as 0.  Both ramps share the nodes, so I0 - I1 is summed
        node by node as a difference of e(-theta) - 1 = -2 sin^2(pi theta)
        - i sin(2 pi theta), with xi * edge reduced modulo 1 exactly: it
        never forms as the difference of two numbers near 1, and small xi
        loses no digits.  Against 40-digit mpmath the error is at most
        5.3e-16 (2.5e-16 relative) over xi from 1e-6 to 2048 on the default,
        a skewed and both zero-width-ramp cutoffs.
        """
        xi = float(xi)
        if not math.isfinite(xi):
            raise ValueError(f"xi must be finite, got {xi}")
        (s0, s1), (p0, p1) = self.support, self.plateau
        if abs(xi) * max(abs(s0), abs(s1)) < 2.0**-60:
            # |psi^(xi) - psi^(0)| <= 2 pi |xi| max |x| mass, below half an ulp
            return complex(self.mass())
        if xi < 0.0:
            return self.hat(-xi).conjugate()  # psi is real
        t = np.arange(1, _HAT_NODES) / _HAT_NODES
        f, g = np.exp(-1.0 / t), np.exp(-1.0 / (1.0 - t))
        ds = f * g * (1.0 / (t * t) + 1.0 / ((1.0 - t) * (1.0 - t))) / ((f + g) * (f + g) * _HAT_NODES)
        # (e(-theta) - 1) of ramp 0 minus that of ramp 1 at each node
        re, im = np.zeros_like(t), np.zeros_like(t)
        for sign, edge, w in ((1.0, s0, p0 - s0), (-1.0, s1, p1 - s1)):
            if xi * abs(w) >= _HAT_CUT:
                re -= sign  # I = 0
                continue
            turns = Fraction(xi) * Fraction(edge)
            theta = float(turns - round(turns)) + xi * w * t
            half = np.sin(np.pi * theta)
            re -= sign * 2.0 * half * half
            im -= sign * np.sin(2.0 * np.pi * theta)
        return complex((ds * re).sum(), (ds * im).sum()) / (2j * math.pi * xi)


class _Coeffs(NamedTuple):
    """A sequence's nonzero entries as arrays: its indices in ascending order
    (an exact integer array, see klab.arith) and its complex values, and the
    :func:`_part` of each squarefree d asked for in the one evaluator call
    it is made for.  A zero value adds nothing to any sum here, bit for bit."""

    n: np.ndarray
    v: np.ndarray
    parts: dict[int, tuple[np.ndarray, np.ndarray, list[float], list[float]]]


def _coeffs(seq: CoefficientSequence) -> _Coeffs:
    if not np.isfinite(seq.coeffs).all():
        raise ValueError("dispersion needs finite coefficients")
    ns = seq.indices  # ascending, so the largest |n| is at an end
    return _Coeffs(_exact_ints(ns, max(-ns[0], ns[-1]) if ns else 0), seq.coeffs, {})


def _expansion(xs: list[float]) -> list[float]:
    """Nonzero floats whose exact sum is that of ``xs`` (finite, and with no
    fsum overflow): fsum's rounding of it, then fsum's rounding of each
    remainder, to the first 0.0."""
    out, rest = [], list(xs)
    while r := fsum(rest):
        out.append(r)
        rest.append(-r)
    return out


def _part(c: _Coeffs, d: int, p: int) -> tuple[np.ndarray, np.ndarray, list[float], list[float]]:
    """The nonzero indices of ``c`` divisible by the squarefree d, their
    values, and the :func:`_expansion` of their real and of their imaginary
    parts; for d > 1 taken from the part of d / p, p the largest prime of d."""
    if d == 1:
        n, v = c.n, c.v
        on = n != 0
    else:
        n, v = c.parts[d // p][:2]
        on = n % p == 0
    n, v = n[on], v[on]
    return n, v, _expansion(v.real.tolist()), _expansion(v.imag.tolist())


def _coprime_sum(c: _Coeffs, primes: list[int]) -> complex:
    """The _csum of c's values at the indices coprime to q, bit for bit, from
    the ascending ``primes`` of q: the fsum of the expansions of the parts
    of the squarefree d | q, signed by mu(d).  Index 0 is coprime to q = 1
    only, so the parts leave it out; no multiple of a d that divides no
    index is taken."""
    if not primes:
        return _csum(c.v)
    parts = c.parts
    if 1 not in parts:
        parts[1] = _part(c, 1, 1)
    divisors = [(1, 1)]  # the squarefree d | q with mu(d), over the primes taken so far
    for p in primes:
        more = [(d * p, -mu) for d, mu in divisors if parts[d][0].size]
        for d, _ in more:
            if d not in parts:
                parts[d] = _part(c, d, p)
        divisors += more
    re = [mu * x for d, mu in divisors for x in parts[d][2]]
    im = [mu * x for d, mu in divisors for x in parts[d][3]]
    return complex(fsum(re), fsum(im))


def _residues(ints: np.ndarray, q: int) -> np.ndarray:
    """``ints`` mod q, exact for a product of two residues (bound q * q).

    Python-integer ``ints`` are reduced before they can narrow to int64, and
    int64 ``ints`` widen first when q itself needs Python integers.
    """
    wide = ints if ints.dtype == object else _exact_ints(ints, q)
    return _exact_ints(wide % q, q * q)


def _class_sums(v: np.ndarray, ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The _csum of ``v`` over each class id 0..size-1 (0j if empty), and the
    class sizes.  np.bincount adds in index order from +0.0, which for one or
    two values is fsum's single rounding (-0.0 to +0.0 included); only a
    class of three or more values goes through fsum."""
    counts = np.bincount(ids, minlength=size)
    sums = np.empty(size, dtype=complex)
    sums.real = np.bincount(ids, v.real, size)
    sums.imag = np.bincount(ids, v.imag, size)
    big = np.flatnonzero(counts > 2)
    if big.size:
        order = np.argsort(ids, kind="stable")
        re, im = v.real[order].tolist(), v.imag[order].tolist()
        end = np.cumsum(counts)
        for k, i, j in zip(big.tolist(), (end - counts)[big].tolist(), end[big].tolist()):
            sums[k] = complex(fsum(re[i:j]), fsum(im[i:j]))
    return sums, counts


def _indexed(q: int, lookups: int) -> bool:
    """Whether a table mod q covers all of 0..q-1: no larger than its lookups."""
    return q <= lookups


def _residue_table(
    beta: _Coeffs, q: int, a: int, residues: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], int]:
    """The per-modulus congruence table of beta, the primes of q and phi(q),
    all from one factorization of q.

    For each of the distinct ``residues`` r (from :func:`_residues`), the
    table holds the sum of beta over the gcd(r, q) solution classes x mod q
    of r x = a (mod q): an fsum over the classes of the per-class fsums, 0j
    when beta misses them all or no class solves it.  Two masks come with
    it: the r for which some class solves it, and the r coprime to q.  With
    gcd(a, q) = 1 they agree, and each r has the single class a r^{-1}; one
    call of klab.arith's :func:`_unit_inverses` finds them all.

    At either table size :func:`_class_sums` sums beta's classes and
    :func:`_unit_inverses` inverts the units.  With ``residues`` all of
    0..q-1 (:func:`_indexed`), each residue is its own slot, and
    klab.arith's :func:`_unit_mask` finds the units.  Otherwise the table
    covers only the residues looked up, so a large q with small supports
    stays cheap: gcd finds their units, and a residue finds its class among
    np.unique's by searchsorted.
    """
    factors = factorize(q)
    phi_q = _totient(factors)
    keys = _residues(beta.n, q)
    a_red = a % q
    indexed = _indexed(q, len(residues))
    if indexed:  # slot r is residue r
        coprime = _unit_mask(q, factors)
    else:
        coprime = np.gcd(residues, q) == 1
    unit = np.flatnonzero(coprime)
    x0 = a_red * _unit_inverses(residues[unit], q, factors) % q
    table = np.zeros(len(residues), dtype=complex)
    if indexed:
        full, counts = _class_sums(beta.v, keys, q)
        cls = np.flatnonzero(counts)
        sums = full[cls]
        table[unit] = full[x0]
    else:
        cls, ids = np.unique(keys, return_inverse=True)
        sums, _ = _class_sums(beta.v, ids, len(cls))
        pos = np.searchsorted(cls, x0)
        hit = np.append(cls, q)[pos] == x0
        table[unit[hit]] = sums[pos[hit]]
    primes = list(factors)  # ascending
    if gcd(a_red, q) == 1:
        return table, coprime, coprime, primes, phi_q
    # g > 1 solution classes x0 + k q/g, k < g: those beta has, from cls
    g = np.gcd(residues, q)
    solvable = a_red % g == 0
    for j in np.flatnonzero(solvable & ~coprime).tolist():
        gj = int(g[j])
        step = q // gj
        x0 = (a_red // gj) * pow(int(residues[j]) // gj, -1, step) % step
        table[j] = _csum(sums[cls % step == x0])
    return table, solvable, coprime, primes, phi_q


def _error(
    alpha: _Coeffs, beta: _Coeffs, q: int, a: int, ms: np.ndarray, imag: bool = True
) -> tuple[complex | float, np.ndarray, np.ndarray, complex, int]:
    """The progression error E_q of alpha and beta, from one residue table
    of beta mod q over the residues of alpha's support and of ``ms``; with
    it, what the split reads at ``ms``: the mask of the m coprime to q, their
    table entries, the coprime beta sum and phi(q).  With ``imag`` false it
    gives Re E_q alone, a float, for the split, which reads only its sign.

    alpha_m s is formed from the float parts as Python's complex product
    forms it (numpy's complex ``*`` may round differently).  A 0j entry adds
    exact zeros to the main sum, which fsum leaves out.  The coprime sums
    are :func:`_coprime_sum`'s, the bits of an fsum over the coprime indices.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    at = np.concatenate([_residues(alpha.n, q), _residues(ms, q)])
    if _indexed(q, len(at)):
        residues = np.arange(q)
    else:
        residues, at = np.unique(at, return_inverse=True)
    table, solvable, coprime, primes, phi_q = _residue_table(beta, q, a, residues)
    at_alpha, at_m = at[:len(alpha.n)], at[len(alpha.n):]
    on = solvable[at_alpha]
    am, s = alpha.v[on], table[at_alpha[on]]
    ar, ai, sr, si = am.real, am.imag, s.real, s.imag
    cop_beta = _coprime_sum(beta, primes)
    mean = _coprime_sum(alpha, primes) * cop_beta / phi_q
    real = fsum((ar * sr - ai * si).tolist())
    # complex subtraction is by parts, so real - mean.real is Re E_q's bits
    error = complex(real, fsum((ar * si + ai * sr).tolist())) - mean if imag else real - mean.real
    on_m = coprime[at_m]
    return error, on_m, table[at_m[on_m]], cop_beta, phi_q


def progression_error(
    alpha: CoefficientSequence, beta: CoefficientSequence, q: int, a: int
) -> complex:
    """Signed error of the product sequence in the class a mod q:

        sum_{m n = a (q)} alpha_m beta_n - (1/phi(q)) sum_{(mn, q) = 1} alpha_m beta_n

    computed exactly over the supports.
    """
    alpha_c = _coeffs(alpha)
    return _error(alpha_c, _coeffs(beta), q, a, alpha_c.n[:0])[0]


def progression_error_total(
    alpha: CoefficientSequence, beta: CoefficientSequence, moduli: Iterable[int], a: int
) -> float:
    """Sum over the distinct q in ``moduli`` coprime to a of |progression_error(q)|."""
    alpha_c, beta_c = _coeffs(alpha), _coeffs(beta)
    # q < 1 goes on to _error, which rejects it whatever gcd(q, a) is
    return fsum(abs(_error(alpha_c, beta_c, q, a, alpha_c.n[:0])[0]) for q in set(moduli) if q < 1 or gcd(q, a) == 1)


@dataclass(frozen=True)
class DispersionSplit:
    """The three quadratic pieces of the dispersion argument plus the sign map.

    c maps each modulus to +1/-1 (sign of the real part of the progression
    error; +1 when the error vanishes) or 0 exactly when gcd(a, q) > 1.
    """

    U: float
    V: complex
    W: float
    c: Mapping[int, int]

    def quadratic(self) -> float:
        return self.W - 2.0 * self.V.real + self.U


def dispersion_split(
    alpha: CoefficientSequence,
    beta: CoefficientSequence,
    moduli: Iterable[int],
    a: int,
    psi: SmoothCutoff,
    m_scale: float,
) -> DispersionSplit:
    """Compute the smooth-weighted dispersion split over the cutoff window.

    With c_q from the signs of the progression errors,
    X_m = sum_{q, n: mn = a (q)} c_q beta_n and
    Y_m = sum_{q, n: (mn,q)=1} (c_q / phi(q)) beta_n, this returns

        U = sum_m psi(m/M) |Y_m|^2,   W = sum_m psi(m/M) |X_m|^2,
        V = sum_m psi(m/M) X_m conj(Y_m),

    summed over all integers m in the support window.  The plateau must
    cover [1, 2] so that psi majorizes the dyadic indicator.
    """
    if not psi.plateau_covers(1.0, 2.0):
        raise PsiDoesNotMajorize(f"plateau {psi.plateau} does not cover [1, 2]")
    qs = sorted(set(moduli))
    if qs and qs[0] < 1:
        raise ValueError(f"q must be positive, got {qs[0]}")
    window = psi.window(m_scale)
    alpha_c, beta_c = _coeffs(alpha), _coeffs(beta)
    ms = _exact_ints(window, max(-window[0], window[-1]) if window else 0)
    x_vals = np.zeros(len(window), dtype=complex)
    y_vals = np.zeros(len(window), dtype=complex)
    c: dict[int, int] = {}
    for q in qs:
        if gcd(a, q) != 1:
            c[q] = 0
            continue
        re_error, on, s_m, cop_beta, phi_q = _error(alpha_c, beta_c, q, a, ms, False)
        cq = c[q] = 1 if re_error >= 0 else -1
        # gcd(m, q) = 1: one solution class, one coprime pair.  X and Y take
        # their terms in ascending q, as a per-m loop would; cq = +-1 makes
        # cq * s_m exact under either complex product
        x_vals[on] += cq * s_m
        y_vals[on] += (cq / phi_q) * cop_beta
    weights = [psi(m / m_scale) for m in window]
    xs, ys = x_vals.tolist(), y_vals.tolist()
    U = fsum(w * abs(y) ** 2 for w, y in zip(weights, ys))
    W = fsum(w * abs(x) ** 2 for w, x in zip(weights, xs))
    v_parts = [w * x * y.conjugate() for w, x, y in zip(weights, xs, ys)]
    return DispersionSplit(U, _csum(v_parts), W, c)


def cauchy_schwarz_gap(split: DispersionSplit, alpha_l2: float, delta: float) -> float:
    """||alpha|| sqrt(W - 2 Re V + U) - delta; nonnegative (up to 1e-9) when
    psi majorizes the dyadic indicator and delta is the progression-error sum."""
    quad = split.quadratic()
    if quad < -1e-9:
        raise NegativeQuadratic(f"W - 2 Re V + U = {quad} < -1e-9")
    return alpha_l2 * math.sqrt(max(0.0, quad)) - delta


class CompletionResult(NamedTuple):
    lhs: float
    rhs: float
    residual: float


class CoprimeCompletionResult(NamedTuple):
    lhs: float
    main: float
    error_bound: float
    c_observed: float


def default_completion_bandwidth(q: int, m_scale: float) -> int:
    """Default truncation H = max(64, ceil(4 q^2 / M) * 64)."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    _check_m_scale(m_scale)
    return max(64, math.ceil(4 * q * q / m_scale) * 64)


def completed_progression_sum(
    psi: SmoothCutoff, m_scale: float, q: int, a: int, H: int
) -> CompletionResult:
    """Smooth progression sum against its truncated Fourier completion.

        lhs = sum_{m = a (q)} psi(m/M)
        rhs = psi^(0) M/q + (M/q) sum_{0 < |h| <= H} e(ah/q) psi^(hM/q)

    The displayed transform argument hM/q is the standard completion
    frequency.  Both sides are accumulated exactly (rational arithmetic over
    the already-rounded float terms), so the reported residual reflects the
    truncation and transform errors rather than summation rounding.  The
    phases e(ah/q) come from one :func:`klab.arith.unit_phases` call.
    """
    if H < 1:
        raise ValueError(f"H must be positive, got {H}")
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    a_red = a % q
    lhs_fr = sum(
        (Fraction(psi(m / m_scale)) for m in psi.window(m_scale) if m % q == a_red),
        Fraction(0),
    )
    m_over_q = Fraction(m_scale) / q
    rhs_fr = psi.mass_fraction() * m_over_q
    phases = unit_phases([a_red * h % q for h in range(1, H + 1)], q).tolist()
    for h, z in enumerate(phases, 1):
        ph = psi.hat(h * m_scale / q)
        # the +h and -h terms are conjugate for real psi
        pair = 2.0 * (z * ph).real
        rhs_fr += Fraction(pair) * m_over_q
    residual = abs(lhs_fr - rhs_fr)
    return CompletionResult(float(lhs_fr), float(rhs_fr), float(residual))


def completed_coprime_sum(psi: SmoothCutoff, m_scale: float, q: int) -> CoprimeCompletionResult:
    """Smooth sum over m coprime to q against its phi(q)/q main term.

    Returns the observed constant |lhs - main| / (tau(q) (log 2M)^2)
    alongside the pieces.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    _check_m_scale(m_scale)
    if m_scale <= 0.5:  # the error bound's (log 2M)^2 is 0 at M = 1/2
        raise ValueError(f"m_scale must exceed 1/2, got {m_scale}")
    lhs = fsum(psi(m / m_scale) for m in psi.window(m_scale) if gcd(m, q) == 1)
    main = (euler_phi(q) / q) * psi.mass() * m_scale
    error_bound = divisor_count(q) * math.log(2 * m_scale) ** 2
    return CoprimeCompletionResult(lhs, main, error_bound, abs(lhs - main) / error_bound)


def rhs_dispersion(
    M: float,
    N: float,
    Q: float,
    D: float,
    alpha_l2: float,
    Estar: float,
    kappa: float = 0.0,
    C_exp: float = 0.0,
    epsilon: float = 0.0,
    X: float = 1.0,
) -> RhsReport:
    """The dispersion bound

        ||alpha|| * ( M Q^{-1} Estar + (log X)^kappa N^2 Q
                      + (log X)^kappa N^2 D^{-1/2} M
                      + D^C X^eps (Q^(15/8) N^(11/4) + M^(3/20) Q^(33/20) N^(51/20)) )^(1/2)

    Estar is a caller-supplied input (the small-moduli mean square has no
    closed form here); pass the equidistribution-motivated proxy
    N^2 Q (log N)^(-A) if desired.  kappa and C are free exponents.  The
    report total is scale * sqrt(sum of terms) with scale = alpha_l2; meta
    carries the two baseline tail terms and the new/old ratios, and flags
    record both of the stated D-vs-N hypotheses.
    """
    check_rhs_inputs(epsilon, M, N, Q, D, X)
    lk = math.log(X) ** kappa
    dc = D**C_exp * X**epsilon
    tails = {
        name: dc * M ** float(e["M"]) * Q ** float(e["Q"]) * N ** float(e["N"])
        for name, e in DISPERSION_TAIL_EXPONENTS.items()
    }
    terms = [
        ("term1", M / Q * Estar),
        ("term2", lk * N * N * Q),
        ("term3", lk * N * N * M / math.sqrt(D)),
        ("term4", tails["new_term4"]),
        ("term5", tails["new_term5"]),
    ]
    meta = {"old_term4": tails["old_term4"], "old_term5": tails["old_term5"]}
    for k in (4, 5):
        if tails[f"old_term{k}"] > 0:
            meta[f"ratio_term{k}"] = tails[f"new_term{k}"] / tails[f"old_term{k}"]
    flags = []
    if not N > D**10:
        flags.append("N<=D^10")
    if not D < N**10:
        flags.append("D>=N^10")
    total = alpha_l2 * math.sqrt(fsum(v for _, v in terms))
    return RhsReport(tuple(terms), alpha_l2, total, tuple(flags), meta)
