"""Arithmetic-progression error terms, the dispersion split, and Fourier completion.

Contents:

- :class:`SmoothCutoff`: a C-infinity plateau function built from the
  exp(-1/t) blend, with an exactly-known mass and a Fourier transform by
  one fixed trapezoid rule on the derivatives of its ramps (numpy only);
- the progression error E of a unit class a mod q (:class:`NotCoprime`
  otherwise), its absolute sum over the moduli coprime to a of a range, and
  :func:`sw_discrepancy`, one sequence's |E| against the point mass at 1;
- the dispersion split U / V / W against a sign sequence c_q derived from
  the error signs, with V stored as the cross term so that
  sum_m psi(m/M) |X_m - Y_m|^2 = W - 2 Re V + U holds identically;
- behind all of them, one per-modulus routine, ``_error``.  Its one table
  holds, for each unit r among the residues of alpha's support and of the
  m's asked for, the beta sum over the class a r^{-1} mod q (0j elsewhere);
  it returns E_q, the table at those m's and the coprime beta sum, for c_q,
  X_m and Y_m.  The split reads only c_q, the sign of Re E_q, so it gets
  that sign in place of E_q: from numpy's sum of the main sum's products
  where a rigorous error bound decides it, and from their fsum, the bits of
  Re E_q, where not;
- all of it on numpy arrays, one modulus at a time: the sequences become
  index and value arrays once per call, and X and Y are arrays over the
  window, Y added to through the mask of the m coprime to q (alpha's
  residues are read from the window's when its indices all lie there).
  A table is indexed by residue when q is at most the number of
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
  phi(q)/q main term.  The dispersion bound is klab.bounds.rhs_dispersion.

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
from .sequences import CoefficientSequence, _csum, make_sequence

__all__ = [
    "NotCoprime",
    "PsiDoesNotMajorize",
    "NegativeQuadratic",
    "smooth_step",
    "SmoothCutoff",
    "DispersionSplit",
    "progression_error",
    "progression_error_total",
    "sw_discrepancy",
    "dispersion_split",
    "cauchy_schwarz_gap",
    "CompletionResult",
    "CoprimeCompletionResult",
    "completed_progression_sum",
    "completed_coprime_sum",
    "default_completion_bandwidth",
]


class NotCoprime(ValueError):
    """Raised when a residue class a mod q with gcd(a, q) > 1 is supplied."""


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


def _class_sums(v: np.ndarray, ids: np.ndarray, size: int) -> np.ndarray:
    """The _csum of ``v`` over each class id 0..size-1 (0j if empty).
    np.bincount adds in index order from +0.0, which for one or two values
    is fsum's single rounding (-0.0 to +0.0 included); only a class of three
    or more values goes through fsum."""
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
    return sums


def _indexed(q: int, lookups: int) -> bool:
    """Whether a table mod q covers all of 0..q-1: no larger than its lookups."""
    return q <= lookups


def _residue_table(
    beta: _Coeffs, q: int, a: int, residues: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[int], int]:
    """The per-modulus congruence table of beta for a unit class a mod q, the
    mask of the r coprime to q, the primes of q and phi(q), all from one
    factorization of q.

    At each of the distinct ``residues`` r (from :func:`_residues`) coprime
    to q the table holds the sum of beta over the class a r^{-1}, found by
    one call of klab.arith's :func:`_unit_inverses`; 0j elsewhere.

    At either table size :func:`_class_sums` sums beta's classes.  With
    ``residues`` all of 0..q-1 (:func:`_indexed`), each residue is its own
    slot, and klab.arith's :func:`_unit_mask` finds the units.  Otherwise
    the table covers only the residues looked up, so a large q with small
    supports stays cheap: gcd finds their units, and a residue finds its
    class among np.unique's by searchsorted.
    """
    factors = factorize(q)
    keys = _residues(beta.n, q)
    indexed = _indexed(q, len(residues))
    if indexed:  # slot r is residue r
        coprime = _unit_mask(q, factors)
    else:
        coprime = np.gcd(residues, q) == 1
    unit = np.flatnonzero(coprime)
    x0 = a % q * _unit_inverses(residues[unit], q, factors) % q
    table = np.zeros(len(residues), dtype=complex)
    if indexed:
        table[unit] = _class_sums(beta.v, keys, q)[x0]
    else:
        cls, ids = np.unique(keys, return_inverse=True)
        sums = _class_sums(beta.v, ids, len(cls))
        pos = np.searchsorted(cls, x0)
        hit = np.append(cls, q)[pos] == x0
        table[unit[hit]] = sums[pos[hit]]
    return table, coprime, list(factors), _totient(factors)  # primes ascending


def _real_sign(p: np.ndarray, mean: float) -> int:
    """The sign c_q of fsum(p) - mean (+1 at 0 and -1 at NaN), p being the
    products alpha_m s whose fsum is Re of the main sum, mostly without that
    fsum: numpy's sum decides it when it is far enough from ``mean``.

    Proof.  Let n = len(p) < 2^40, T = sum |p_i|, S the exact sum and
    u = 2^-53.  A float addition is exact or off by at most u times its
    result, gradual underflow included, so a sum in any order, numpy's
    pairwise one too, is within (n - 1) u T (1 + 2^-12) of S, and fsum(p),
    S rounded once, within u T: the two differ by at most n u T (1 + 2^-12).
    The bound below is at least 2 (n + 2) u T (1 - 2^-12) after its
    roundings, or, where it rounds as a subnormal, less than that by at most
    2^-1075: either way no less than that difference, a multiple of 2^-1074.
    Rounding is monotone, so a computed |gap| above the bound is a true one,
    and fsum(p) lies strictly on the same side of ``mean`` as p.sum().
    Below 2^1020 no partial of fsum, each at most (1 + 2^-12) T, can
    overflow, so fsum would not have raised either.  Otherwise, NaN and inf
    included (no comparison with NaN holds), fsum decides.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN here takes fsum
        approx, total = float(p.sum()), float(np.abs(p).sum())
    gap = approx - mean
    if abs(gap) > (len(p) + 2) * 2.0**-52 * (total + abs(mean)) and total < 2.0**1020:
        return 1 if gap > 0 else -1
    return 1 if fsum(p.tolist()) - mean >= 0 else -1


def _error(
    alpha: _Coeffs, beta: _Coeffs, q: int, a: int, ms: np.ndarray, imag: bool = True, within: np.ndarray | None = None
) -> tuple[complex | int, np.ndarray, np.ndarray, complex, int]:
    """The progression error E_q of alpha and beta in the unit class a mod q
    (:class:`NotCoprime` otherwise), from one residue table of beta mod q
    over the residues of alpha's support and of ``ms``; with
    it, what the split reads at ``ms``: the mask of the m coprime to q, the
    table at every m, the coprime beta sum and phi(q).  With ``imag`` false
    it gives, in place of E_q, the split's c_q, the sign of Re E_q from
    :func:`_real_sign`.  ``within``, when given, holds the positions in
    ``ms`` of alpha's indices, all of which lie there: their residues are
    then read from those of ``ms``, with no pass of their own.

    alpha_m s is formed from the float parts as Python's complex product
    forms it (numpy's complex ``*`` may round differently), at the m coprime
    to q.  A 0j entry adds exact zeros to the main sum, which fsum leaves
    out.  The coprime sums
    are :func:`_coprime_sum`'s, the bits of an fsum over the coprime indices.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    if gcd(a, q) != 1:
        raise NotCoprime(f"gcd({a}, {q}) = {gcd(a, q)} > 1")
    if within is None:
        at = _residues(alpha.n, q)
        if len(ms):
            at = np.concatenate([at, _residues(ms, q)])
    else:  # alpha's residues are among the window's
        at = _residues(ms, q)
    if _indexed(q, len(alpha.n) + len(ms)):
        residues = np.arange(q)
    else:
        residues, at = np.unique(at, return_inverse=True)
    table, coprime, primes, phi_q = _residue_table(beta, q, a, residues)
    if within is None:
        at_alpha, at_m = at[:len(alpha.n)], at[len(alpha.n):]
    else:
        at_alpha, at_m = at[within], at
    on = coprime[at_alpha]
    am, s = alpha.v[on], table[at_alpha[on]]
    ar, ai, sr, si = am.real, am.imag, s.real, s.imag
    cop_beta = _coprime_sum(beta, primes)
    mean = _coprime_sum(alpha, primes) * cop_beta / phi_q
    read = coprime[at_m], table[at_m], cop_beta, phi_q
    real = ar * sr - ai * si
    if not imag:
        return (_real_sign(real, mean.real), *read)
    # complex subtraction is by parts, so Re E_q's bits are fsum(real) - mean.real
    return (complex(fsum(real.tolist()), fsum((ar * si + ai * sr).tolist())) - mean, *read)


def progression_error(
    alpha: CoefficientSequence, beta: CoefficientSequence, q: int, a: int
) -> complex:
    """Signed error of the product sequence in the unit class a mod q:

        sum_{m n = a (q)} alpha_m beta_n - (1/phi(q)) sum_{(mn, q) = 1} alpha_m beta_n

    computed exactly over the supports.  Raises :class:`NotCoprime` when
    gcd(a, q) > 1, where the class holds no m n coprime to q.
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


def sw_discrepancy(beta: CoefficientSequence, q: int, a: int, r: int = 1) -> float:
    """Discrepancy of beta in the unit class a mod q against its phi(q)-normalized mean,

        |sum_{n = a (q), (n, r) = 1} beta_n - (1/phi(q)) sum_{(n, qr) = 1} beta_n|,

    the |progression_error| of the point mass at 1 and beta on (n, r) = 1.
    """
    if q < 1 or r < 1:
        raise ValueError("q and r must be positive")
    if r > 1:
        beta = make_sequence({n: v for n, v in beta.values.items() if gcd(n, r) == 1}, beta.support)
    return abs(progression_error(make_sequence({1: 1}), beta, q, a))


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
    within = None  # alpha's positions in the window, when all its indices lie there
    ns = alpha_c.n
    if not len(ns) or (len(ms) and ms[0] <= ns[0] and ns[-1] <= ms[-1]):
        within = np.searchsorted(ms, ns)
    x_vals = np.zeros(len(window), dtype=complex)
    y_vals = np.zeros(len(window), dtype=complex)
    c: dict[int, int] = {}
    for q in qs:
        if gcd(a, q) != 1:
            c[q] = 0
            continue
        cq, on, s_m, cop_beta, phi_q = _error(alpha_c, beta_c, q, a, ms, False, within)
        c[q] = cq
        # X and Y take their terms in ascending q, as a per-m loop would;
        # cq = +-1 makes cq * s_m exact under either complex product.  Off
        # ``on``, s_m is 0j: X starts at +0j, and a sum is -0.0 only when both
        # terms are, so X never holds -0.0 and adding +-0 leaves it as it is.
        # Y's term is not 0 there, so only Y takes the mask
        np.add(x_vals, cq * s_m, out=x_vals)
        np.add(y_vals, (cq / phi_q) * cop_beta, out=y_vals, where=on)
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
