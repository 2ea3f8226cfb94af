"""Exact modular and multiplicative arithmetic primitives.

Everything here is exact at any size: moduli far beyond 64 bits are handled
with plain Python integers, and :func:`batch_mod_inverse` picks its
algorithm from the integers alone: a vectorised extended Euclid when every
value and modulus fits int64, in a list or an array, and ``pow`` otherwise.
Whether integer arithmetic may run on int64 or must use Python integers is
decided in one place, :func:`_fits_int64`, from a magnitude bound that its
caller supplies; forms and dispersion build their integer arrays through
:func:`_exact_ints`, which applies it, and the forms kernel its hot lanes
through :func:`_lane_ints`, int32 below 2**31.  :func:`unit_phases` is the
one rule for the phases e(k / L) of forms, sequences and the Fourier
completion: an exact octant reduction in integers and two fixed
polynomials, with no libm call, so the bits are the same under any libm
and on any IEEE CPU;
:func:`unit_phase_tables` builds its tables, by octants; :func:`_unit_mask`
and :func:`_unit_inverses` find and invert the units mod one modulus, for
forms and dispersion alike.  The evaluators built on top of this module
stay at desk scale regardless.  All functions are pure and safe to call from concurrent
workers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd, lcm, prod

import numpy as np

__all__ = [
    "NonInvertible",
    "SqfSplit",
    "mod_inverse",
    "batch_mod_inverse",
    "unit_phases",
    "unit_phase_tables",
    "factorize",
    "moebius",
    "euler_phi",
    "radical",
    "divisor_count",
    "tau_k",
    "is_squarefree",
    "is_squarefull",
    "squarefree_squarefull_split",
]

# Integer arithmetic stays exact in int64 while every magnitude it forms is below this.
_INT64_SAFE = 2**62


class NonInvertible(ValueError):
    """A modular inverse was requested for a value sharing a factor with the modulus."""

    def __init__(self, value: int, modulus: int, index: int | None = None):
        self.value = value
        self.modulus = modulus
        self.index = index
        msg = f"{value} is not invertible modulo {modulus}"
        if index is not None:
            msg += f" (input index {index})"
        super().__init__(msg)


@dataclass(frozen=True)
class SqfSplit:
    """Coprime factorization n = squarefree_part * squarefull_part.

    The squarefull part collects every prime occurring to exponent >= 2
    (1 counts as squarefull: empty prime set), the squarefree part the rest.
    """

    squarefree_part: int
    squarefull_part: int

    @property
    def product(self) -> int:
        return self.squarefree_part * self.squarefull_part


def _fits_int64(bound: int) -> bool:
    """Whether arithmetic whose every magnitude is below ``bound`` is exact in
    int64: the one int64 rule, for the callers that choose a path by it."""
    return bound < _INT64_SAFE


def _exact_ints(ints, bound: int) -> np.ndarray:
    """``ints`` (a list or an array) as an integer array on which the caller's
    arithmetic is exact: int64 when ``bound``, the caller's bound on every
    magnitude it forms from them, fits :func:`_fits_int64`, and Python
    integers in an object array otherwise."""
    return np.asarray(ints, dtype=np.int64 if _fits_int64(bound) else object)


def _lane_ints(ints, bound: int) -> np.ndarray:
    """``ints`` in the narrowest lanes on which the caller's arithmetic is
    exact: int32 when ``bound``, the caller's bound on every magnitude it
    forms from them, offsets included, is below 2**31, and the array of
    :func:`_exact_ints` otherwise."""
    return np.asarray(ints, dtype=np.int32) if bound < 2**31 else _exact_ints(ints, bound)


# cos 2 pi t and sin(2 pi t) / t as polynomials in t^2, the Taylor coefficients
# (-1)^j (2 pi)^(2j) / (2j)! and (-1)^j (2 pi)^(2j+1) / (2j+1)!, each rounded once
_COS_2PI = (
    1.0, -19.739208802178716, 64.9393940226683, -85.45681720669373, 60.24464137187666,
    -26.4262567833744, 7.903536371318469, -1.714390711088672, 0.28200596845579123, -0.03638284114254567,
)
_SIN_2PI = (
    6.283185307179586, -41.34170224039976, 81.60524927607506, -76.70585975306139, 42.058693944897655,
    -15.09464257682299, 3.819952584848282, -0.7181223017785006, 0.10422916220813984, -0.012031585942120627,
    0.0011309237482517963,
)
# the two as one Horner table, row j the coefficients of u^(10 - j) of both,
# cos given a leading 0.0 (0.0 * u + c is c exactly, so it changes no bit)
_HORNER = np.array([(0.0, *_COS_2PI[::-1]), _SIN_2PI[::-1]]).T[:, :, None].copy()
# for each octant o = floor(8k / L), the rows of (cos, sin, -cos, -sin) of
# :func:`_cos_sin_2pi` that give Re and Im of e(k / L)
_OCTANT = np.array([(0, 1), (1, 0), (3, 0), (2, 1), (2, 3), (3, 2), (1, 2), (0, 3)])


def _cos_sin_2pi(t: np.ndarray) -> np.ndarray:
    """cos 2 pi t, sin 2 pi t, -cos 2 pi t and -sin 2 pi t, the rows of a
    (4, len(t)) float array, for floats t in [0, 1/8]: Horner in u = t * t
    over :data:`_HORNER`, both polynomials in one pass, times t for the
    sine, and 0.0 minus each for the negations.  Every step is one IEEE
    product or sum of numpy, so the bits do not depend on the CPU or the
    libm."""
    u = t * t
    out = np.empty((4, len(t)))
    cos_sin = out[:2]
    cos_sin[...] = _HORNER[0]
    for c in _HORNER[1:]:
        cos_sin *= u
        cos_sin += c
    out[1] *= t
    np.subtract(0.0, cos_sin, out=out[2:])
    return out


def unit_phases(k, L) -> np.ndarray:
    """e(k / L) = exp(2 pi i k / L) for integers 0 <= k < L, with ``k`` an
    integer or an integer array and ``L`` one modulus or an array that
    broadcasts against it, by one rule with no libm call; the result has
    the broadcast shape, 0-d for a scalar k and L.  The octant o =
    floor(8k / L) and num = 8k - oL, reflected to L - num in odd octants,
    are exact integers; t = num / (8L) in [0, 1/8] is one correctly
    rounded quotient, taken on float64 while L <= 2**53 (num and 8L are
    then exact floats) and as Python's ``int / int`` past that;
    :func:`_cos_sin_2pi` gives cos and sin of 2 pi t, and :data:`_OCTANT`
    picks the swap and the signs.  So k and 2k modulo 2L get the same
    value, and k and L - k the same t and, unless 8k / L is an odd integer
    (where cos and sin of pi/4 come from different polynomials), conjugate
    values."""
    k, L = np.asarray(k), np.asarray(L)
    if k.ndim == L.ndim == 0:
        # numpy's steps on 0-d arrays give scalars, which take no ``out=``
        return unit_phases(k[None], L).reshape(())
    if k.dtype == object or L.dtype == object or int(L.max(initial=0)) > 2**53:
        k, L = k.astype(object), L.astype(object)
    k8 = 8 * k
    o = k8 // L
    num = k8 - o * L
    np.subtract(L, num, out=num, where=(o & 1).astype(bool))
    t = np.asarray(num / (8 * L), dtype=np.float64).ravel()
    # the flat positions in the (4, t.size) basis of each entry's Re and Im
    at = _OCTANT[o.astype(np.int64, copy=False).ravel()] * t.size
    at += np.arange(t.size)[:, None]
    return _cos_sin_2pi(t).take(at).view(complex).reshape(o.shape)


def unit_phase_tables(Ls) -> tuple[np.ndarray, dict[int, int]]:
    """One buffer of the values e(k / L), k in [0, L), of each of the
    distinct moduli ``Ls`` in turn, and where each L's values begin, with
    the bits of :func:`unit_phases` at every entry.  Each L is evaluated at
    S = lcm(L, 8): cos and sin of 2 pi j / S, j in [0, S/8], come from one
    :func:`_cos_sin_2pi` pass over all moduli, and fill S's eight octants by
    slices of an (8, S/8, 2) float view, the odd octants read backwards,
    in place when S = L and read at stride S/L otherwise: fl(8j / 8S) =
    fl(j / S), so each entry is the rule's.  Entry sk of a table of size sL
    has the octant of k modulo L and t = s num / (s 8L), which rounds as
    num / 8L, so it has the bits of e(k / L): a divisor's table is a
    strided read of its multiple's."""
    begin = dict(zip(Ls, itertools.accumulate(Ls, initial=0)))
    buffer = np.empty(sum(begin), dtype=complex)
    lifts = [L * 8 // gcd(L, 8) for L in begin]
    basis = _cos_sin_2pi(np.concatenate([np.arange(S // 8 + 1) / S for S in lifts]))
    at = 0
    for L, S in zip(begin, lifts):
        values = buffer[begin[L]:begin[L] + L]
        lifted = values if S == L else np.empty(S, dtype=complex)
        q = S // 8
        octants = lifted.view(np.float64).reshape(8, q, 2)
        # even octants read t = j / S ahead, odd ones (q - j) / S
        ahead, back = basis[:, at:at + q], basis[:, at + q:at:-1]
        for o, (re, im) in enumerate(_OCTANT):
            part = back if o % 2 else ahead
            octants[o, :, 0] = part[re]
            octants[o, :, 1] = part[im]
        at += q + 1
        if S > L:
            values[...] = lifted[::S // L]
    return buffer, begin


def mod_inverse(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m`` in [0, m); raises :class:`NonInvertible` if gcd(a, m) > 1."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NonInvertible(a, m) from None


def _euclid(v: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lane-wise extended Euclid on integer arrays of one lane width with
    0 <= v < m and 1 <= m below the width's max (2**62 on int64): g =
    gcd(v, m) and x with v * x = g (mod m).  Finished lanes are written out
    and dropped every four steps, not on every one.

    Every remainder lies in [0, m] and every Bezout coefficient in [-m, m], so
    no step leaves the width.  A lane that finishes between two checks
    divides by its zero remainder, which numpy answers with q = 0 (the
    warning held back): its remainders then alternate between (g, 0) and
    (0, g), its coefficients swapping with them, so a check reads g and x
    from whichever remainder is zero; m >= 1 keeps g > 0.
    """
    g = np.empty_like(m)
    x = np.empty_like(m)
    lanes = np.arange(m.size)
    # the first step from (v, m) only swaps, since v < m
    r0, r1, s0, s1 = m, v, np.zeros_like(m), np.ones_like(m)
    with np.errstate(divide="ignore"):
        while lanes.size:
            for _ in range(4):
                q = r0 // r1
                r0, r1 = r1, r0 - q * r1
                s0, s1 = s1, s0 - q * s1
            done = np.minimum(r0, r1) == 0
            if done.any():
                swapped = r0[done] == 0
                g[lanes[done]] = r0[done] + r1[done]
                x[lanes[done]] = np.where(swapped, s1[done], s0[done])
                live = ~done
                lanes, r0, r1, s0, s1 = lanes[live], r0[live], r1[live], s0[live], s1[live]
    return g, x


def batch_mod_inverse(values, m):
    """Inverses of ``values[i]`` modulo ``m``, or modulo ``m[i]`` when ``m``
    gives one modulus per value, each in [0, modulus).

    The integers alone pick the algorithm.  Values that fit int64, with
    moduli that :func:`_exact_ints` keeps in int64, are inverted at once by
    a vectorised extended Euclid; big integers go through ``pow`` one value
    at a time.  A list gives a list of plain ints, an array an int64 array
    (Euclid) or an object array (``pow``); the integers are the same either
    way.  If some value is not invertible the raised :class:`NonInvertible`
    carries the first offending index.
    """
    if np.any(np.asarray(m) < 1):
        raise ValueError(f"modulus must be positive, got {m}")
    as_array = isinstance(values, np.ndarray)
    vs, moduli = np.asarray(values), np.broadcast_to(np.asarray(m), np.shape(values))
    # a list with an integer past int64 parses as no int64 array, so it stays on pow
    if vs.dtype.kind == "i" and moduli.dtype.kind == "i":
        # the Euclid's remainders and coefficients are bounded by the moduli
        moduli = _exact_ints(moduli, int(moduli.max(initial=0)))
        if moduli.dtype == np.int64:
            g, x = _euclid(vs % moduli, moduli)
            bad = np.flatnonzero(g != 1)
            if bad.size:
                index = int(bad[0])
                raise NonInvertible(int(vs[index]), int(moduli[index]), index=index)
            return x % moduli if as_array else (x % moduli).tolist()
    vs = values.tolist() if as_array else list(values)
    ms = np.broadcast_to(np.asarray(m, dtype=object), len(vs)).tolist()
    try:
        invs = [pow(v, -1, mi) for v, mi in zip(vs, ms)]
    except ValueError:
        index = next(i for i, (v, mi) in enumerate(zip(vs, ms)) if gcd(v, mi) != 1)
        raise NonInvertible(vs[index], ms[index], index=index) from None
    return np.array(invs, dtype=object) if as_array else invs


def _unit_mask(q: int, factors: dict[int, int]) -> np.ndarray:
    """Whether each residue r in [0, q) is a unit mod q, as a boolean array:
    the primes of q, from its factorization ``factors``, strike their
    multiples."""
    unit = np.ones(q, dtype=bool)
    for p in factors:
        unit[::p] = False
    return unit


def _unit_inverses(units: np.ndarray, q: int, factors: dict[int, int]) -> np.ndarray:
    """The one rule for inverting the units of a single modulus q: the
    inverses mod q, each in [0, q), of ``units``, an integer array of units
    in [0, q), ``factors`` being q's; exact for a product with a residue
    (bound q * q).  While q * q fits int64: u^(lambda(q) - 1) mod q by
    square-and-multiply in place on a copy of the array, lambda from
    :func:`_carmichael`; above
    that, where powers would run on object arrays, :func:`batch_mod_inverse`."""
    if not _fits_int64(q * q):
        return _exact_ints(batch_mod_inverse(_exact_ints(units, q), q), q * q)
    base = _exact_ints(units, q * q).copy()  # squared in place: never the caller's array
    inv = np.full_like(base, 1 % q)
    e = _carmichael(factors) - 1
    while e:
        if e & 1:
            inv *= base
            inv %= q
        e >>= 1
        if e:
            base *= base
            base %= q
    return inv


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; adequate at desk scale."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def moebius(n: int) -> int:
    """Moebius function: (-1)^(#prime factors) on squarefree n, else 0."""
    mu = 1
    for _, e in factorize(n).items():
        if e > 1:
            return 0
        mu = -mu
    return mu


def _totient(factors: dict[int, int]) -> int:
    """Euler's phi of the integer whose factorization is ``factors``."""
    return prod((p - 1) * p ** (e - 1) for p, e in factors.items())


def _carmichael(factors: dict[int, int]) -> int:
    """The Carmichael exponent lambda of the integer whose factorization is
    ``factors``, the least e with u^e = 1 for every unit u: the lcm over the
    p^k exactly dividing it of phi(p^k), halved for 2^k with k >= 3."""
    return lcm(*(_totient({p: k}) >> (p == 2 and k > 2) for p, k in factors.items()))


def euler_phi(n: int) -> int:
    """Euler totient."""
    return _totient(factorize(n))


def radical(n: int) -> int:
    """Product of the distinct primes dividing n (radical; rad(1) = 1)."""
    r = 1
    for p in factorize(n):
        r *= p
    return r


def tau_k(n: int, k: int) -> int:
    """Number of ordered k-tuples of positive integers with product n.

    Multiplicative with tau_k(p^e) = C(e + k - 1, k - 1).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    out = 1
    for _, e in factorize(n).items():
        out *= comb(e + k - 1, k - 1)
    return out


def divisor_count(n: int) -> int:
    """Ordinary divisor count tau(n)."""
    return tau_k(n, 2)


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def is_squarefull(n: int) -> bool:
    """True when every prime factor occurs to exponent >= 2 (1 is squarefull)."""
    return all(e >= 2 for e in factorize(n).values())


def squarefree_squarefull_split(n: int) -> SqfSplit:
    """The unique coprime splitting of n into squarefree and squarefull parts."""
    sf = 1
    full = 1
    for p, e in factorize(n).items():
        if e == 1:
            sf *= p
        else:
            full *= p**e
    return SqfSplit(sf, full)

