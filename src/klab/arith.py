"""Exact modular and multiplicative arithmetic primitives.

Everything here is exact at any size: moduli far beyond 64 bits are handled
with plain Python integers, and :func:`batch_mod_inverse` picks its
algorithm from the integers alone: a vectorised extended Euclid when every
value and modulus fits int64, in a list or an array, and ``pow`` otherwise.
Whether integer arithmetic may run on int64 or must use Python integers is
decided in one place, :func:`_fits_int64`, from a magnitude bound that its
caller supplies; forms and dispersion build their integer arrays through
:func:`_exact_ints`, which applies it.  The evaluators built on top of this module stay at desk scale
regardless.  All functions are pure and safe to call from concurrent
workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd

import numpy as np

__all__ = [
    "NonInvertible",
    "SqfSplit",
    "mod_inverse",
    "batch_mod_inverse",
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


def mod_inverse(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m`` in [0, m); raises :class:`NonInvertible` if gcd(a, m) > 1."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NonInvertible(a, m) from None


def _euclid(v: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lane-wise extended Euclid on int64 arrays with 0 <= v < m < 2**62:
    g = gcd(v, m) and x with v * x = g (mod m).  Finished lanes are written
    out and dropped, so each step only touches lanes still running.

    Every remainder lies in [0, m] and every Bezout coefficient in [-m, m], so
    no step leaves int64.
    """
    g = np.empty_like(m)
    x = np.empty_like(m)
    lanes = np.arange(m.size)
    # the first step from (v, m) only swaps, since v < m
    r0, r1, s0, s1 = m, v, np.zeros_like(m), np.ones_like(m)
    while lanes.size:
        done = r1 == 0
        if done.any():
            g[lanes[done]] = r0[done]
            x[lanes[done]] = s0[done]
            live = ~done
            lanes, r0, r1, s0, s1 = lanes[live], r0[live], r1[live], s0[live], s1[live]
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
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


def euler_phi(n: int) -> int:
    """Euler totient."""
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


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

