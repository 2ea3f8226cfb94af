"""Exact modular and multiplicative arithmetic primitives.

Everything here works on plain Python integers, so moduli far beyond 64
bits are handled exactly; the evaluators built on top of this module stay
at desk scale regardless.  All functions are pure and safe to call from
concurrent workers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import comb, gcd, isqrt

__all__ = [
    "NonInvertible",
    "SqfSplit",
    "mod_inverse",
    "batch_mod_inverse",
    "factorize",
    "spf_sieve",
    "moebius",
    "euler_phi",
    "radical",
    "divisor_count",
    "tau_k",
    "is_squarefree",
    "is_squarefull",
    "squarefree_squarefull_split",
    "kloosterman_phase",
]


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


def mod_inverse(a: int, m: int) -> int:
    """Inverse of ``a`` modulo ``m`` in [0, m); raises :class:`NonInvertible` if gcd(a, m) > 1."""
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NonInvertible(a, m) from None


def batch_mod_inverse(values: list[int], m: int) -> list[int]:
    """Inverses of many values modulo ``m``, as plain ints in [0, m).

    If some value is not invertible the raised :class:`NonInvertible`
    carries the first offending index.
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    try:
        return [pow(v, -1, m) for v in values]
    except ValueError:
        index = next(i for i, v in enumerate(values) if gcd(v, m) != 1)
        raise NonInvertible(values[index], m, index=index) from None


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


def spf_sieve(limit: int) -> list[int]:
    """Smallest-prime-factor table for 0..limit (bulk factorization helper)."""
    spf = list(range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for k in range(p * p, limit + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


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


def kloosterman_phase(theta: int, a: int, m: int, n: int, R: int = 1) -> complex:
    """The unit phase e(theta * a * m^{-1} / (n R)) with the inverse taken mod nR.

    The numerator is reduced mod nR exactly (integer arithmetic) before any
    transcendental evaluation, so large inputs cannot lose the fractional
    part to cancellation.
    """
    L = n * R
    inv = mod_inverse(m, L)
    x = (theta * a * inv) % L
    return cmath.exp(2j * math.pi * (x / L))
