"""Coefficient sequences and dyadic supports.

A :class:`CoefficientSequence` is an immutable complex-valued map on a
finite integer support with cached l1/l2 norms, an optional divisor
bound tag (|value(n)| <= tau_k(n)) and its nonzero entries as arrays,
built once: the one view the form and dispersion evaluators read.  A
dyadic support is (T, 2T]; an explicit support may hold indices that
carry no value, and the mean squares still run over them.
Sequences come from an index -> value map (:func:`make_sequence`) or one
of a few standard kinds (:func:`build_sequence`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from math import fsum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .arith import moebius, tau_k, unit_phases

__all__ = [
    "EmptySupport",
    "DivisorBoundViolation",
    "DyadicRange",
    "CoefficientSequence",
    "make_sequence",
    "build_sequence",
]


class EmptySupport(ValueError):
    """Raised when a sequence is requested on an empty support."""


class DivisorBoundViolation(ValueError):
    """Raised when divisor_bound_k is asserted but some |value(n)| > tau_k(n)."""


@dataclass(frozen=True)
class DyadicRange:
    """The integers in (T, 2T] for base T."""

    base: int

    def __post_init__(self):
        if self.base < 1:
            raise ValueError(f"base must be positive, got {self.base}")

    def indices(self) -> range:
        return range(self.base + 1, 2 * self.base + 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices())


def _support_indices(support: DyadicRange | Iterable[int]) -> list[int]:
    if isinstance(support, DyadicRange):
        return list(support.indices())
    return sorted(set(int(n) for n in support))


@dataclass(frozen=True)
class CoefficientSequence:
    """Immutable complex sequence on a finite support with cached norms.

    ``indices`` (a tuple of ints) and ``coeffs`` (a read-only complex
    array) hold the entries whose value is nonzero, in ascending index
    order; both are derived from ``values`` once, at construction, and
    take no part in ``==`` or ``repr``.
    """

    support: DyadicRange | frozenset[int]
    values: Mapping[int, complex]
    l1_norm: float
    l2_norm: float
    divisor_bound_k: int | None = None
    indices: tuple[int, ...] = field(init=False, compare=False, repr=False)
    coeffs: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        items = [(n, v) for n, v in sorted(self.values.items()) if v != 0]
        coeffs = np.array([v for _, v in items], dtype=complex)
        coeffs.flags.writeable = False
        object.__setattr__(self, "indices", tuple(n for n, _ in items))
        object.__setattr__(self, "coeffs", coeffs)

    def nonzero_items(self) -> list[tuple[int, complex]]:
        return list(zip(self.indices, self.coeffs.tolist()))

    def support_indices(self) -> list[int]:
        return _support_indices(self.support)


def make_sequence(
    values: Mapping[int, complex],
    support: DyadicRange | Iterable[int] | None = None,
    divisor_bound_k: int | None = None,
) -> CoefficientSequence:
    """Build a sequence from an explicit index -> value map, validating invariants."""
    vals = {int(n): complex(v) for n, v in values.items()}
    if support is None:
        supp: DyadicRange | frozenset[int] = frozenset(vals)
    elif isinstance(support, DyadicRange):
        supp = support
    else:
        supp = frozenset(int(n) for n in support)
    supp_set = set(_support_indices(supp))
    if not supp_set:
        raise EmptySupport("sequence support is empty")
    stray = set(vals) - supp_set
    if stray:
        raise ValueError(f"indices outside the support: {sorted(stray)[:5]}")
    if divisor_bound_k is not None:
        if divisor_bound_k < 1:
            raise ValueError("divisor_bound_k must be a positive integer")
        for n, v in vals.items():
            bound = tau_k(n, divisor_bound_k)
            if abs(v) > bound * (1 + 1e-12) + 1e-12:
                raise DivisorBoundViolation(
                    f"|value({n})| = {abs(v)} exceeds tau_{divisor_bound_k}({n}) = {bound}"
                )
    mags = [abs(v) for v in vals.values()]
    try:
        l1 = fsum(mags)
    except OverflowError:  # the exact sum of finite |v| rounds past the largest float
        l1 = math.inf
    # the squares of |v| >= 2**-511 are normal floats, and their sum stays below 2**1023
    # while len * max |v|**2 does; past either, square |v| / 2**e with 2**e near max |v|,
    # which would change no bit where no square underflows
    top, low = max(mags, default=0.0), min(filter(None, mags), default=1.0)
    e = 0 if 2.0**-511 <= low and top * top * len(mags) < 2.0**1023 else math.frexp(top)[1]
    scaled = mags if e == 0 else [math.ldexp(m, -e) for m in mags]
    l2 = math.ldexp(math.sqrt(fsum([m**2 for m in scaled])), e)
    return CoefficientSequence(supp, vals, l1, l2, divisor_bound_k)


def build_sequence(
    kind: str,
    support: DyadicRange | Iterable[int],
    *,
    k: int | None = None,
    seed: int | None = None,
) -> CoefficientSequence:
    """Build one of the standard test sequences on the given support.

    kind is one of:

    - ``"ones"``      constant 1 (divisor bound k=1)
    - ``"moebius"``   the Moebius function (divisor bound k=1)
    - ``"tau_k"``     the k-fold divisor function; requires ``k`` (bound k)
    - ``"random_unit"`` i.i.d. uniform phases e(u) drawn from
      ``random.Random(seed)`` in increasing index order, each u = k / 2**53
      taken by :func:`klab.arith.unit_phases`, then scaled so the whole
      sequence has l2 norm exactly 1; requires ``seed``

    ``k`` and ``seed`` are ignored by the kinds that do not take them.
    Sequences with caller-supplied values come from :func:`make_sequence`.
    """
    idx = _support_indices(support)
    if not idx:
        raise EmptySupport("sequence support is empty")
    supp = support if isinstance(support, DyadicRange) else frozenset(idx)

    if kind == "ones":
        return make_sequence({n: 1 + 0j for n in idx}, supp, divisor_bound_k=1)
    if kind == "moebius":
        return make_sequence({n: complex(moebius(n)) for n in idx}, supp, divisor_bound_k=1)
    if kind == "tau_k":
        if k is None:
            raise ValueError("kind 'tau_k' requires k")
        return make_sequence({n: complex(tau_k(n, k)) for n in idx}, supp, divisor_bound_k=k)
    if kind == "random_unit":
        if seed is None:
            raise ValueError("kind 'random_unit' requires seed")
        rng = random.Random(seed)
        # each draw is u = k / 2**53 exactly, so e(u) is the phase rule's e(k / 2**53)
        k = (np.array([rng.random() for _ in idx]) * 2.0**53).astype(np.int64)
        # scaled in float parts, one rounding each
        values = unit_phases(k, 2**53).view(np.float64) * (1.0 / math.sqrt(len(idx)))
        return make_sequence(dict(zip(idx, values.view(complex).tolist())), supp)
    raise ValueError(f"unknown sequence kind {kind!r}")


def _csum(parts: Sequence[complex] | np.ndarray) -> complex:
    """math.fsum of the real parts and of the imaginary parts (0j when empty)."""
    z = np.asarray(parts, dtype=complex)
    return complex(fsum(z.real.tolist()), fsum(z.imag.tolist()))
