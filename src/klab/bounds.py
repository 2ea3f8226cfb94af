"""Closed-form bound evaluators and exact rational exponent-range arithmetic.

Two kinds of machinery live here:

- floating-point evaluators for the proven right-hand sides (the coprime
  trilinear bound, its fixed-denominator-factor refinement, and the
  squarefree mean-square bound), each reporting its additive terms
  separately so term dominance can be studied;
- exact ``fractions.Fraction`` arithmetic for the admissible exponent
  ranges of the unbalanced-convolution corollaries (nothing here ever
  rounds: every comparison is a rational comparison).

Reporting convention: ``terms`` are the displayed additive terms of a
formula (sizes only); ``scale`` collects the displayed global multipliers
(norms, the (1 + |theta| A / ...)^(1/2 or 1/4) prefactor, the epsilon
bump); ``total = scale * sum(terms)`` in the evaluators here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

__all__ = [
    "InvalidExponent",
    "RhsReport",
    "NExponentCeiling",
    "ConditionResult",
    "RangeCheck",
    "parse_exponent",
    "rhs_trilinear_coprime",
    "rhs_trilinear_fixed_factor",
    "rhs_mean_square_bound",
    "admissible_n_exponent",
    "extremal_q_exponent",
    "check_range_conditions",
    "check_rhs_inputs",
    "COROLLARY_TABLES",
    "DISPERSION_TAIL_EXPONENTS",
    "EXPONENT_VARIANTS",
    "FIXED_N_CAPS",
    "HANDOFF_N_EXPONENT",
]

class InvalidExponent(ValueError):
    """Raised for exponents outside their admissible interval or unparseable text."""


def parse_exponent(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer/decimal) into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidExponent(f"cannot parse exponent {text!r}: {exc}") from None


def check_rhs_inputs(epsilon: float, *sizes: float) -> None:
    """The input rule of every right-hand side: 0 < size < inf, 0 <= epsilon < 1 (NaN fails both)."""
    if not all(0 < size < math.inf for size in sizes):
        raise ValueError("sizes must be positive and finite")
    if not 0 <= epsilon < 1:
        raise InvalidExponent(f"epsilon must lie in [0, 1), got {epsilon}")


@dataclass(frozen=True)
class RhsReport:
    """Right-hand side of a bound: named additive terms, the global scale
    multiplier, the combined total (scale * sum(terms), but scale *
    sqrt(sum(terms)) in rhs_dispersion), hypothesis flags, and extra diagnostics."""

    terms: tuple[tuple[str, float], ...]
    scale: float
    total: float
    flags: tuple[str, ...] = ()
    meta: Mapping[str, float] = field(default_factory=dict)


def _sum_report(
    terms: Sequence[tuple[str, float]],
    scale: float,
    flags: Sequence[str] = (),
    meta: Mapping[str, float] | None = None,
) -> RhsReport:
    total = scale * math.fsum(v for _, v in terms)
    return RhsReport(tuple(terms), scale, total, tuple(flags), dict(meta or {}))


def rhs_trilinear_coprime(
    M: float,
    N: float,
    A: float,
    theta: int,
    norms: tuple[float, float, float],
    epsilon: float = 0.0,
) -> RhsReport:
    """The two-term bound for the coprime trilinear form (no fixed factor):

        norms * (1 + |theta| A / (MN))^(1/2)
              * ( (AMN)^(7/20+eps) (M+N)^(1/4) + (AMN)^(3/8+eps) (AN+AM)^(1/8) )
    """
    check_rhs_inputs(epsilon, M, N, A)
    amn = A * M * N
    terms = [
        ("term1", amn ** (7 / 20 + epsilon) * (M + N) ** (1 / 4)),
        ("term2", amn ** (3 / 8 + epsilon) * (A * N + A * M) ** (1 / 8)),
    ]
    prefactor = math.sqrt(1.0 + abs(theta) * A / (M * N))
    scale = norms[0] * norms[1] * norms[2] * prefactor
    return _sum_report(terms, scale, meta={"prefactor": prefactor})


# The third term's A-exponent in each version of the fixed-factor bound, the default first.
EXPONENT_VARIANTS: dict[str, float] = {"statement": 1 / 20, "proof": 3 / 10}


def rhs_trilinear_fixed_factor(
    M: float,
    N: float,
    A: float,
    R: float,
    theta: int,
    norms: tuple[float, float, float],
    epsilon: float = 0.0,
    exponent_variant: str = "statement",
) -> RhsReport:
    """The five-term bound for the trilinear form with fixed denominator factor R:

        M^eps * norms * (AMN)^(1/2) R^(1/4) (1 + |theta| A / (MN))^(1/4)
          * ( 1/N^(1/8) + R^(1/8) N^(1/8) / M^(1/4)
            + M^(1/10) / (R^(3/20) A^x N^(3/20))
            + N^(3/20) / (A^(3/20) M^(1/5)) + N^(3/8) / M^(1/2) )

    The A-exponent x in the third term is 1/20 under variant "statement" and
    3/10 under variant "proof" (``EXPONENT_VARIANTS``); the two displayed
    versions disagree and both are exposed.  The working hypotheses M << N^2
    and R << M^A are not enforced; violations are reported as flags and the
    value is still computed so sweeps can map where the formula degrades.
    """
    check_rhs_inputs(epsilon, M, N, A, R)
    if exponent_variant not in EXPONENT_VARIANTS:
        raise ValueError(f"unknown exponent_variant {exponent_variant!r}")
    x3 = EXPONENT_VARIANTS[exponent_variant]
    terms = [
        ("term1", N ** (-1 / 8)),
        ("term2", R ** (1 / 8) * N ** (1 / 8) / M ** (1 / 4)),
        ("term3", M ** (1 / 10) / (R ** (3 / 20) * A**x3 * N ** (3 / 20))),
        ("term4", N ** (3 / 20) / (A ** (3 / 20) * M ** (1 / 5))),
        ("term5", N ** (3 / 8) / M ** (1 / 2)),
    ]
    flags = []
    if M > N * N:
        flags.append("M>N^2")
    if (M > 1 and math.log(R) > A * math.log(M)) or (M <= 1 and R > 1):
        flags.append("R>M^A")
    prefactor = (1.0 + abs(theta) * A / (M * N)) ** (1 / 4)
    scale = (
        M**epsilon
        * norms[0]
        * norms[1]
        * norms[2]
        * (A * M * N) ** (1 / 2)
        * R ** (1 / 4)
        * prefactor
    )
    return _sum_report(terms, scale, flags, meta={"prefactor": prefactor})


def rhs_mean_square_bound(
    M: float,
    N: float,
    A: float,
    b: float,
    theta: int,
    norms_beta_nu: tuple[float, float],
    epsilon: float = 0.0,
) -> RhsReport:
    """The six-term bound for the squarefree mean square with denominator n*b:

        ||beta||^2 ||nu||^2 M^eps (1 + |theta| A / (bMN))^(1/2)
          * ( AM(bN)^(1/2) + b^(3/4) A M^(1/2) N^(5/4) + A M^(6/5) N^(1/10) / b^(2/5)
            + b^(1/5) A^(2/5) M^(6/5) N^(7/10) + b^(1/2) A^(7/10) M^(3/5) N^(13/10)
            + b^(1/2) A N^(7/4) )
    """
    check_rhs_inputs(epsilon, M, N, A, b)
    terms = [
        ("term1", A * M * (b * N) ** (1 / 2)),
        ("term2", b ** (3 / 4) * A * M ** (1 / 2) * N ** (5 / 4)),
        ("term3", A * M ** (6 / 5) * N ** (1 / 10) / b ** (2 / 5)),
        ("term4", b ** (1 / 5) * A ** (2 / 5) * M ** (6 / 5) * N ** (7 / 10)),
        ("term5", b ** (1 / 2) * A ** (7 / 10) * M ** (3 / 5) * N ** (13 / 10)),
        ("term6", b ** (1 / 2) * A * N ** (7 / 4)),
    ]
    prefactor = math.sqrt(1.0 + abs(theta) * A / (b * M * N))
    scale = norms_beta_nu[0] ** 2 * norms_beta_nu[1] ** 2 * M**epsilon * prefactor
    return _sum_report(terms, scale, meta={"prefactor": prefactor})


# ---------------------------------------------------------------------------
# Exact exponent-range arithmetic for the unbalanced-convolution corollaries.
#
# Each corollary admits N <= X^(ceiling) under one of three variants:
#   (i)  a ceiling linear in the Q-exponent,
#   (ii)/(iii) fixed ceilings valid up to a Q-exponent cap.
# "new" is the fixed-factor improvement; "fr" the baseline it improves on.
# ---------------------------------------------------------------------------

# Exact exponents of the dispersion bound's two tail terms D^C X^eps M^e_M Q^e_Q N^e_N
# and of the baseline terms they improve on; everything below reads them here.
DISPERSION_TAIL_EXPONENTS: dict[str, dict[str, Fraction]] = {
    "new_term4": {"Q": Fraction(15, 8), "N": Fraction(11, 4), "M": Fraction(0)},
    "new_term5": {"Q": Fraction(33, 20), "N": Fraction(51, 20), "M": Fraction(3, 20)},
    "old_term4": {"Q": Fraction(15, 8), "N": Fraction(23, 8), "M": Fraction(0)},
    "old_term5": {"Q": Fraction(33, 20), "N": Fraction(59, 20), "M": Fraction(3, 10)},
}


def _size_slack(term: str, m: Fraction, q: Fraction, n: Fraction, eps: Fraction) -> Fraction:
    """Slack of ||alpha|| * sqrt(term) < X^(1-eps), ||alpha|| = M^(1/2), in exponents of X."""
    e = DISPERSION_TAIL_EXPONENTS[term]
    return (1 - eps) - (m + e["M"] * m + e["Q"] * q + e["N"] * n) / 2


def _variant_i_line(term: str) -> dict[str, Fraction]:
    """The line n = i_const - i_slope * q where ``term``'s size slack is 0 at m = 1 - n, eps = 0."""
    e = DISPERSION_TAIL_EXPONENTS[term]
    denom = e["N"] - 1 - e["M"]
    return {"i_const": (1 - e["M"]) / denom, "i_slope": e["Q"] / denom}


COROLLARY_TABLES: dict[str, dict[str, Fraction]] = {
    # new_term5's line, 17/28 - (33/28) q; new_term4's, 4/7 - (15/14) q, binds only below q = 1/3
    "new": {**_variant_i_line("new_term5"), "q_cap": Fraction(45, 89)},
    "fr": {
        "i_const": Fraction(17, 36),
        "i_slope": Fraction(11, 12),
        "q_cap": Fraction(53, 105),
    },
}

FIXED_N_CAPS: dict[str, Fraction] = {
    "ii": Fraction(7, 90),
    "iii": Fraction(101, 630),
}


def _corollary_table(corollary: str) -> dict[str, Fraction]:
    if corollary not in COROLLARY_TABLES:
        raise ValueError(f"unknown corollary {corollary!r}; expected 'fr' or 'new'")
    return COROLLARY_TABLES[corollary]


def _require_open_unit(name: str, x: Fraction) -> None:
    if not Fraction(0) < x < Fraction(1):
        raise InvalidExponent(f"{name}-exponent must lie in (0, 1), got {x}")


@dataclass(frozen=True)
class NExponentCeiling:
    """Exact N-exponent ceiling (before the -eps) for one corollary variant."""

    corollary: str
    variant: str
    q_exp: Fraction
    ceiling: Fraction
    feasible: bool
    q_admissible: bool
    extremal_q: Fraction


def extremal_q_exponent(corollary: str) -> Fraction:
    """The Q-exponent at which the variant-(i) ceiling hits zero."""
    tab = _corollary_table(corollary)
    return tab["i_const"] / tab["i_slope"]


def admissible_n_exponent(corollary: str, variant: str, q_exp: Fraction) -> NExponentCeiling:
    """Exact rational N-exponent ceiling for the given corollary and variant.

    Variant "i" returns const - slope * q_exp (zero or negative means the
    variant is infeasible at that Q-exponent).  Variants "ii"/"iii" return
    their fixed caps and report whether q_exp lies under the corollary's
    Q-cap; the -eps slack of the actual statements is left to the caller.
    """
    tab = _corollary_table(corollary)
    q = Fraction(q_exp)
    _require_open_unit("q", q)
    if variant == "i":
        ceiling = tab["i_const"] - tab["i_slope"] * q
        extremal = extremal_q_exponent(corollary)
        return NExponentCeiling(corollary, variant, q, ceiling, ceiling > 0, q < extremal, extremal)
    if variant in ("ii", "iii"):
        cap = FIXED_N_CAPS[variant]
        ok = q <= tab["q_cap"]
        return NExponentCeiling(corollary, variant, q, cap, ok, ok, tab["q_cap"])
    raise ValueError(f"unknown variant {variant!r}; expected 'i', 'ii' or 'iii'")


# N-exponent where variants (ii)/(iii) hand off to the complementary
# wide-modulus ranges: the variant-(i) ceiling evaluated at the Q-cap.
HANDOFF_N_EXPONENT = admissible_n_exponent("new", "i", COROLLARY_TABLES["new"]["q_cap"]).ceiling


@dataclass(frozen=True)
class ConditionResult:
    satisfied: bool
    slack: Fraction


@dataclass(frozen=True)
class RangeCheck:
    variants: frozenset[str]
    conditions: Mapping[str, ConditionResult]
    m_exp: Fraction


def check_range_conditions(
    n_exp: Fraction,
    q_exp: Fraction,
    a_exp: Fraction,
    epsilon: Fraction,
    corollary: str = "new",
) -> RangeCheck:
    """Exact rational check of the admissibility conditions at a parameter point.

    The M-exponent is inferred as 1 - n_exp (the product of the two ranges
    sits at X).  Returns per-condition truth values with their exact slacks,
    the set of satisfied variants, and flags for the two classical
    complementary ranges Q <= min(sqrt(NX), X^(4/7) N^(-6/7)) and
    Q <= min(sqrt(NX), X^(5/8) N^(-3/4)).
    """
    tab = _corollary_table(corollary)
    n = Fraction(n_exp)
    q = Fraction(q_exp)
    a = Fraction(a_exp)
    eps = Fraction(epsilon)
    _require_open_unit("n", n)
    ceiling_i = admissible_n_exponent(corollary, "i", q).ceiling  # requires q in (0, 1)
    if a < 0 or a > 1:
        raise InvalidExponent(f"a-exponent must lie in [0, 1], got {a}")
    check_rhs_inputs(eps)
    m = 1 - n

    def strict(slack: Fraction) -> ConditionResult:
        return ConditionResult(slack > 0, slack)

    def weak(slack: Fraction) -> ConditionResult:
        return ConditionResult(slack >= 0, slack)

    conds: dict[str, ConditionResult] = {}
    # Size conditions of the two new tail terms; mqn2 at m = 1 - n gives the "new" line.
    conds["mqn1"] = strict(_size_slack("new_term4", m, q, n, eps))
    conds["mqn2"] = strict(_size_slack("new_term5", m, q, n, eps))
    conds["n_ceiling_i"] = weak((ceiling_i - eps) - n)
    conds["n_cap_ii"] = weak((FIXED_N_CAPS["ii"] - eps) - n)
    conds["n_cap_iii"] = weak((FIXED_N_CAPS["iii"] - eps) - n)
    conds["q_cap"] = weak((tab["q_cap"] - eps) - q)
    conds["a_bounded"] = weak(1 - a)
    conds["a_tiny"] = weak(eps / 1000 - a)
    # Complementary classical ranges (wide-modulus regimes).
    sqrt_nx = (1 + n) / 2
    conds["complement_range_47"] = weak(min(sqrt_nx, Fraction(4, 7) - Fraction(6, 7) * n) - eps - q)
    conds["complement_range_58"] = weak(min(sqrt_nx, Fraction(5, 8) - Fraction(3, 4) * n) - eps - q)

    variants = set()
    if conds["n_ceiling_i"].satisfied and conds["a_bounded"].satisfied:
        variants.add("i")
    if conds["n_cap_ii"].satisfied and conds["q_cap"].satisfied and conds["a_bounded"].satisfied:
        variants.add("ii")
    if conds["n_cap_iii"].satisfied and conds["q_cap"].satisfied and conds["a_tiny"].satisfied:
        variants.add("iii")
    return RangeCheck(frozenset(variants), conds, m)
