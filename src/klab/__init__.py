"""klab: a desk-scale laboratory for trilinear Kloosterman-fraction forms.

Exact evaluators for coefficient-weighted exponential sums with modular
inverses in the phase, their complementary-divisor decomposition, the
dispersion split for progression errors, closed-form bound evaluators with
per-term reporting, and exact rational exponent-range arithmetic — plus a
deterministic sweep/verification CLI (``klab``).
"""

from .arith import (
    NonInvertible,
    SqfSplit,
    batch_mod_inverse,
    mod_inverse,
    squarefree_squarefull_split,
    tau_k,
)
from .bounds import (
    InvalidExponent,
    RhsReport,
    admissible_n_exponent,
    check_range_conditions,
    parse_exponent,
    rhs_dispersion,
    rhs_mean_square_bound,
    rhs_trilinear_coprime,
    rhs_trilinear_fixed_factor,
)
from .dispersion import (
    DispersionSplit,
    NotCoprime,
    SmoothCutoff,
    cauchy_schwarz_gap,
    completed_coprime_sum,
    completed_progression_sum,
    dispersion_split,
    progression_error,
    progression_error_total,
    sw_discrepancy,
)
from .forms import (
    DecompositionMismatch,
    FormResult,
    TrilinearSpec,
    complementary_split,
    mean_square_decomposed,
    mean_square_direct,
    squarefree_mean_square,
    trilinear_form,
    trilinear_forms,
)
from .sequences import (
    CoefficientSequence,
    DyadicRange,
    EmptySupport,
    build_sequence,
    make_sequence,
)

__version__ = "0.1.0"
