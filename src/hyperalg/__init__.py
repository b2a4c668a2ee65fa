"""Convolution-operator dynamics on entire functions.

Exact arithmetic of exponential polynomials, growth diagnostics of symbols,
classification for the existence of hypercyclic algebras, and explicit
witness construction with auditable contraction tables.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .classify import (
    Verdict,
    ZeroSetSummary,
    check_T2,
    classify,
)
from .dynamics import verify_witness
from .errors import (
    ConfigError,
    DerivativeConvergenceError,
    EvaluationRangeError,
    HyperalgError,
    HypothesisError,
    IterationLimitError,
    NormalizationError,
    SearchFailureError,
    TargetPlacementError,
    ThetaMarginError,
)
from .expansion import multinomial_gamma, solve_coeff
from .exppoly import DiskGrid, ExpPoly, mul_exppoly
from .growth import (
    ConvexRay,
    RayScan,
    check_Tma_conditions,
    convex_direction,
    find_arith_progression,
    find_convex_ray,
    first_ray_below_one,
    ray_below_one,
    scan_ray,
)
from .symbols import (
    CatalogSymbol,
    ExpPolySymbol,
    HadamardTrunc,
    PolyTimesExp,
    SymbolSpec,
    derivs_at_zero,
    eval_symbol,
    eval_symbol_array,
    eval_symbol_masked,
    symbol_from_dict,
    to_json_value,
    to_taylor,
)
from .witness import (
    ExponentSet,
    MultiParams,
    ThetaEntry,
    WitnessParams,
    WitnessReport,
    construct_witness_T2,
    construct_witness_multi,
    default_multi_targets,
    default_targets_T2,
    derive_multi_params,
    derive_witness_params,
    select_weights,
)

# the names bound above, without the submodules their imports bind
__all__ = [
    name for name, value in dict(globals()).items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
