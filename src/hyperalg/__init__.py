"""Convolution-operator dynamics on entire functions.

Exact arithmetic of exponential polynomials, growth diagnostics of symbols,
classification for the existence of hypercyclic algebras, and explicit
witness construction with auditable contraction tables.
"""

__version__ = "0.1.0"

from .classify import (
    Verdict,
    ZeroSetSummary,
    check_T2,
    classify,
)
from .dynamics import (
    OrbitTrace,
    apply_symbol,
    apply_symbol_power,
    apply_symbol_taylor,
    sup_distance,
    verify_witness,
)
from .errors import (
    ConfigError,
    DerivativeConvergenceError,
    EvaluationRangeError,
    HyperalgError,
    HypothesisError,
    IterationLimitError,
    NormalizationError,
    OracleInputError,
    SearchFailureError,
    TargetPlacementError,
    ThetaMarginError,
)
from .exppoly import DiskGrid, ExpPoly, TaylorPoly, mul_exppoly, pow_exppoly
from .growth import (
    ConvexRay,
    GrowthEstimate,
    RayScan,
    check_Tma_conditions,
    convex_direction,
    estimate_order_type,
    find_arith_progression,
    find_convex_ray,
    first_ray_below_one,
    indicator,
    max_modulus,
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
    symbol_to_dict,
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
    multinomial_gamma,
    select_weights,
    solve_coeff,
)

__all__ = [name for name in dir() if not name.startswith("_")]
