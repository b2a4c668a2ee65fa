"""The package's public names: what ``from hyperalg import *`` gives.

A name belongs here when a pipeline (``classify``, ``analyze``,
``witness``, ``witness-multi``, ``verify``) or a caller of the library needs
it; helpers that only tests use live in ``tests/reference.py``.  A change
to this list shows in review."""

import hyperalg

PUBLIC = [
    "CatalogSymbol",
    "ConfigError",
    "ConvexRay",
    "DerivativeConvergenceError",
    "DiskGrid",
    "EvaluationRangeError",
    "ExpPoly",
    "ExpPolySymbol",
    "ExponentSet",
    "HadamardTrunc",
    "HyperalgError",
    "HypothesisError",
    "IterationLimitError",
    "MultiParams",
    "NormalizationError",
    "PolyTimesExp",
    "RayScan",
    "SearchFailureError",
    "SymbolSpec",
    "TargetPlacementError",
    "ThetaEntry",
    "ThetaMarginError",
    "Verdict",
    "WitnessParams",
    "WitnessReport",
    "ZeroSetSummary",
    "check_T2",
    "check_Tma_conditions",
    "classify",
    "construct_witness_T2",
    "construct_witness_multi",
    "convex_direction",
    "default_multi_targets",
    "default_targets_T2",
    "derive_multi_params",
    "derive_witness_params",
    "derivs_at_zero",
    "dynamics",
    "errors",
    "eval_symbol",
    "eval_symbol_array",
    "eval_symbol_masked",
    "exppoly",
    "find_arith_progression",
    "find_convex_ray",
    "first_ray_below_one",
    "growth",
    "mul_exppoly",
    "multinomial_gamma",
    "ray_below_one",
    "scan_ray",
    "select_weights",
    "solve_coeff",
    "symbol_from_dict",
    "symbols",
    "to_json_value",
    "to_taylor",
    "verify_witness",
    "witness",
]


def test_public_names_are_pinned():
    assert sorted(hyperalg.__all__) == PUBLIC
