"""The package's public names: what ``from hyperalg import *`` gives; and
the boundary between the witness builder and its verifier.

A name belongs here when a pipeline (``classify``, ``analyze``,
``witness``, ``witness-multi``, ``verify``) or a caller of the library needs
it; helpers that only tests use live in ``tests/reference.py``.  A change
to this list shows in review."""

import types

import hyperalg
from hyperalg import dynamics, expansion, witness

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
    "eval_symbol",
    "eval_symbol_array",
    "eval_symbol_masked",
    "find_arith_progression",
    "find_convex_ray",
    "first_ray_below_one",
    "mul_exppoly",
    "multinomial_gamma",
    "ray_below_one",
    "scan_ray",
    "select_weights",
    "solve_coeff",
    "symbol_from_dict",
    "to_json_value",
    "to_taylor",
    "verify_witness",
]


def test_public_names_are_pinned():
    assert sorted(hyperalg.__all__) == PUBLIC


def origins(module) -> set:
    """The modules the names bound in ``module`` come from: a module by its
    name, anything else by its ``__module__``."""
    return {
        value.__name__ if isinstance(value, types.ModuleType)
        else getattr(value, "__module__", None)
        for value in vars(module).values()
    }


def test_builder_and_verifier_share_no_module():
    # the verifier re-checks the builder's claim, so neither may lean on the
    # other's code
    for builder in (witness, expansion):
        assert "hyperalg.dynamics" not in origins(builder)
    assert not {"hyperalg.witness", "hyperalg.expansion"} & origins(dynamics)
