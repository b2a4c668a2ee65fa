"""Decision-tree classification and its supporting evidence gatherers."""

import importlib
import json
import math

import pytest

from hyperalg import (
    CatalogSymbol,
    ExpPoly,
    ExpPolySymbol,
    HadamardTrunc,
    PolyTimesExp,
    ZeroSetSummary,
    check_T2,
    classify,
    find_arith_progression,
)
from hyperalg.classify import Verdict
from hyperalg.errors import NormalizationError

# the package re-exports the function classify under the module's name
classify_module = importlib.import_module("hyperalg.classify")


class TestZeroSetSummary:
    def test_partial_sums_over_squares(self):
        zeros = [complex(n * n) for n in range(1, 50)]
        summary = ZeroSetSummary.from_zeros(zeros)
        assert summary.s1 == pytest.approx(sum(1 / (n * n) for n in range(1, 50)))
        assert summary.s2 == pytest.approx(sum(n ** -4 for n in range(1, 50)))
        assert summary.modulus_slope == pytest.approx(2.0, abs=0.05)
        assert summary.inv_modulus_converges is True
        assert summary.genus_guess == 0

    def test_linear_zero_growth_is_ambiguous(self):
        zeros = [complex(n) for n in range(1, 100)]
        summary = ZeroSetSummary.from_zeros(zeros)
        assert summary.inv_modulus_converges is None
        assert summary.genus_guess == 1

    def test_sublinear_growth_diverges(self):
        zeros = [complex(math.sqrt(n)) for n in range(1, 200)]
        summary = ZeroSetSummary.from_zeros(zeros)
        assert summary.inv_modulus_converges is False

    def test_counts_are_monotone(self):
        zeros = [complex(n) for n in range(1, 120)]
        counts = ZeroSetSummary.from_zeros(zeros).counts
        values = [c for _, c in counts]
        assert values == sorted(values)
        assert dict(counts)[5.0] == 5

    def test_rejects_zero_at_origin(self):
        with pytest.raises(ValueError):
            ZeroSetSummary.from_zeros([0j, 1 + 0j])

    def test_serializes_to_json(self):
        summary = ZeroSetSummary.from_zeros([complex(n) for n in range(1, 10)])
        json.dumps(summary.to_dict())


class TestCheckT2:
    def test_cos_passes_with_unit_margin(self):
        result = check_T2(CatalogSymbol("cos"))
        assert result["passed"]
        assert result["second_deriv_margin"] == pytest.approx(1.0, abs=1e-8)
        assert all(a is not None for a in result["progressions"].values())

    def test_one_progression_sweep_serves_every_length(self, monkeypatch):
        calls = []

        def counting(spec, m, *args, **kwargs):
            calls.append(m)
            return find_arith_progression(spec, m, *args, **kwargs)

        monkeypatch.setattr(classify_module, "find_arith_progression", counting)
        result = check_T2(CatalogSymbol("sin+exp(-z)"))
        assert calls == [6]
        assert sorted(result["progressions"]) == [2, 3, 4, 5, 6]

    def test_unnormalized_symbol_rejected(self):
        with pytest.raises(NormalizationError):
            check_T2(ExpPolySymbol(ExpPoly.of([(2.0, 1.0)])))

    def test_pure_exponential_has_no_curvature(self):
        result = check_T2(CatalogSymbol("exp", a=1))
        assert result["second_deriv_margin"] < 1e-9
        assert not result["passed"]


class TestClassifyCatalog:
    CASES = [
        (CatalogSymbol("cos"), "HasAlgebra"),
        (CatalogSymbol("sin+exp(-z)"), "HasAlgebra"),
        (CatalogSymbol("sinc-pi"), "HasAlgebra"),
        (CatalogSymbol("exp", a=1), "NoAlgebra"),
        (CatalogSymbol("exp-poly", a=1, poly=(1, 1j)), "HasAlgebra"),
        (CatalogSymbol("exp-quadratic"), "Unknown"),
    ]

    @pytest.mark.parametrize("spec,expected", CASES, ids=[c[0].name for c in CASES])
    def test_catalog_verdicts(self, spec, expected):
        assert classify(spec).outcome == expected

    def test_scaled_exponential_still_no_algebra(self):
        verdict = classify(CatalogSymbol("exp", a=2))
        assert verdict.outcome == "NoAlgebra"
        assert verdict.confidence == "exact"

    def test_no_algebra_requires_zero_free_structure(self):
        # every NoAlgebra in the catalog comes from the zero-free route
        for spec, expected in self.CASES:
            verdict = classify(spec)
            if verdict.outcome == "NoAlgebra":
                assert verdict.route == "zero-free"

    def test_outcome_invariant_under_rescaling_structural_routes(self):
        for spec, scaled_spec in (
            (CatalogSymbol("exp", a=1), CatalogSymbol("exp", a=1, scale=0.5)),
            (
                CatalogSymbol("exp-poly", a=1, poly=(1, 1j)),
                CatalogSymbol("exp-poly", a=1, poly=(1, 1j), scale=0.5),
            ),
        ):
            base = classify(spec)
            scaled = classify(scaled_spec)
            assert scaled.outcome == base.outcome
            assert scaled.route == base.route

    def test_subexponential_route(self):
        spec = PolyTimesExp(poly=(1, -1, 0, 1), a=0)
        verdict = classify(spec)
        assert verdict.outcome == "HasAlgebra"
        assert verdict.route == "subexponential"
        assert verdict.confidence == "numerical"

    def test_caller_supplied_zeros_feed_the_summable_route(self):
        zeros = [complex(n * n) for n in range(1, 200)]
        spec = HadamardTrunc(a=1, b=0, zeros=tuple(zeros), genus=0, truncation=60)
        verdict = classify(spec, zeros=zeros)
        assert verdict.outcome == "HasAlgebra"
        assert verdict.route == "zeros-summable"
        # the convergence of sum 1/|z_k| is read off a regression slope
        assert verdict.confidence == "numerical"


class TestVerdict:
    def test_serializes_complex_evidence(self):
        verdict = classify(CatalogSymbol("cos"))
        payload = json.dumps(verdict.to_dict())
        assert "outcome" in payload

    def test_validation(self):
        with pytest.raises(ValueError):
            Verdict("Maybe", "route", {}, "exact")
        with pytest.raises(ValueError):
            Verdict("Unknown", "route", {}, "guessy")
