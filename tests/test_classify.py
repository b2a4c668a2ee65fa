"""Decision-tree classification and its supporting evidence gatherers."""

import dataclasses
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
    symbols,
    to_json_value,
)
from hyperalg.classify import Verdict
from hyperalg.cli import run
from hyperalg.errors import DerivativeConvergenceError, NormalizationError
from test_golden import CLASSIFY as GOLDEN_CLASSIFY
from test_golden import COS_ZEROS, DATA, assert_matches

# the package re-exports the function classify under the module's name
classify_module = importlib.import_module("hyperalg.classify")


def _paths_to(value, target, path=()):
    """The path of each entry of the JSON data ``value`` equal to ``target``."""
    if value == target:
        yield path
    elif isinstance(value, dict):
        for key, entry in value.items():
            yield from _paths_to(entry, target, (*path, key))
    elif isinstance(value, list):
        for i, entry in enumerate(value):
            yield from _paths_to(entry, target, (*path, i))


#: The classify fixtures whose verdicts rest on the curvature-progression route.
CURVATURE_FIXTURES = [
    name
    for name in sorted(GOLDEN_CLASSIFY)
    if '"route": "curvature-progression"'
    in (DATA / f"classify-{name}.json").read_text()
]


def _no_contour_or_point_evaluation(monkeypatch):
    """Makes phi at a single point and the contour derivatives at 0 raise,
    wherever classify could reach them."""

    def unused(*args):
        raise AssertionError("classify evaluated phi at 0 or on a contour")

    for module, name in [
        (classify_module, "eval_symbol"),
        (classify_module, "derivs_at_zero"),
        (symbols, "eval_symbol"),
        (symbols, "derivs_at_zero"),
        (symbols, "_converged_coeffs"),
    ]:
        monkeypatch.setattr(module, name, unused, raising=False)


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

    def test_a_modulus_on_a_radius_counts_inside(self):
        zeros = [1, 3 + 4j, -5, 5j, 6 - 8j, 10, 50.000000000000014, 100j, -100]
        counts = ZeroSetSummary.from_zeros([complex(z) for z in zeros]).counts
        assert counts == ((5.0, 4), (10.0, 6), (50.0, 6), (100.0, 9))

    def test_rejects_zero_at_origin(self):
        with pytest.raises(ValueError):
            ZeroSetSummary.from_zeros([0j, 1 + 0j])

    def test_serializes_to_json(self):
        summary = ZeroSetSummary.from_zeros([complex(n) for n in range(1, 10)])
        json.dumps(to_json_value(summary))


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

    def test_unnormalized_catalog_symbol_rejected(self):
        with pytest.raises(NormalizationError):
            check_T2(CatalogSymbol("exp-poly", a=1, poly=(0.5,)))

    def test_reads_the_modulus_at_zero_from_the_structure(self, monkeypatch):
        """phi(0), phi'(0) and phi''(0) come from the structure: with the
        point evaluator and the contour derivatives raising, every
        curvature-route verdict is still its fixture."""
        _no_contour_or_point_evaluation(monkeypatch)
        assert len(CURVATURE_FIXTURES) == 7
        for name in CURVATURE_FIXTURES:
            want = json.loads((DATA / f"classify-{name}.json").read_text())
            assert_matches(to_json_value(classify(GOLDEN_CLASSIFY[name])), want, name)

    def test_a_product_with_a_slope_needs_no_contour(self, monkeypatch):
        _no_contour_or_point_evaluation(monkeypatch)
        verdict = classify(HadamardTrunc(0.2 + 0.1j, 0j, COS_ZEROS, 0, 61))
        assert verdict.outcome == "HasAlgebra"
        assert verdict.route == "curvature-progression"
        margin = verdict.evidence["curvature-progression"]["second_deriv_margin"]
        assert margin == pytest.approx(0.9933547978504351, rel=1e-12)

    def test_returns_only_the_evidence_classify_records(self):
        result = check_T2(CatalogSymbol("cos"))
        assert set(result) == {"second_deriv_margin", "progressions", "passed"}
        verdict = classify(CatalogSymbol("cos"))
        assert verdict.evidence["curvature-progression"] == result

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
        # a polynomial by its structure: no growth estimate is involved
        assert verdict.confidence == "exact"

    def test_caller_supplied_zeros_feed_the_summable_route(self):
        zeros = [complex(n * n) for n in range(1, 200)]
        spec = HadamardTrunc(a=1, b=0, zeros=tuple(zeros), genus=0, truncation=60)
        verdict = classify(spec, zeros=zeros)
        assert verdict.outcome == "HasAlgebra"
        assert verdict.route == "zeros-summable"
        # the convergence of sum 1/|z_k| is read off a regression slope
        assert verdict.confidence == "numerical"


class TestLargeScale:
    """The curvature comes from the structure, so a scale at which the
    contour of ``derivs_at_zero`` does not converge still gets a verdict."""

    CASES = [
        ("cos", 60),
        ("sin+exp(-z)", 60),
        ("sinc-pi", 15),
        ("sinc-pi", 30),
        ("sinc-pi", 60),
    ]

    @pytest.mark.parametrize("name,scale", CASES)
    def test_classifies_where_the_contour_fails(self, name, scale):
        spec = CatalogSymbol(name, scale=scale)
        with pytest.raises(DerivativeConvergenceError):
            symbols.derivs_at_zero(spec, 2)
        verdict = classify(spec)
        assert verdict.outcome == "HasAlgebra"
        assert verdict.route == "curvature-progression"
        report = run({"command": "classify", "symbol": to_json_value(spec)})
        assert report["outcome"]["verdict"] == to_json_value(verdict)

    @pytest.mark.parametrize("name", ["cos", "sin+exp(-z)"])
    def test_a_tiny_scale_is_still_unknown(self, name):
        # the margin scale**2 falls below the absolute COEFF_MARGIN
        verdict = classify(CatalogSymbol(name, scale=1e-4))
        assert (verdict.outcome, verdict.route) == ("Unknown", "exhausted")


class TestVerdict:
    def test_serializes_complex_evidence(self):
        verdict = classify(CatalogSymbol("cos"))
        payload = json.dumps(to_json_value(verdict))
        assert "outcome" in payload

    def test_validation(self):
        with pytest.raises(ValueError):
            Verdict("Maybe", "route", {}, "exact")
        with pytest.raises(ValueError):
            Verdict("Unknown", "route", {}, "guessy")


class TestStructuralZeros:
    """Zero-free means an empty structural zero list, and the zero-set routes
    read the zeros the symbol multiplies."""

    SQUARES = tuple(complex(n * n) for n in range(1, 100))

    @pytest.mark.parametrize(
        "spec",
        [
            # e^z: the product multiplies none of its zeros
            HadamardTrunc(a=1, b=0, zeros=SQUARES, genus=0, truncation=0),
            # -e^z, the rotation of CatalogSymbol("exp")
            CatalogSymbol("exp-poly", a=1, poly=(-1,)),
            # the constant 1, so Phi(D) is the identity
            CatalogSymbol("exp", a=0),
            PolyTimesExp(poly=(1,), a=0),
            ExpPolySymbol(ExpPoly.one()),
            HadamardTrunc(a=0, b=0, zeros=(1,), genus=0, truncation=0),
        ],
        ids=[
            "truncation-0-product",
            "rotated-exp-poly",
            "constant-exp",
            "constant-poly-times-exp",
            "constant-exppoly",
            "constant-product",
        ],
    )
    def test_zero_free_symbols(self, spec):
        verdict = classify(spec)
        assert (verdict.outcome, verdict.route, verdict.confidence) == (
            "NoAlgebra",
            "zero-free",
            "exact",
        )

    def test_truncated_product_summarizes_the_zeros_it_multiplies(self):
        spec = HadamardTrunc(a=1, b=0, zeros=self.SQUARES, genus=0, truncation=30)
        verdict = classify(spec)
        assert verdict.route == "zeros-summable"
        assert verdict.evidence["zeros"]["truncation"] == spec.truncation

    def test_caller_zeros_are_checked_even_when_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            classify(CatalogSymbol("cos"), zeros=[])

    @pytest.mark.parametrize(
        "spec",
        [
            CatalogSymbol("cos"),
            CatalogSymbol("exp-poly", a=1, poly=(1, 1j)),
            HadamardTrunc(a=1, b=0, zeros=SQUARES, genus=0, truncation=40),
        ],
        ids=["cos", "exp-poly", "product"],
    )
    def test_structure_is_read_once(self, spec, monkeypatch):
        calls = []
        read = classify_module._structure

        def counting(s):
            calls.append(s)
            return read(s)

        monkeypatch.setattr(classify_module, "_structure", counting)
        classify(spec)
        assert len(calls) == 1


class TestGrowthFromStructure:
    """The growth gate reads the structure of each symbol kind; no regression
    and no evaluation decides it."""

    ROUTES = {
        "subexponential": (PolyTimesExp(poly=(1, -1, 0, 1), a=0), "HasAlgebra", "exact"),
        "growth-beyond-scope": (CatalogSymbol("exp-quadratic"), "Unknown", "exact"),
        "normalization": (CatalogSymbol("exp-poly", a=1, poly=(2,)), "Unknown", "exact"),
        "zero-free": (CatalogSymbol("exp", a=1), "NoAlgebra", "exact"),
        "poly-times-exp": (
            CatalogSymbol("exp-poly", a=1, poly=(1, 1j)), "HasAlgebra", "exact"
        ),
        "zeros-summable": (
            HadamardTrunc(a=1, b=0, zeros=TestStructuralZeros.SQUARES, genus=0, truncation=30),
            "HasAlgebra",
            "numerical",
        ),
        "zeros-divergent-nonzero-slope": (
            HadamardTrunc(
                a=1,
                b=0,
                zeros=tuple(complex(math.sqrt(n)) for n in range(1, 101)),
                genus=1,
                truncation=100,
            ),
            "HasAlgebra",
            "numerical",
        ),
        "curvature-progression": (CatalogSymbol("cos"), "HasAlgebra", "numerical"),
        "ray-growth-gap": (
            PolyTimesExp(poly=(1, 0.5, 0.125, 0.01), a=-1), "HasAlgebra", "numerical"
        ),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_each_route(self, route):
        spec, outcome, confidence = self.ROUTES[route]
        verdict = classify(spec)
        assert (verdict.outcome, verdict.route, verdict.confidence) == (
            outcome,
            route,
            confidence,
        )
        structure = classify_module._structure(spec)
        if isinstance(spec, HadamardTrunc):
            # the record leaves out the zeros the symbol lists; the zero-set
            # summary still reads them
            record = classify_module.growth_record(spec, structure)
            assert verdict.evidence["growth"] == record
            assert record == dataclasses.replace(structure, zeros=None)
            used = spec.zeros[: spec.truncation]
            summary = to_json_value(ZeroSetSummary.from_zeros(used))
            assert verdict.evidence["zeros"] == summary
        else:
            assert verdict.evidence["growth"] == structure

    def test_product_of_no_zero_writes_an_empty_list(self):
        spec = HadamardTrunc(
            a=1, b=0, zeros=TestStructuralZeros.SQUARES, genus=0, truncation=0
        )
        verdict = classify(spec)
        assert (verdict.route, verdict.confidence) == ("zero-free", "exact")
        assert to_json_value(verdict)["evidence"]["growth"]["zeros"] == []

    #: The CI smoke's product over +-1..+-26 truncated at 51 zeros, and a
    #: product of type 1 over 60 zeros of cos.
    PRODUCTS = {
        "pm26-truncation51": HadamardTrunc(
            0j, 0j, tuple(s * k for k in range(1, 27) for s in (1, -1)), 0, 51
        ),
        "cos60-a-i": HadamardTrunc(
            1j, 0j, tuple((k + 0.5) * math.pi * s for k in range(30) for s in (1, -1)),
            0, 60,
        ),
    }

    @pytest.mark.parametrize("name", sorted(PRODUCTS))
    def test_report_lists_product_zeros_once(self, name):
        spec = self.PRODUCTS[name]
        symbol = to_json_value(spec)
        reports = {
            command: run({"command": command, "symbol": symbol})
            for command in ("classify", "analyze")
        }
        growth = reports["classify"]["outcome"]["verdict"]["evidence"]["growth"]
        assert growth["zeros"] is None
        assert reports["analyze"]["outcome"]["growth"] == growth
        for report in reports.values():
            for i, z in enumerate(spec.zeros):
                paths = list(_paths_to(report, [z.real, z.imag]))
                assert paths == [("config", "symbol", "zeros", i)]

    def test_product_without_exponent_is_not_evaluated(self, monkeypatch):
        calls = []

        def counting(spec, zs, guard):
            calls.append(zs)
            return evaluate(spec, zs, guard)

        evaluate = symbols._evaluate
        monkeypatch.setattr(symbols, "_evaluate", counting)
        cos_zeros = tuple((k + 0.5) * math.pi * s for k in range(30) for s in (1, -1))
        verdict = classify(HadamardTrunc(a=0, b=0, zeros=cos_zeros, genus=0, truncation=51))
        assert (verdict.route, verdict.confidence) == ("subexponential", "exact")
        assert verdict.evidence["growth"].degree == 51
        assert calls == []

    #: Order and type of each catalog entry below at scale 1.
    CATALOG_GROWTH = {
        "cos": (1, 1.0),
        "sinc-pi": (1, math.pi),
        "sin+exp(-z)": (1, 1.0),
        "exp": (1, 1.0),
        "exp-poly": (1, 1.0),
        "exp-quadratic": (2, 1.0),
    }

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "spec",
        [
            CatalogSymbol("cos"),
            CatalogSymbol("sinc-pi"),
            CatalogSymbol("sin+exp(-z)"),
            CatalogSymbol("exp", a=1),
            CatalogSymbol("exp-poly", a=1, poly=(1, 1j)),
            CatalogSymbol("exp-quadratic"),
        ],
        ids=lambda spec: spec.name,
    )
    def test_analyze_reports_the_structure(self, spec, scale):
        # the record classify writes as evidence.growth, with the catalog's
        # exact order and type: type t at scale 1 is t |s|**order at scale s
        order, type_ = self.CATALOG_GROWTH[spec.name]
        spec = dataclasses.replace(spec, scale=scale)
        report = run({"command": "analyze", "symbol": to_json_value(spec)})
        reported = report["outcome"]["growth"]
        assert reported == to_json_value(classify_module._structure(spec))
        assert (reported["order"], reported["type"]) == (order, type_ * scale**order)
