"""Symbol evaluation, contour derivatives and serialization."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalg import (
    CatalogSymbol,
    ExpPolySymbol,
    ExpPoly,
    HadamardTrunc,
    PolyTimesExp,
    derivs_at_zero,
    eval_symbol,
    eval_symbol_array,
    symbol_from_dict,
    symbol_to_dict,
    to_taylor,
)
from hyperalg.errors import EvaluationRangeError
from hyperalg.symbols import _sinc_pi, catalog_zeros, eval_symbol_masked


class TestEvaluation:
    def test_cos_against_cmath(self):
        spec = CatalogSymbol("cos")
        for z in (0, 1.0, 0.5 + 0.5j, -2j):
            assert eval_symbol(spec, z) == pytest.approx(cmath.cos(z), rel=1e-14)

    def test_sin_plus_exp(self):
        spec = CatalogSymbol("sin+exp(-z)")
        z = 0.7 - 0.3j
        assert eval_symbol(spec, z) == pytest.approx(
            cmath.sin(z) + cmath.exp(-z), rel=1e-14
        )

    def test_sinc_at_zero_is_one(self):
        spec = CatalogSymbol("sinc-pi")
        assert eval_symbol(spec, 0) == pytest.approx(1.0)

    def test_sinc_smooth_through_small_arguments(self):
        spec = CatalogSymbol("sinc-pi")
        # the series branch and the sin(x)/x branch must agree at the seam
        zs = np.array([1e-6, 1e-5, 2e-5, 1e-4])
        vals = eval_symbol_array(spec, zs)
        expected = np.sin(np.pi * zs) / (np.pi * zs)
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_sinc_matches_the_two_branch_expression(self):
        def two_branch(w):
            w = np.asarray(w, dtype=complex)
            small = np.abs(w) < 1e-5
            x = np.pi * w
            with np.errstate(invalid="ignore", divide="ignore"):
                return np.where(
                    small, 1 - x * x / 6 + x**4 / 120, np.sin(x) / np.where(small, 1, x)
                )

        radii = np.concatenate(
            [[0.0, 1e-5, np.nextafter(1e-5, 0), np.nextafter(1e-5, 1)],
             np.geomspace(1e-9, 3.0, 40)]
        )
        w = np.multiply.outer(radii, np.exp(1j * np.linspace(0.0, 3.0, 5)))
        assert 0 < np.count_nonzero(np.abs(w) < 1e-5) < w.size
        for got in (_sinc_pi(w), eval_symbol_array(CatalogSymbol("sinc-pi"), w)):
            assert [(v.real.hex(), v.imag.hex()) for v in got.ravel()] == [
                (v.real.hex(), v.imag.hex()) for v in two_branch(w).ravel()
            ]
        assert complex(_sinc_pi(0.0)) == 1.0

    def test_exp_quadratic(self):
        spec = CatalogSymbol("exp-quadratic")
        z = 1.2 + 0.4j
        assert eval_symbol(spec, z) == pytest.approx(cmath.exp(z * z), rel=1e-14)

    def test_catalog_rescaling_composes(self):
        spec = CatalogSymbol("cos", scale=2j)
        assert eval_symbol(spec, 0.5) == pytest.approx(cmath.cos(1j), rel=1e-14)

    def test_poly_times_exp(self):
        spec = PolyTimesExp(poly=(1, 1j), a=1)
        z = 0.3 + 0.1j
        assert eval_symbol(spec, z) == pytest.approx(
            cmath.exp(z) * (1 + 1j * z), rel=1e-14
        )

    def test_exppoly_symbol_delegates(self):
        f = ExpPoly.of([(0.5, 1.0), (0.5, -1.0)])  # cosh
        spec = ExpPolySymbol(f)
        assert eval_symbol(spec, 0.4) == pytest.approx(math.cosh(0.4), rel=1e-14)

    def test_overflow_guard(self):
        with pytest.raises(EvaluationRangeError):
            eval_symbol(CatalogSymbol("exp", a=1), 1000.0)


#: Every kind of symbol, each with points past the overflow guard below.
MASK_PANEL = {
    "cos": CatalogSymbol("cos"),
    "sin+exp": CatalogSymbol("sin+exp(-z)"),
    "sinc-pi": CatalogSymbol("sinc-pi"),
    "exp": CatalogSymbol("exp", a=1),
    "exp-poly": CatalogSymbol("exp-poly", a=1, poly=(1, 1)),
    "exp-quadratic": CatalogSymbol("exp-quadratic"),
    "exppoly": ExpPolySymbol(ExpPoly.of([(0.6, 0.8j), (0.4, -3.0)])),
    "poly-times-exp": PolyTimesExp(poly=(1, 0.5), a=2),
    "hadamard-genus1": HadamardTrunc(0.2, 0j, (0.5, -0.5, 2j), 1, 3),
}

#: Radii from 0 to past the guard, in eight directions.
MASK_POINTS = np.multiply.outer(
    [0.0, 1.0, 30.0, 200.0, 400.0, 701.0, 1000.0],
    np.exp(2j * np.pi * np.arange(8) / 8),
)


def complex_bits(v) -> tuple[str, str]:
    v = complex(v)
    return v.real.hex(), v.imag.hex()


class TestMaskedEvaluation:
    """:func:`eval_symbol_masked` against :func:`eval_symbol` point by point."""

    @pytest.mark.parametrize("name", sorted(MASK_PANEL))
    def test_mask_and_values_match_the_point_loop(self, name):
        spec = MASK_PANEL[name]
        values, in_range = eval_symbol_masked(spec, MASK_POINTS)
        assert values.shape == in_range.shape == MASK_POINTS.shape
        assert not in_range.all()
        for z, value, ok in zip(MASK_POINTS.ravel(), values.ravel(), in_range.ravel()):
            try:
                want = eval_symbol(spec, z)
            except EvaluationRangeError:
                assert not ok and cmath.isnan(value)
                continue
            assert ok and complex_bits(value) == complex_bits(want)

    @pytest.mark.parametrize("name", sorted(MASK_PANEL))
    def test_in_range_block_is_the_raising_evaluation(self, name):
        spec = MASK_PANEL[name]
        zs = MASK_POINTS[:2]
        values, in_range = eval_symbol_masked(spec, zs)
        assert in_range.all()
        assert [complex_bits(v) for v in values.ravel()] == [
            complex_bits(v) for v in eval_symbol_array(spec, zs).ravel()
        ]


class TestValidation:
    def test_poly_times_exp_needs_unit_constant_term(self):
        with pytest.raises(ValueError):
            PolyTimesExp(poly=(2, 1), a=1)

    def test_poly_times_exp_constant_must_be_unimodular(self):
        with pytest.raises(ValueError):
            PolyTimesExp(poly=(1,), a=1, b=0.5)
        PolyTimesExp(poly=(1,), a=1, b=0.5j)  # imaginary part is fine

    def test_hadamard_rejects_zero_at_origin(self):
        with pytest.raises(ValueError):
            HadamardTrunc(a=0, b=0, zeros=(0j,), genus=0, truncation=1)

    def test_hadamard_rejects_bad_genus(self):
        with pytest.raises(ValueError):
            HadamardTrunc(a=0, b=0, zeros=(1 + 0j,), genus=2, truncation=1)

    def test_unknown_catalog_name(self):
        with pytest.raises(ValueError):
            CatalogSymbol("tan")


class TestHadamard:
    @staticmethod
    def symmetric_integers(count):
        zeros = []
        for n in range(1, count + 1):
            zeros.extend([complex(n), complex(-n)])
        return tuple(zeros)

    def test_product_over_integers_approaches_sinc(self):
        # genus-1 product over +/-1..+/-M at z = 1/2 tends to sin(pi/2)/(pi/2)
        zeros = self.symmetric_integers(400)
        spec = HadamardTrunc(a=0, b=0, zeros=zeros, genus=1, truncation=len(zeros))
        assert eval_symbol(spec, 0.5) == pytest.approx(2 / math.pi, rel=1e-2)

    def test_doubling_truncation_is_cauchy(self):
        zeros = self.symmetric_integers(256)
        z = 0.5 + 0.25j
        vals = []
        for m in (32, 64, 128, 256):
            spec = HadamardTrunc(
                a=0, b=0, zeros=zeros, genus=1, truncation=2 * m
            )
            vals.append(eval_symbol(spec, z))
        gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert gaps == sorted(gaps, reverse=True)


class TestDerivatives:
    def test_cos_first_three(self):
        derivs, errs = derivs_at_zero(CatalogSymbol("cos"), 2)
        assert derivs[0] == pytest.approx(1, abs=1e-10)
        assert derivs[1] == pytest.approx(0, abs=1e-10)
        assert derivs[2] == pytest.approx(-1, abs=1e-10)
        assert max(errs) < 1e-8

    def test_sinc_second_derivative(self):
        derivs, _ = derivs_at_zero(CatalogSymbol("sinc-pi"), 2)
        assert derivs[2] == pytest.approx(-math.pi**2 / 3, abs=1e-8)

    def test_exp_derivatives_are_all_one(self):
        derivs, _ = derivs_at_zero(CatalogSymbol("exp", a=1), 6)
        for d in derivs:
            assert d == pytest.approx(1, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(
                    min_magnitude=0.1, max_magnitude=2.0,
                    allow_nan=False, allow_infinity=False,
                ),
                st.complex_numbers(
                    max_magnitude=1.5, allow_nan=False, allow_infinity=False
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(deadline=None, max_examples=40)
    def test_exppoly_derivatives_match_closed_form(self, terms):
        f = ExpPoly.of(terms)
        spec = ExpPolySymbol(f)
        derivs, _ = derivs_at_zero(spec, 4)
        for n in range(5):
            exact = sum(c * freq**n for c, freq in f.terms)
            assert derivs[n] == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_to_taylor_reproduces_series(self):
        t = to_taylor(CatalogSymbol("exp", a=1), 20)
        for n, c in enumerate(t.coeffs):
            assert c == pytest.approx(1 / math.factorial(n), rel=1e-9, abs=1e-12)


class TestSerialization:
    @pytest.mark.parametrize(
        "spec",
        [
            CatalogSymbol("cos", scale=2.0),
            CatalogSymbol("exp-poly", a=1, poly=(1, 1j)),
            ExpPolySymbol(ExpPoly.of([(1.0, 1j), (2.0, -1j)])),
            PolyTimesExp(poly=(1, 1, 1), a=1, b=0.25j),
            HadamardTrunc(a=1, b=0, zeros=(1 + 0j, -2j), genus=1, truncation=2),
        ],
    )
    def test_round_trip(self, spec):
        assert symbol_from_dict(symbol_to_dict(spec)) == spec

    def test_null_optional_fields_use_defaults(self):
        spec = symbol_from_dict(
            {"kind": "catalog", "name": "cos", "poly": None, "scale": None}
        )
        assert spec == CatalogSymbol("cos")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            symbol_from_dict({"kind": "mystery"})


class TestCatalogZeros:
    def test_cos_zeros(self):
        zeros = catalog_zeros(CatalogSymbol("cos"), 6)
        assert set(zeros) == {
            math.pi / 2, -math.pi / 2, 3 * math.pi / 2,
            -3 * math.pi / 2, 5 * math.pi / 2, -5 * math.pi / 2,
        }
        for z in zeros:
            assert abs(eval_symbol(CatalogSymbol("cos"), z)) < 1e-12

    def test_sinc_zeros_are_nonzero_integers(self):
        zeros = catalog_zeros(CatalogSymbol("sinc-pi"), 4)
        assert set(zeros) == {1, -1, 2, -2}

    def test_zero_free_entries(self):
        assert catalog_zeros(CatalogSymbol("exp", a=1), 4) == ()
        assert catalog_zeros(CatalogSymbol("exp-quadratic"), 4) == ()
