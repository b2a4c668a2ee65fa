"""Symbol evaluation, contour derivatives and serialization."""

import cmath
import dataclasses
import json
import math
import warnings
from pathlib import Path

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
    to_json_value,
    to_taylor,
)
from hyperalg import symbols
from hyperalg.errors import DerivativeConvergenceError, EvaluationRangeError
from hyperalg.classify import _structure, classify
from hyperalg.cli import catalog_list
from hyperalg.growth import PROGRESSION_DIRECTIONS, PROGRESSION_STEPS
from hyperalg.symbols import (
    _converged_coeffs,
    _sinc_pi,
    complexes_from_json,
    eval_symbol_masked,
)
from hyperalg.witness import WitnessReport
from reference import catalog_zeros, converged_coeffs, hadamard_trunc
from reference import to_json_value as reference_to_json_value
from reference import to_taylor as reference_to_taylor

DATA = Path(__file__).parent / "data"


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

    def test_sinc_at_a_subnormal_point(self):
        # sin(x) / x overflows there; the series gives the value
        w = np.array([2.225073858507e-311, 5e-324j])
        assert eval_symbol_array(CatalogSymbol("sinc-pi"), w).tolist() == [1, 1]

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
    "hadamard-genus0": HadamardTrunc(2.0, 0j, (0.5, 2j, -0.5, 3 + 1j, -2j), 0, 5),
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

    def test_nan_point_is_out_of_range(self):
        spec = CatalogSymbol("exp", a=1)
        for zs in ([np.nan, 1000.0], [np.nan, 1.0]):
            with pytest.raises(EvaluationRangeError):
                eval_symbol_array(spec, zs)
        _, in_range = eval_symbol_masked(spec, [np.nan, 1.0, 1000.0])
        assert in_range.tolist() == [False, True, False]

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


#: The benchmark's zero lists: the first 202 zeros of cos and of sinc-pi.
BENCHMARK_ZEROS = {
    name: catalog_zeros(name, 202) for name in ("cos", "sinc-pi")
}

#: Genus-0 products that pair their zeros in each way the factor table can.
PAIRING_PANEL = {
    "even": HadamardTrunc(0.3, 0j, BENCHMARK_ZEROS["cos"], 0, 60),
    "odd": HadamardTrunc(0.3, 0j, BENCHMARK_ZEROS["cos"], 0, 59),
    "duplicated": HadamardTrunc(0j, 0j, (1.5, 1.5, -1.5), 0, 3),
    "imaginary-pair": HadamardTrunc(0j, 0j, (2.5j, -2.5j), 0, 2),
    "non-adjacent": HadamardTrunc(0j, 0j, (1, 2j, 3, -1, 4, -2j, -3), 0, 7),
}

#: 256 equispaced points of the unit circle.
RING = np.exp(1j * (2 * np.pi * np.arange(256) / 256))

#: 256 points on each of 16 circles of radii 1 to 60 in geometric steps,
#: and the progression rows ``j * t * ray`` (j = 1..6) of every 32nd step.
KERNEL_POINTS = {
    "circles": np.multiply.outer(np.geomspace(1.0, 60.0, 16), RING),
    "rows": np.multiply.outer(
        np.multiply.outer(np.arange(1, 7), PROGRESSION_STEPS[31::32]),
        np.exp(2j * np.pi * np.arange(PROGRESSION_DIRECTIONS) / PROGRESSION_DIRECTIONS),
    ),
}


class TestProductKernel:
    """The factor table of a truncated product: one row per pair (z, -z)."""

    @pytest.mark.parametrize(
        "name, inv_squares, lone",
        [
            ("duplicated", [1 / 2.25], [1.5]),
            ("imaginary-pair", [-1 / 6.25], []),
            ("non-adjacent", [1, -1 / 4, 1 / 9], [4]),
        ],
    )
    def test_pairs_and_lone_zeros(self, name, inv_squares, lone):
        got_inv_squares, got_lone = PAIRING_PANEL[name]._factors
        assert got_inv_squares.tolist() == pytest.approx(inv_squares, rel=1e-15)
        assert got_lone.tolist() == lone

    def test_odd_truncation_leaves_one_zero(self):
        inv_squares, lone = PAIRING_PANEL["odd"]._factors
        assert inv_squares.size == 29
        assert lone.tolist() == [BENCHMARK_ZEROS["cos"][58]]

    @pytest.mark.parametrize("size", [1, 3, 8, 256, 361])
    @pytest.mark.parametrize("name", sorted(PAIRING_PANEL))
    def test_batch_is_each_point_alone(self, name, size):
        spec = PAIRING_PANEL[name]
        rng = np.random.default_rng(size)
        zs = 3 * (rng.normal(size=size) + 1j * rng.normal(size=size))
        batch = eval_symbol_array(spec, zs)
        assert [complex_bits(v) for v in batch] == [
            complex_bits(eval_symbol(spec, z)) for z in zs
        ]

    @pytest.mark.parametrize("points", sorted(KERNEL_POINTS))
    @pytest.mark.parametrize("truncation", [50, 51, 126, 199])
    @pytest.mark.parametrize("name", sorted(BENCHMARK_ZEROS))
    def test_agrees_with_the_division_kernel(self, name, truncation, points):
        # relative to the largest modulus on each circle or row: at a point
        # next to a zero, both kernels lose the same leading bits to 1 - x
        spec = HadamardTrunc(0j, 0j, BENCHMARK_ZEROS[name], 0, truncation)
        for zs in KERNEL_POINTS[points]:
            want = hadamard_trunc(spec, zs)
            error = np.abs(eval_symbol_array(spec, zs) - want).max(axis=-1)
            assert np.all(error <= 1e-13 * np.abs(want).max(axis=-1))

    @pytest.mark.parametrize(
        "spec",
        [
            HadamardTrunc(0.2, 0j, BENCHMARK_ZEROS["cos"], 1, 51),
            HadamardTrunc(0j, 0j, tuple(complex(k) for k in range(1, 60)), 0, 59),
        ],
        ids=["genus1", "one-sided"],
    )
    def test_unpaired_zeros_keep_the_division_kernel(self, spec):
        inv_squares, lone = spec._factors
        assert inv_squares.size == 0 and lone.size == spec.truncation
        zs = KERNEL_POINTS["circles"]
        assert [complex_bits(v) for v in eval_symbol_array(spec, zs).ravel()] == [
            complex_bits(v) for v in hadamard_trunc(spec, zs).ravel()
        ]

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_zeros_whose_inverse_square_is_not_finite_or_zero_stay_unpaired(
        self, scale
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = HadamardTrunc(0j, 0j, (scale, -scale), 0, 2)
            inv_squares, lone = spec._factors
        assert inv_squares.size == 0 and lone.tolist() == [scale, -scale]
        zs = scale * np.multiply.outer([0.5, 2.0, 3.0], RING)
        assert [complex_bits(v) for v in eval_symbol_array(spec, zs).ravel()] == [
            complex_bits(v) for v in hadamard_trunc(spec, zs).ravel()
        ]


def left_fold(spec, zs) -> np.ndarray:
    """phi of a truncated product with its factor rows ``1 - x**2 / z**2``
    multiplied as a Python-level left fold, in row order, at every point."""
    zs = np.asarray(zs, dtype=complex)
    inv_squares, lone = spec._factors
    out = np.exp(spec.a * zs + spec.b)
    squares = zs * zs
    if inv_squares.size:
        product = 1 - inv_squares[0] * squares
        for inv_square in inv_squares[1:]:
            product = product * (1 - inv_square * squares)
        out = out * product
    if lone.size:
        out = out * np.prod(1 - zs[..., None] / lone, axis=-1)
    return out


#: Every paired genus-0 product of the tests: the pairing panel and the
#: benchmark's zero lists at four truncations.
FOLD_PANEL = {
    **PAIRING_PANEL,
    **{
        f"{name}-{truncation}": HadamardTrunc(
            0j, 0j, BENCHMARK_ZEROS[name], 0, truncation
        )
        for name in sorted(BENCHMARK_ZEROS)
        for truncation in (50, 51, 126, 199)
    },
}

#: Each input shape the kernel sees: single points (as ``eval_symbol``
#: passes them), one circle and one progression row, and a block of
#: circles, (circles, 256), as a 2-d point set.
FOLD_POINTS = {
    "one-point": [z[None] for z in KERNEL_POINTS["circles"][:, ::16].ravel()],
    "1-d": [KERNEL_POINTS["circles"][-1], KERNEL_POINTS["rows"][2, 5]],
    "2-d": [KERNEL_POINTS["circles"], KERNEL_POINTS["circles"][7:8]],
}


class TestProductFoldOrder:
    @pytest.mark.parametrize("points", sorted(FOLD_POINTS))
    @pytest.mark.parametrize("name", sorted(FOLD_PANEL))
    def test_rows_multiply_as_a_left_fold(self, name, points):
        spec = FOLD_PANEL[name]
        for zs in FOLD_POINTS[points]:
            assert [complex_bits(v) for v in eval_symbol_array(spec, zs).ravel()] == [
                complex_bits(v) for v in left_fold(spec, zs).ravel()
            ]


#: Zeros +-1e-3 k (k = 1..199): their product leaves the floating range
#: before |z| = 1, while a genus-0 product's exp argument stays 0.
TINY_ZEROS = tuple(s * 1e-3 * k for k in range(1, 200) for s in (1, -1))

#: Each product path, with points where its product is not finite: the
#: paired rows, unpaired zeros (one-sided list) and genus-1 factors (whose
#: exp arguments at 0.5 stay inside the guard).
OVERFLOW_PANEL = {
    "paired": (HadamardTrunc(0j, 0j, TINY_ZEROS, 0, 398), [0.5, 1.0, 60.0]),
    "one-sided": (HadamardTrunc(0j, 0j, TINY_ZEROS[::2], 0, 199), [60.0]),
    "genus1": (HadamardTrunc(0j, 0j, TINY_ZEROS, 1, 398), [0.5]),
}


class TestProductOverflow:
    """A truncated product that is not finite is out of range, with no
    RuntimeWarning on the way."""

    @pytest.mark.parametrize("name", sorted(OVERFLOW_PANEL))
    def test_evaluation_raises(self, name):
        spec, over = OVERFLOW_PANEL[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in over:
                with pytest.raises(EvaluationRangeError):
                    eval_symbol(spec, z)
            with pytest.raises(EvaluationRangeError):
                eval_symbol_array(spec, [1.5e-3, *over])

    @pytest.mark.parametrize("name", sorted(OVERFLOW_PANEL))
    def test_masked_evaluation_marks_the_points(self, name):
        spec, over = OVERFLOW_PANEL[name]
        inside = [1.5e-3, 0.0125]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, in_range = eval_symbol_masked(spec, inside + over)
            want = eval_symbol_array(spec, inside)
        assert in_range.tolist() == [True] * len(inside) + [False] * len(over)
        assert np.isnan(values[len(inside) :]).all()
        assert [complex_bits(v) for v in values[: len(inside)]] == [
            complex_bits(v) for v in want
        ]


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
        for n, c in enumerate(t):
            assert c == pytest.approx(1 / math.factorial(n), rel=1e-9, abs=1e-12)


#: (n_max, samples) of ``derivs_at_zero`` for 2 and 6 derivatives, and a
#: dense series of cap 80 on ``to_taylor``'s sample count for that
#: cap (``to_taylor`` itself takes its series by FFT: TestFFTSeries).
CONTOUR_CASES = [(2, 64), (6, 64), (80, 324)]


class TestContourSeries:
    """One ring of ``2 * samples`` points serves both estimates of a series,
    bit for bit the two rings evaluated apart."""

    @pytest.mark.parametrize("radius", [0.5, 2.0, 3.23])
    @pytest.mark.parametrize("name", sorted(MASK_PANEL))
    def test_one_ring_is_bitwise_the_two_rings(self, name, radius):
        spec = MASK_PANEL[name]
        for n_max, samples in CONTOUR_CASES:
            args = (spec, n_max, radius, samples)
            try:
                want = converged_coeffs(*args)
            except DerivativeConvergenceError as err:
                with pytest.raises(DerivativeConvergenceError) as raised:
                    _converged_coeffs(*args)
                want = err.values, err.errors
                got = raised.value.values, raised.value.errors
            else:
                got = _converged_coeffs(*args)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    def test_one_evaluation_per_series(self, monkeypatch):
        sizes = []

        def recorded(spec, zs):
            sizes.append(np.size(zs))
            return eval_symbol_array(spec, zs)

        monkeypatch.setattr(symbols, "eval_symbol_array", recorded)
        to_taylor(CatalogSymbol("cos"), 80)
        derivs_at_zero(CatalogSymbol("sinc-pi"), 2)
        # 4 * 81 = 324 samples rounded up to 3 * 2**7 for the FFT
        assert sizes == [2 * 384, 2 * 64]


class TestFFTSeries:
    """``to_taylor`` by FFT against the dense DFT products it replaced
    (``reference.to_taylor``): the same series up to the last bits, the
    same convergence verdict."""

    @pytest.mark.parametrize("radius", [2.0, 3.23])
    @pytest.mark.parametrize("cap", [80, 150])
    @pytest.mark.parametrize("name", sorted(MASK_PANEL))
    def test_matches_the_dense_series(self, name, cap, radius):
        # relative to the series' size on the circle, the scale of every
        # coefficient's roundoff (a high coefficient alone is mostly noise)
        spec = MASK_PANEL[name]
        got = to_taylor(spec, cap, radius)
        want = reference_to_taylor(spec, cap, radius)
        powers = radius ** np.arange(cap + 1)
        size = np.abs(want) @ powers
        assert np.max(np.abs(got - want) * powers) <= 1e-12 * size

    @pytest.mark.parametrize("radius", [2.0, 3.23])
    @pytest.mark.parametrize("cap", [80, 150])
    @pytest.mark.parametrize("name", sorted(MASK_PANEL))
    def test_folded_coarse_estimate_is_the_even_transform(
        self, name, cap, radius, monkeypatch
    ):
        # (F_k + F_{k+N/2}) / N from the one spectrum is the transform of
        # the even samples, and the convergence verdict is the dense series'
        spec, estimates = MASK_PANEL[name], []
        converged = symbols._converged

        def recorded(fine, coarse):
            estimates.append(coarse)
            return converged(fine, coarse)

        monkeypatch.setattr(symbols, "_converged", recorded)
        try:
            reference_to_taylor(spec, cap, radius)
        except DerivativeConvergenceError:
            with pytest.raises(DerivativeConvergenceError):
                to_taylor(spec, cap, radius)
        else:
            to_taylor(spec, cap, radius)
        n = 2 * symbols._fft_size(4 * (cap + 1))
        vals = eval_symbol_array(spec, radius * symbols._unit_ring(n))
        even = np.fft.fft(vals[::2])[: cap + 1] / (n // 2)
        powers = radius ** np.arange(cap + 1)
        [coarse] = estimates
        error = np.max(np.abs(coarse * powers - even))
        assert error <= 4 * np.finfo(float).eps * np.max(np.abs(vals))

    @pytest.mark.parametrize(
        "spec, cap, radius",
        [
            (CatalogSymbol("exp-quadratic"), 150, 6.35),  # the default m = 6 report's
            (CatalogSymbol("exp", a=1), 150, 60.0),
            (CatalogSymbol("cos"), 20, 30.0),
        ],
    )
    def test_raises_where_the_dense_series_raises(self, spec, cap, radius):
        with pytest.raises(DerivativeConvergenceError) as dense:
            reference_to_taylor(spec, cap, radius)
        with pytest.raises(DerivativeConvergenceError) as fft:
            to_taylor(spec, cap, radius)
        assert str(fft.value) == str(dense.value)


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
        assert symbol_from_dict(to_json_value(spec)) == spec

    def test_evaluated_product_writes_its_fields_alone(self):
        # the factor table cached on first evaluation is no field
        spec = HadamardTrunc(1, 0, (1 + 0j, -1 + 0j, -2j), genus=0, truncation=3)
        fresh = json.dumps(to_json_value(spec), sort_keys=True)
        eval_symbol_array(spec, [0.5, 1.5j])
        assert json.dumps(to_json_value(spec), sort_keys=True) == fresh

    @pytest.mark.parametrize(
        "spec, text",
        [
            (
                CatalogSymbol("exp-poly", a=0.5, poly=(1, 1j), scale=2.0),
                '{"a": [0.5, 0.0], "kind": "catalog", "name": "exp-poly", '
                '"poly": [[1.0, 0.0], [0.0, 1.0]], "scale": [2.0, 0.0]}',
            ),
            (
                ExpPolySymbol(ExpPoly.of([(1.0, 1j), (2.0, -1j)])),
                '{"kind": "exppoly", '
                '"terms": [[[2.0, 0.0], [-0.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]]]}',
            ),
            (
                PolyTimesExp(poly=(1, 0.5), a=1, b=0.25j),
                '{"a": [1.0, 0.0], "b": [0.0, 0.25], "kind": "poly-times-exp", '
                '"poly": [[1.0, 0.0], [0.5, 0.0]]}',
            ),
            (
                HadamardTrunc(a=1, b=0, zeros=(1 + 0j, -2j), genus=1, truncation=2),
                '{"a": [1.0, 0.0], "b": [0.0, 0.0], "genus": 1, "kind": "hadamard", '
                '"truncation": 2, "zeros": [[1.0, 0.0], [-0.0, -2.0]]}',
            ),
        ],
        ids=["catalog", "exppoly", "poly-times-exp", "hadamard"],
    )
    def test_json_of_each_kind(self, spec, text):
        assert json.dumps(to_json_value(spec), sort_keys=True) == text

    @pytest.mark.parametrize(
        "field, value",
        [("genus", 0.5), ("genus", 1.0), ("genus", True), ("truncation", 3.7)],
    )
    def test_non_integer_hadamard_field_rejected(self, field, value):
        zeros = (1 + 0j, -2j, 3 + 0j, -4j)
        raw = to_json_value(HadamardTrunc(1, 0, zeros, genus=1, truncation=3))
        with pytest.raises(TypeError, match="expected an integer"):
            symbol_from_dict({**raw, field: value})

    def test_null_optional_fields_use_defaults(self):
        spec = symbol_from_dict(
            {"kind": "catalog", "name": "cos", "poly": None, "scale": None}
        )
        assert spec == CatalogSymbol("cos")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            symbol_from_dict({"kind": "mystery"})


#: JSON numbers that fit a double: finite floats (-0.0 and subnormals among
#: them) and integers.
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**1000), max_value=2**1000),
)
_PAIRS = st.lists(_NUMBERS, min_size=2, max_size=2)
#: No number: a bool is none, as a string is none.
_NOT_NUMBERS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.lists(_NUMBERS, max_size=2),
    st.dictionaries(st.text(max_size=2), _NUMBERS, max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(min_value=2**1024).flatmap(lambda n: st.sampled_from([n, -n])),
)
_BAD_PAIRS = st.one_of(
    st.lists(_NUMBERS, max_size=4).filter(lambda pair: len(pair) != 2),
    st.tuples(_NOT_NUMBERS, _NUMBERS).map(list),
    st.tuples(_NUMBERS, _NOT_NUMBERS).map(list),
    st.one_of(st.none(), _NUMBERS, st.text(max_size=4)),  # no pair at all
)


class TestComplexesFromJson:
    @given(st.lists(_PAIRS, max_size=8))
    def test_numbers_read_bit_for_bit(self, raw):
        got = complexes_from_json(raw)
        want = [complex(float(re), float(im)) for re, im in raw]
        assert [(z.real.hex(), z.imag.hex()) for z in got] == [
            (z.real.hex(), z.imag.hex()) for z in want
        ]

    @given(st.lists(_PAIRS, max_size=3), _BAD_PAIRS, st.lists(_PAIRS, max_size=3))
    def test_malformed_pair_raises_value_or_type_error(self, before, bad, after):
        with pytest.raises((TypeError, ValueError)):
            complexes_from_json([*before, bad, *after])

    def test_numeric_string_is_no_number(self):
        with pytest.raises(TypeError):
            complexes_from_json([["1.5", 0.0]])


def _same_json(value) -> bool:
    """Whether the writer and its reference give ``value`` the same JSON text."""
    return json.dumps(to_json_value(value), sort_keys=True, indent=2) == json.dumps(
        reference_to_json_value(value), sort_keys=True, indent=2
    )


class TestWriterMatchesReference:
    """The writer puts a complex entry of a list or tuple inline; the JSON
    text is that of the recursive writer it replaced."""

    @pytest.mark.parametrize("name", ["cos", "sinc-pi"])
    def test_classify_reports_of_products(self, name):
        zeros = catalog_zeros(name, 200)
        for truncation in range(50, 201):
            spec = HadamardTrunc(0, 0, zeros, genus=0, truncation=truncation)
            assert _same_json({"symbol": spec, "verdict": classify(spec)})

    @pytest.mark.parametrize(
        "fixture",
        [
            "single-m2.json",
            "single-m3.json",
            "single-m4-scale1.3.json",
            "multi-100-010-001.json",
            "multi-20-11-01.json",
        ],
    )
    def test_witness_fixtures(self, fixture):
        report = WitnessReport.from_dict(json.loads((DATA / fixture).read_text()))
        assert _same_json(report)
        assert json.dumps(to_json_value(report), sort_keys=True, indent=2) + "\n" == (
            DATA / fixture
        ).read_text()

    def test_catalog(self):
        entries = [
            {"symbol": symbol_from_dict(e["symbol"]), "expected": e["expected"]}
            for e in catalog_list()
        ]
        assert _same_json(entries)
        assert to_json_value(entries) == catalog_list()

    def test_numpy_complex_in_a_tuple(self):
        value = (np.complex128(1.5 - 0.0j), 2j, (np.complex128(-0.0 + 1j),))
        assert _same_json(value)
        got = to_json_value(value)
        assert got == [[1.5, -0.0], [0.0, 2.0], [[-0.0, 1.0]]]
        assert {type(x) for x in [*got[0], *got[1], *got[2][0]]} == {float}


class TestCatalogZeros:
    def test_cos_zeros(self):
        zeros = catalog_zeros("cos", 6)
        assert set(zeros) == {
            math.pi / 2, -math.pi / 2, 3 * math.pi / 2,
            -3 * math.pi / 2, 5 * math.pi / 2, -5 * math.pi / 2,
        }
        for z in zeros:
            assert abs(eval_symbol(CatalogSymbol("cos"), z)) < 1e-12

    def test_sinc_zeros_are_nonzero_integers(self):
        zeros = catalog_zeros("sinc-pi", 4)
        assert set(zeros) == {1, -1, 2, -2}

    def test_zero_free_entries(self):
        assert _structure(CatalogSymbol("exp", a=1)).zeros == ()
        assert _structure(CatalogSymbol("exp-quadratic")).zeros == ()


@dataclasses.dataclass(frozen=True)
class _Inner:
    z: complex
    n: int


@dataclasses.dataclass(frozen=True)
class _Outer:
    inner: _Inner
    f: ExpPoly
    table: dict


class TestToJsonValue:
    """One rule per kind of value; JSON data comes back unchanged."""

    def test_plain_values_unchanged(self):
        for value in (None, "s", 3, 2.5, True, -0.0):
            assert to_json_value(value) is value

    def test_complex_is_a_pair(self):
        assert to_json_value(1.5 - 2j) == [1.5, -2.0]

    def test_numpy_scalars_become_python_values(self):
        values = [np.float64(0.5), np.int64(3), np.bool_(True), np.complex128(1j)]
        got = to_json_value(values)
        assert got == [0.5, 3, True, [0.0, 1.0]]
        assert [type(v) for v in got[:3]] == [float, int, bool]

    def test_exppoly_is_its_terms(self):
        f = ExpPoly.of([(2.0, 0.5j), (1j, -1.0)])
        assert to_json_value(f) == [[[0.0, 1.0], [-1.0, 0.0]], [[2.0, 0.0], [0.0, 0.5]]]
        assert to_json_value(ExpPoly.zero()) == []

    def test_tuple_keys_are_joined_with_commas(self):
        assert to_json_value({(1, 0): 1j, (2,): None, 3: "x", "k": ()}) == {
            "1,0": [0.0, 1.0], "2": None, "3": "x", "k": []
        }

    def test_nested_dataclass_is_its_fields(self):
        value = _Outer(_Inner(2j, 4), ExpPoly.one(), {(0, 1): (1 + 0j,)})
        assert to_json_value(value) == {
            "inner": {"z": [0.0, 2.0], "n": 4},
            "f": [[[1.0, 0.0], [0.0, 0.0]]],
            "table": {"0,1": [[1.0, 0.0]]},
        }

    def test_json_data_is_a_fixed_point(self):
        data = to_json_value(_Outer(_Inner(2j, 4), ExpPoly.one(), {(0, 1): (1 + 0j,)}))
        assert to_json_value(data) == data
