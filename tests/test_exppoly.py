"""Exact arithmetic of finite exponential sums, their evaluation on point
arrays, and the disk grids; the tests' truncated Taylor views."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalg import DiskGrid, ExpPoly, mul_exppoly
from hyperalg.errors import EvaluationRangeError
from reference import TaylorPoly, evaluate, pow_exppoly, sub_exppoly


def small_complex(max_magnitude):
    return st.complex_numbers(
        max_magnitude=max_magnitude, allow_nan=False, allow_infinity=False
    )


def exppolys(max_terms=4, coeff_mag=3.0, freq_mag=2.0):
    term = st.tuples(small_complex(coeff_mag), small_complex(freq_mag))
    return st.lists(term, min_size=1, max_size=max_terms).map(ExpPoly.of)


class TestConstruction:
    def test_single_term_evaluates_to_scaled_exponential(self):
        f = ExpPoly.of([(2.0, 1.5)])
        (value,) = f.evaluate_array(np.array([0.3]))
        assert value == pytest.approx(2.0 * math.exp(0.45))

    def test_terms_are_canonicalized_and_merged(self):
        f = ExpPoly.of([(1, 1.0), (2, 1.0 + 1e-15), (0, 5.0)])
        assert len(f.terms) == 1
        assert f.coefficients() == (3 + 0j,)
        assert f.frequencies() == (1 + 0j,)

    def test_zero_coefficients_are_dropped(self):
        f = ExpPoly.of([(1, 2.0), (-1, 2.0)])
        assert f.is_zero
        assert f.evaluate_array(np.array([0.7])).tolist() == [0]

    def test_one_is_the_constant_function(self):
        assert ExpPoly.one().evaluate_array(np.array([123.4, -5j])).tolist() == [1, 1]
        assert ExpPoly.one().frequencies() == (0j,)

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError):
            ExpPoly.of([(float("nan"), 0.0)])

    def test_first_non_finite_value_is_named(self):
        # every value is checked in one pass; the error still names the
        # first, coefficient before frequency
        nan = float("nan")
        with pytest.raises(ValueError, match=r"^frequency must be finite, got \(nan\+0j\)$"):
            ExpPoly.of([(1, nan), (nan, 1)])
        with pytest.raises(ValueError, match="^coefficient must be finite"):
            ExpPoly.of([(1, 2), (complex(1, math.inf), nan)])

    def test_overflowing_argument_raises_range_error(self):
        f = ExpPoly.of([(1.0, 10.0)])
        with pytest.raises(EvaluationRangeError):
            f.evaluate_array(np.array([0.5, 100.0]))


class TestAlgebra:
    def test_product_adds_frequencies(self):
        f = ExpPoly.of([(2.0, 1.0)])
        g = ExpPoly.of([(3.0, -0.5j)])
        h = mul_exppoly(f, g)
        assert h.terms == ((6 + 0j, 1.0 - 0.5j),)

    def test_square_of_binomial_has_three_terms(self):
        f = ExpPoly.of([(1.0, 0.0), (1.0, 1.0)])
        sq = pow_exppoly(f, 2)
        assert sq.terms == ((1 + 0j, 0j), (2 + 0j, 1 + 0j), (1 + 0j, 2 + 0j))

    def test_pow_zero_is_one(self):
        f = ExpPoly.of([(2.0, 1.0)])
        assert pow_exppoly(f, 0).terms == ExpPoly.one().terms

    @given(exppolys(), exppolys(), st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False))
    @settings(deadline=None)
    def test_mul_is_pointwise_product(self, f, g, z):
        lhs = evaluate(mul_exppoly(f, g), z)
        rhs = evaluate(f, z) * evaluate(g, z)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @given(exppolys(max_terms=3), st.integers(min_value=0, max_value=5))
    @settings(deadline=None)
    def test_pow_equals_repeated_mul(self, f, n):
        by_pow = pow_exppoly(f, n)
        by_fold = ExpPoly.one()
        for _ in range(n):
            by_fold = mul_exppoly(by_fold, f)
        assert by_pow.terms == by_fold.terms

    @given(exppolys(), exppolys(), st.complex_numbers(
        max_magnitude=1.0, allow_nan=False, allow_infinity=False))
    @settings(deadline=None)
    def test_add_sub_are_pointwise(self, f, g, z):
        assert evaluate(f + g, z) == pytest.approx(
            evaluate(f, z) + evaluate(g, z), rel=1e-10, abs=1e-10
        )
        assert evaluate(sub_exppoly(f, g), z) == pytest.approx(
            evaluate(f, z) - evaluate(g, z), rel=1e-10, abs=1e-10
        )

    def test_nan_point_exceeds_the_guard(self):
        f = ExpPoly.of([(1.0, 1.0)])
        for zs in ([np.nan, 1000.0], [np.nan, 1.0]):
            with pytest.raises(EvaluationRangeError):
                f.evaluate_array(np.array(zs))
        with pytest.raises(EvaluationRangeError):
            evaluate(f, complex("nan"))

    def test_evaluate_array_matches_scalar_loop(self):
        f = ExpPoly.of([(1.0, 1.0j), (0.5, -0.3)])
        zs = np.array([0.1, 0.5 + 0.5j, -1.0j])
        vals = f.evaluate_array(zs)
        for z, v in zip(zs, vals):
            assert v == pytest.approx(evaluate(f, z), rel=1e-12)


class TestTaylorPoly:
    def test_from_exppoly_matches_series_of_exp(self):
        f = ExpPoly.of([(1.0, 2.0)])  # e^{2z}: coefficients 2^n / n!
        t = TaylorPoly.from_exppoly(f, 10)
        for n, c in enumerate(t.coeffs):
            assert c == pytest.approx(2.0**n / math.factorial(n), rel=1e-12)

    def test_truncated_evaluation_converges_to_exact(self):
        f = ExpPoly.of([(1.0, 1.0), (2.0, -0.5j)])
        z = 0.8 - 0.2j
        exact = evaluate(f, z)
        errors = [
            abs(TaylorPoly.from_exppoly(f, cap).evaluate(z) - exact)
            for cap in (5, 10, 20, 40)
        ]
        assert errors[-1] < 1e-12
        assert errors == sorted(errors, reverse=True)

    def test_cap_defaults_to_length(self):
        t = TaylorPoly.of([1, 2, 3])
        assert t.cap == 2
        assert t.evaluate(1.0) == pytest.approx(6.0)


class TestDiskGrid:
    def test_points_lie_in_closed_disk(self):
        grid = DiskGrid(radius=3.0, samples=32, circles=4)
        pts = grid.points()
        assert np.all(np.abs(pts) <= 3.0 + 1e-12)
        assert np.max(np.abs(pts)) == pytest.approx(3.0)

    def test_point_count(self):
        grid = DiskGrid(radius=1.0, samples=16, circles=3)
        assert len(grid.points()) == 16 * 3

    def test_points_computed_once_and_read_only(self):
        grid = DiskGrid(radius=2.0, samples=16, circles=3)
        pts = grid.points()
        assert pts is grid.points()
        assert not pts.flags.writeable
        ring = np.exp(1j * 2 * np.pi * np.arange(16) / 16)
        expected = np.concatenate([r * ring for r in 2.0 * np.arange(1, 4) / 3])
        assert np.array_equal(pts, expected)

    def test_grids_of_one_shape_share_their_points(self):
        # every command makes its own DiskGrid(); the points are built once
        pts = DiskGrid(3.0).points()
        assert pts is DiskGrid().points()
        assert not pts.flags.writeable
        angles = 2 * np.pi * np.arange(64) / 64
        ring = np.exp(1j * angles)
        radii = 3.0 * np.arange(1, 5) / 4
        assert pts.tobytes() == np.concatenate([r * ring for r in radii]).tobytes()
        assert DiskGrid(3.0, samples=32).points() is not pts

    def test_dict_round_trip(self):
        grid = DiskGrid(radius=2.5, samples=48, circles=5)
        assert DiskGrid.from_dict(grid.to_dict()) == grid

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskGrid(radius=0.0)
        with pytest.raises(ValueError):
            DiskGrid(radius=1.0, samples=4)
        with pytest.raises(ValueError):
            DiskGrid(radius=1.0, circles=1)
