"""Growth estimates, ray scans and the geometric searches built on them."""

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
    check_Tma_conditions,
    convex_direction,
    estimate_order_type,
    eval_symbol,
    find_arith_progression,
    find_convex_ray,
    first_ray_below_one,
    indicator,
    max_modulus,
    ray_below_one,
    scan_ray,
)
from hyperalg import growth
from hyperalg.errors import EvaluationRangeError, HypothesisError
from hyperalg.growth import MODULUS_MARGIN, PROGRESSION_DIRECTIONS
from hyperalg.symbols import eval_symbol_array, eval_symbol_masked

R_GRID = list(np.geomspace(1.0, 60.0, 16))


class TestOrderType:
    def test_exp_has_order_and_type_one(self):
        est = estimate_order_type(CatalogSymbol("exp", a=1), R_GRID)
        assert est.order == pytest.approx(1.0, abs=0.05)
        assert est.type_ == pytest.approx(1.0, abs=0.05)
        assert not est.degenerate

    def test_cos_has_order_one(self):
        est = estimate_order_type(CatalogSymbol("cos"), R_GRID)
        assert est.order == pytest.approx(1.0, abs=0.05)
        assert est.type_ == pytest.approx(1.0, abs=0.05)

    def test_quadratic_exponential_has_order_two(self):
        # the window self-truncates where evaluation overflows
        est = estimate_order_type(CatalogSymbol("exp-quadratic"), R_GRID)
        assert est.order == pytest.approx(2.0, abs=0.1)

    def test_constant_symbol_is_degenerate(self):
        est = estimate_order_type(ExpPolySymbol(ExpPoly.of([(0.5, 0.0)])), R_GRID)
        assert est.degenerate
        assert est.order == 0.0

    def test_max_modulus_of_exp_on_circle(self):
        assert max_modulus(CatalogSymbol("exp", a=1), 2.0) == pytest.approx(
            math.exp(2.0), rel=1e-3
        )

    def test_csv_has_one_row_per_sample(self):
        est = estimate_order_type(CatalogSymbol("cos"), R_GRID)
        lines = est.to_csv().strip().splitlines()
        assert lines[0] == "r,log_max_modulus"
        assert len(lines) == 1 + len(est.samples)


class TestRays:
    def test_scan_matches_direct_evaluation(self):
        spec = CatalogSymbol("cos")
        scan = scan_ray(spec, math.pi / 2, [0.5, 1.0, 2.0])
        for t, m in zip(scan.t_grid, scan.moduli):
            assert m == pytest.approx(math.cosh(t), rel=1e-12)

    def test_indicator_of_exp_along_positive_axis(self):
        assert indicator(
            CatalogSymbol("exp", a=1), 0.0, np.linspace(1, 40, 64)
        ) == pytest.approx(1.0, abs=1e-9)

    def test_ray_below_one_prefix_invariant(self):
        spec = CatalogSymbol("exp", a=1)
        r = ray_below_one(spec, math.pi, 10.0)
        assert r is not None
        ts = np.linspace(1e-3, r, 200)
        assert np.all(np.abs(np.exp(-ts)) < 1.0)

    def test_ray_below_one_rejects_growing_direction(self):
        assert ray_below_one(CatalogSymbol("exp", a=1), 0.0, 10.0) is None


class TestArithProgression:
    def test_cos_progression_memberships(self):
        spec = CatalogSymbol("cos")
        a = find_arith_progression(spec, 5)[5]
        assert a is not None
        for j in range(1, 6):
            assert abs(eval_symbol(spec, j * a)) < 1.0

    def test_poly_exp_progression_found_on_decaying_ray(self):
        spec = CatalogSymbol("exp-poly", a=1, poly=(1, 1))
        a = find_arith_progression(spec, 3)[3]
        assert a is not None
        for j in range(1, 4):
            assert abs(eval_symbol(spec, j * a)) < 1.0

    def test_constant_above_one_has_no_progression(self):
        spec = ExpPolySymbol(ExpPoly.of([(2.0, 0.0)]))
        assert find_arith_progression(spec, 2)[2] is None


def reference_progression(spec, m, margin):
    """The search one length at a time: every row j = 1..m of a step in one
    evaluation, the step skipped when any of them overflows."""
    rays = np.exp(
        2j * np.pi * np.arange(PROGRESSION_DIRECTIONS) / PROGRESSION_DIRECTIONS
    )
    js = np.arange(1, m + 1)
    for t in growth.PROGRESSION_STEPS:
        points = np.multiply.outer(js * float(t), rays)
        try:
            mods = np.abs(eval_symbol_array(spec, points))
        except EvaluationRangeError:
            continue
        hits = np.nonzero(np.all(mods <= 1 - margin, axis=0))[0]
        if hits.size:
            return complex(float(t) * rays[hits[0]])
    return None


COS_ZEROS = tuple((k + 0.5) * math.pi * s for k in range(6) for s in (1, -1))

#: Row 1 needs e^{3 - t cos(theta)} <= 1 - margin, so t >= 3; the tiny term
#: makes every row j with 100 j t > 700 overflow, which at t >= 3 is j >= 3.
#: Lengths 1 (and 2, for small margins) hit; 3..6 never do.
STEEP = ExpPolySymbol(ExpPoly.of([(math.exp(3.0), -1.0), (1e-300, 100.0)]))

PROGRESSION_PANEL = {
    "cos": CatalogSymbol("cos"),
    "cos-scale120": CatalogSymbol("cos", scale=120),
    "sin+exp": CatalogSymbol("sin+exp(-z)"),
    "sin+exp-scale60": CatalogSymbol("sin+exp(-z)", scale=60),
    "sinc-pi": CatalogSymbol("sinc-pi"),
    "sinc-pi-scale0.5": CatalogSymbol("sinc-pi", scale=0.5),
    "exp-poly": CatalogSymbol("exp-poly", a=1, poly=(1, 1)),
    "exp-poly-scale40": CatalogSymbol("exp-poly", a=1j, poly=(1, 0.5), scale=40),
    "exp-quadratic": CatalogSymbol("exp-quadratic"),
    "exp-quadratic-scale8": CatalogSymbol("exp-quadratic", scale=8),
    "hadamard-even": HadamardTrunc(0j, 0j, COS_ZEROS, 0, 10),
    "hadamard-odd": HadamardTrunc(0j, 0j, COS_ZEROS, 0, 11),
    "exppoly-two-term": ExpPolySymbol(ExpPoly.of([(0.6, 0.8j), (0.4, -0.8j)])),
    "constant-above-one": ExpPolySymbol(ExpPoly.of([(2.0, 0.0)])),
    "steep-overflow": STEEP,
}


class TestProgressionSweep:
    """The one-sweep search against the search one length at a time.

    The margin of ``classify`` runs on the full step grid; the wide margins
    of ``derive_witness_params``, whose first hits lie far out, on every
    8th step of it, which keeps the per-length reference affordable.
    """

    @pytest.mark.parametrize(
        "margin, stride", [(0.5, 8), (0.1, 8), (MODULUS_MARGIN, 1)]
    )
    @pytest.mark.parametrize("name", sorted(PROGRESSION_PANEL))
    def test_matches_search_per_length(self, name, margin, stride, monkeypatch):
        monkeypatch.setattr(
            growth, "PROGRESSION_STEPS", growth.PROGRESSION_STEPS[::stride]
        )
        spec = PROGRESSION_PANEL[name]
        want = {k: reference_progression(spec, k, margin) for k in range(1, 7)}
        assert find_arith_progression(spec, 6, margin=margin) == want
        assert find_arith_progression(spec, 3, margin=margin) == {
            k: want[k] for k in range(1, 4)
        }

    def test_overflowing_rows_keep_the_shorter_lengths(self):
        found = find_arith_progression(STEEP, 6, margin=0.1)
        assert found[1] is not None and found[2] is not None
        assert all(found[k] is None for k in range(3, 7))
        with pytest.raises(EvaluationRangeError):
            eval_symbol_array(STEEP, 3 * found[2])

    def test_rejects_empty_length(self):
        with pytest.raises(ValueError):
            find_arith_progression(CatalogSymbol("cos"), 0)


def per_step_progression(spec, m, margin, evaluate):
    """The search before screening, row by row: every row of every step is
    one ``evaluate`` call, and row 1 of a dead step is its only call."""
    rays = np.exp(
        2j * np.pi * np.arange(PROGRESSION_DIRECTIONS) / PROGRESSION_DIRECTIONS
    )
    found = dict.fromkeys(range(1, m + 1))
    for t in growth.PROGRESSION_STEPS:
        t = float(t)
        ok = np.ones(PROGRESSION_DIRECTIONS, dtype=bool)
        for j in range(1, m + 1):
            try:
                mods = np.abs(evaluate(spec, (j * t) * rays))
            except EvaluationRangeError:
                break
            ok &= mods <= 1 - margin
            hits = np.nonzero(ok)[0]
            if not hits.size:
                break
            if found[j] is None:
                found[j] = complex(t * rays[hits[0]])
        if found[m] is not None:
            break
    return found


def recording(calls, evaluate=eval_symbol_array):
    """``evaluate`` that appends the points of each call to ``calls``."""

    def recorded(spec, zs):
        calls.append(np.asarray(zs, dtype=complex).ravel())
        return evaluate(spec, zs)

    return recorded


def record_masked(monkeypatch):
    """The points of every :func:`eval_symbol_masked` call ``growth`` makes."""
    calls = []
    monkeypatch.setattr(
        growth, "eval_symbol_masked", recording(calls, eval_symbol_masked)
    )
    return calls


#: A truncated product whose single row costs far more than a call.
HADAMARD_60 = HadamardTrunc(
    0j, 0j, tuple((k + 0.5) * math.pi * s for k in range(30) for s in (1, -1)), 0, 60
)


class TestProgressionScreening:
    """Runs of dead steps are screened in one call where rows are cheap."""

    def test_costly_symbol_keeps_the_per_step_calls(self, monkeypatch):
        want_calls = []
        want = per_step_progression(
            HADAMARD_60, 4, MODULUS_MARGIN, recording(want_calls)
        )
        calls = record_masked(monkeypatch)
        assert find_arith_progression(HADAMARD_60, 4) == want
        assert len(calls) == len(want_calls) > 20
        for got, ref in zip(calls, want_calls):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_dead_steps_take_a_tenth_of_the_calls(self, m, monkeypatch):
        spec = CatalogSymbol("exp-quadratic")
        want_calls = []
        want = per_step_progression(spec, m, 0.5, recording(want_calls))
        calls = record_masked(monkeypatch)
        assert find_arith_progression(spec, m, margin=0.5) == want
        assert len(want_calls) > 300
        assert 0 < len(calls) <= len(want_calls) / 10

    def test_overflowing_screen_takes_one_call(self, monkeypatch):
        # row 1 overflows beyond t = 7 (the 1e-300 e^{100 z} term) and no
        # step ever passes row 3, so the sweep screens overflowing blocks
        calls = record_masked(monkeypatch)
        found = find_arith_progression(STEEP, 3, margin=0.1)
        assert found == {
            k: reference_progression(STEEP, k, 0.1) for k in range(1, 4)
        }
        overflowing = [z for z in calls if np.max(np.abs(z.real)) > 7]
        assert any(z.size > PROGRESSION_DIRECTIONS for z in overflowing)
        # no row is evaluated twice
        rows = [
            tuple(row) for z in calls for row in z.reshape(-1, PROGRESSION_DIRECTIONS)
        ]
        assert len(rows) == len(set(rows))


class TestDirectionScan:
    """The blocked scan against a loop of :func:`ray_below_one` calls."""

    @staticmethod
    def loop(spec, thetas, t_max, r_min):
        for theta in thetas:
            r = ray_below_one(spec, theta, t_max)
            if r is not None and r >= r_min:
                return theta
        return None

    @pytest.mark.parametrize(
        "spec, t_max",
        [
            (CatalogSymbol("exp-quadratic"), 0.9),
            (CatalogSymbol("exp-quadratic", scale=1.3), 2.0),
            (CatalogSymbol("cos"), 1.0),
            (CatalogSymbol("exp-poly", a=1, poly=(1, 1)), 1.5),
            (ExpPolySymbol(ExpPoly.of([(2.0, 0.0)])), 1.0),
        ],
    )
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.99])
    def test_picks_the_same_direction(self, spec, t_max, fraction):
        thetas = [2 * math.pi * k / 360 for k in range(360)]
        r_min = fraction * t_max
        assert first_ray_below_one(spec, thetas, t_max, r_min) == self.loop(
            spec, thetas, t_max, r_min
        )

    def test_overflowing_block_raises_only_past_the_pick(self):
        # cos stays below one on the first samples of the real axis and
        # overflows up the imaginary axis, which a loop of ray_below_one
        # calls never reaches once the real axis is picked
        spec = CatalogSymbol("cos")
        thetas = [0.0, math.pi / 2]
        with pytest.raises(EvaluationRangeError):
            ray_below_one(spec, math.pi / 2, 800.0)
        assert first_ray_below_one(spec, thetas, 800.0, 1.0) == 0.0
        with pytest.raises(EvaluationRangeError):
            first_ray_below_one(spec, thetas[::-1], 800.0, 1.0)

    def test_overflowing_block_takes_one_call(self, monkeypatch):
        calls = record_masked(monkeypatch)
        with pytest.raises(EvaluationRangeError):
            first_ray_below_one(CatalogSymbol("cos"), [math.pi / 2, 0.0], 800.0, 1.0)
        assert [z.size for z in calls] == [2 * growth.SCAN_SAMPLES]

    def test_costly_symbol_scans_one_ray_per_call(self, monkeypatch):
        thetas = [2 * math.pi * k / 8 for k in range(8)]
        assert self.loop(HADAMARD_60, thetas, 2.0, 3.0) is None
        calls = record_masked(monkeypatch)
        assert first_ray_below_one(HADAMARD_60, thetas, 2.0, 3.0) is None
        assert [z.size for z in calls] == [growth.SCAN_SAMPLES] * len(thetas)


def quadrant_reps():
    signs = [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]
    return [(s1, s2) for s1 in signs for s2 in signs]


class TestConvexDirection:
    def test_closed_form_when_first_coefficient_vanishes(self):
        assert convex_direction(0, 1) == pytest.approx(0.0)
        assert convex_direction(0, -0.5) == pytest.approx(-math.pi / 2)
        theta = convex_direction(0, cmath.exp(0.6j))
        assert (cmath.exp(0.6j) * cmath.exp(2j * theta)).real > 0

    @pytest.mark.parametrize("a1,a2", quadrant_reps())
    def test_all_quadrant_combinations(self, a1, a2):
        theta = convex_direction(a1, a2)
        assert (a1 * cmath.exp(1j * theta)).real > 0
        assert (a2 * cmath.exp(2j * theta)).real > 0

    @given(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=5.0,
            allow_nan=False, allow_infinity=False,
        ),
    )
    @settings(deadline=None, max_examples=300)
    def test_inequalities_hold(self, a1, a2):
        theta = convex_direction(a1, a2)
        first = (a1 * cmath.exp(1j * theta)).real
        second = (a2 * cmath.exp(2j * theta)).real
        assert first >= 0
        if a1 != 0:
            assert first > 0
        assert second > 0

    def test_zero_second_coefficient_rejected(self):
        with pytest.raises(ValueError):
            convex_direction(1, 0)


class TestConvexRay:
    def test_cos_goes_up_the_imaginary_axis(self):
        ray = find_convex_ray(CatalogSymbol("cos"), 0, 0.5)
        # log|cos| grows fastest along +/- i; the profile is log cosh
        assert abs(abs(math.sin(ray.theta)) - 1) < 1e-3
        for t, p in zip(ray.t_grid, ray.profile):
            expected = math.log(abs(cmath.cos(t * ray.w1)))
            assert p == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_quadratic_exponential_profile_is_exact_parabola(self):
        ray = find_convex_ray(CatalogSymbol("exp-quadratic"), 0, 0.5)
        eta = abs(ray.w1)
        for t, p in zip(ray.t_grid, ray.profile):
            assert p == pytest.approx(
                ((t * eta) ** 2 * cmath.exp(2j * ray.theta)).real, abs=1e-10
            )

    def test_profile_is_strictly_increasing_and_convex(self):
        for spec in (CatalogSymbol("cos"), CatalogSymbol("exp-quadratic")):
            ray = find_convex_ray(spec, 0, 0.5)
            d1 = np.diff(ray.profile)
            assert np.all(d1 > 0)
            assert np.all(np.diff(d1) > 0)

    def test_two_sided_domain_when_slope_is_nonzero(self):
        spec = PolyTimesExp(poly=(1, 1, 1), a=1)
        ray = find_convex_ray(spec, 0, 0.5)
        assert ray.domain[0] == -1.0

    def test_pure_exponential_rejected(self):
        with pytest.raises(HypothesisError):
            find_convex_ray(CatalogSymbol("exp", a=1), 0, 0.5)

    def test_vanishing_base_point_rejected(self):
        with pytest.raises(HypothesisError):
            find_convex_ray(CatalogSymbol("cos"), math.pi / 2, 0.5)


class TestTmaConditions:
    def test_pure_exponential_never_beats_its_envelope(self):
        assert (
            check_Tma_conditions(
                CatalogSymbol("exp", a=1), 0.0, 10.0, np.linspace(1, 40, 64)
            )
            is None
        )

    def test_cos_on_imaginary_axis_stays_below(self):
        assert (
            check_Tma_conditions(
                CatalogSymbol("cos"), math.pi / 2, 10.0, np.linspace(1, 40, 64)
            )
            is None
        )

    def test_subexponential_with_dip_below_one_qualifies(self):
        # 1 - z + z^3 dips under 1 near 0 on the real axis, then grows
        # polynomially past every sampled rate estimate
        spec = PolyTimesExp(poly=(1, -1, 0, 1), a=0)
        pair = check_Tma_conditions(spec, 0.0, 0.5, np.linspace(1, 40, 64))
        assert pair is not None
        r, R = pair
        assert 0 < r < R
        assert abs(eval_symbol(spec, r)) < 1
        assert abs(eval_symbol(spec, R)) > 1

    def test_one_evaluation_per_ray(self, monkeypatch):
        calls = []
        monkeypatch.setattr(growth, "eval_symbol_array", recording(calls))
        spec = PolyTimesExp(poly=(1, -1, 0, 1), a=0)
        assert check_Tma_conditions(spec, 0.0, 0.5, np.linspace(1, 40, 64))
        # the ray below one, then the growth window
        assert [z.size for z in calls] == [growth.SCAN_SAMPLES, 64]


def reference_estimate_order_type(spec, r_grid):
    """Scalar reference for ``estimate_order_type``: one :func:`max_modulus`
    call per radius, stopping at the first radius that overflows."""
    pairs = []
    for r in r_grid:
        try:
            m = max_modulus(spec, float(r))
        except EvaluationRangeError:
            break
        pairs.append((float(r), math.log(max(m, growth.LOG_FLOOR))))
    top = pairs[len(pairs) // 2 :]
    usable = [(r, lm) for r, lm in top if lm > 0]
    if not usable:
        return pairs, 0.0, 0.0, 0.0
    xs = np.log([r for r, _ in usable])
    ys = np.log([lm for _, lm in usable])
    if len(usable) >= 2 and xs[-1] > xs[0]:
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    else:
        slope, resid = 0.0, math.inf
    order = max(float(slope), 0.0)
    type_ = 0.0
    if abs(order - 1.0) <= 0.2:
        type_ = max(max(lm / r for r, lm in top), 0.0)
    return pairs, order, type_, resid


def hex_bits(values) -> list[str]:
    return [float(x).hex() for x in values]


class TestBatchedOrderEstimate:
    """The circles of a growth window are evaluated in blocks, bit for bit
    the per-radius loop."""

    SPECS = {
        **{
            f"{name}-scale{scale}": CatalogSymbol(name, scale=scale)
            for name in ("cos", "sin+exp(-z)", "sinc-pi", "exp", "exp-poly")
            for scale in (0.5, 1.0, 1.5, 2.0)
        },
        "exppoly-two-term": ExpPolySymbol(ExpPoly.of([(0.6, 0.8j), (0.4, -0.8j)])),
        "poly-times-exp": PolyTimesExp(poly=(1, 0.5, 0.25j), a=0.3 + 0.2j),
        "hadamard-60": HADAMARD_60,
        "exp-quadratic": CatalogSymbol("exp-quadratic"),
        "exp-steep": CatalogSymbol("exp", a=20),
    }

    #: One evaluation per block of circles; one per circle for the product.
    CALLS = {"exppoly-two-term": 2, "hadamard-60": len(R_GRID)}

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_the_per_radius_loop(self, name, monkeypatch):
        spec = self.SPECS[name]
        pairs, order, type_, quality = reference_estimate_order_type(spec, R_GRID)
        calls = record_masked(monkeypatch)
        est = estimate_order_type(spec, R_GRID)
        assert [hex_bits(p) for p in est.samples] == [hex_bits(p) for p in pairs]
        assert hex_bits([est.order, est.type_, est.quality]) == hex_bits(
            [order, type_, quality]
        )
        if len(pairs) == len(R_GRID):
            assert len(calls) == self.CALLS.get(name, 1)

    @pytest.mark.parametrize("name", ["exp-quadratic", "exp-steep"])
    def test_overflow_truncates_at_the_same_radius(self, name, monkeypatch):
        spec = self.SPECS[name]
        pairs, *_ = reference_estimate_order_type(spec, R_GRID)
        assert 4 <= len(pairs) < len(R_GRID)
        calls = record_masked(monkeypatch)
        est = estimate_order_type(spec, R_GRID)
        assert est.r_window == (R_GRID[0], pairs[-1][0])
        # the overflowing block is the only call
        assert [z.size for z in calls] == [len(R_GRID) * growth.SCAN_SAMPLES]

    def test_blocks_cover_a_longer_window(self, monkeypatch):
        # 20 radii in blocks of 16 and 4 circles
        spec = CatalogSymbol("cos", scale=0.7)
        r_grid = list(np.geomspace(0.5, 80.0, 20))
        pairs, *_ = reference_estimate_order_type(spec, r_grid)
        calls = record_masked(monkeypatch)
        est = estimate_order_type(spec, r_grid)
        assert [hex_bits(p) for p in est.samples] == [hex_bits(p) for p in pairs]
        assert [z.size // growth.SCAN_SAMPLES for z in calls] == [16, 4]

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            estimate_order_type(CatalogSymbol("cos"), [0.0] + R_GRID)
