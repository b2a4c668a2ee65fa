"""Ray scans and the geometric searches built on them."""

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
    eval_symbol,
    find_arith_progression,
    find_convex_ray,
    first_ray_below_one,
    ray_below_one,
    scan_ray,
)
from hyperalg import growth
from hyperalg.errors import EvaluationRangeError, HypothesisError, SearchFailureError
from hyperalg.growth import MODULUS_MARGIN, PROGRESSION_DIRECTIONS
from hyperalg.symbols import (
    _deviation_bound,
    _modulus_at_zero,
    eval_symbol_array,
    eval_symbol_masked,
)
from hyperalg.witness import DECAY_RAY_ANGLES
import reference
from reference import indicator

RAYS = np.exp(2j * np.pi * np.arange(PROGRESSION_DIRECTIONS) / PROGRESSION_DIRECTIONS)


class TestRays:
    def test_csv_bytes(self):
        scan = growth.RayScan(0.5, (0.25, 1.0), (0.75, 2.5))
        assert scan.to_csv().encode() == b"t,modulus\n0.25,0.75\n1.0,2.5\n"

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
    """The search one length at a time: every row j = 1..m of a step in
    every direction in one evaluation, a direction dropped at each of its
    points out of range."""
    js = np.arange(1, m + 1)
    for t in growth.PROGRESSION_STEPS:
        points = np.multiply.outer(js * float(t), RAYS)
        vals, in_range = eval_symbol_masked(spec, points)
        passes = in_range & (np.abs(vals) <= 1 - margin)
        hits = np.nonzero(passes.all(axis=0))[0]
        if hits.size:
            return complex(float(t) * RAYS[hits[0]])
    return None


COS_ZEROS = tuple((k + 0.5) * math.pi * s for k in range(6) for s in (1, -1))

#: Row 1 needs e^{3 - t cos(theta)} <= 1 - margin, so t cos(theta) >= 3; the
#: tiny term overflows where 100 j t cos(theta) > 700, which is every point
#: of row j >= 3 in a direction that passes row 1.  Lengths 1 (and 2, for
#: small margins) hit; 3..6 never do.
STEEP = ExpPolySymbol(ExpPoly.of([(math.exp(3.0), -1.0), (1e-300, 100.0)]))

#: Passes where t cos(theta) >= 3 as STEEP does; the tiny term overflows
#: where 300 j t |sin(theta)| > 700, so from t = 2.3 on row 1 overflows in
#: the directions with |sin(theta)| > 0.75, but not in those that pass.
SIDEWAYS = ExpPolySymbol(ExpPoly.of([(math.exp(3.0), -1.0), (1e-300, 300j)]))

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
    "sideways-overflow": SIDEWAYS,
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

    def test_overflow_in_other_directions_keeps_the_progression(self):
        found = find_arith_progression(SIDEWAYS, 2, margin=0.1)
        a = found[1]
        assert found == {1: a, 2: a}
        assert a.imag == 0 and a.real == pytest.approx(3.1552, abs=1e-4)
        assert abs(eval_symbol(SIDEWAYS, a)) == pytest.approx(0.856, abs=1e-3)
        assert abs(eval_symbol(SIDEWAYS, 2 * a)) == pytest.approx(0.0365, abs=1e-4)
        # row 1 of the step overflows in other directions
        _, in_range = eval_symbol_masked(SIDEWAYS, a * RAYS)
        assert 0 < in_range.sum() < PROGRESSION_DIRECTIONS

    def test_rejects_empty_length(self):
        with pytest.raises(ValueError):
            find_arith_progression(CatalogSymbol("cos"), 0)


@st.composite
def short_exponential_sums(draw):
    """Sums of 2 or 3 exponentials whose coefficients range from 1e-300 to
    3 in modulus and frequencies from 0.1 to 300, so that some overflow
    inside the step grid."""
    terms = []
    for _ in range(draw(st.integers(2, 3))):
        c = 10 ** draw(st.floats(-300, 0.5)) * cmath.exp(1j * draw(st.floats(0, 7)))
        freq = draw(st.floats(0.1, 300)) * cmath.exp(1j * draw(st.floats(0, 7)))
        terms.append((c, freq))
    return ExpPolySymbol(ExpPoly.of(terms))


class TestOverflowRule:
    """A point out of range fails its own direction or ray and nothing else:
    the searches against brute force on random exponential sums."""

    @settings(max_examples=40, deadline=None)
    @given(
        spec=short_exponential_sums(),
        margin=st.sampled_from([0.5, 0.1, MODULUS_MARGIN]),
    )
    def test_progression_is_the_brute_force(self, spec, margin):
        steps = growth.PROGRESSION_STEPS[::8]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(growth, "PROGRESSION_STEPS", steps)
            want = {k: reference_progression(spec, k, margin) for k in range(1, 5)}
            assert find_arith_progression(spec, 4, margin=margin) == want

    @settings(max_examples=40, deadline=None)
    @given(
        spec=short_exponential_sums(),
        t_max=st.floats(0.5, 10.0),
        fraction=st.sampled_from([0.0, 0.5, 0.99]),
    )
    def test_direction_scan_is_the_ray_loop(self, spec, t_max, fraction):
        thetas = [2 * math.pi * k / 360 for k in range(360)]
        r_min = fraction * t_max
        assert first_ray_below_one(spec, thetas, t_max, r_min) == (
            TestDirectionScan.loop(spec, thetas, t_max, r_min)
        )


def per_step_progression(spec, m, margin, evaluate, first_step=0):
    """The search before screening, step by step: row 1 of every step from
    ``first_step`` on is one ``evaluate`` call in every direction, and rows
    2..m of a live step are one more, in the directions that pass row 1.
    ``evaluate`` returns values and an in-range mask."""
    found = dict.fromkeys(range(1, m + 1))
    js = np.arange(2, m + 1, dtype=float)[:, None]
    for t in growth.PROGRESSION_STEPS[first_step:]:
        t = float(t)
        vals, in_range = evaluate(spec, t * RAYS)
        hits = np.nonzero(in_range & (np.abs(vals) <= 1 - margin))[0]
        if not hits.size:
            continue
        vals, in_range = evaluate(spec, (js * t) * RAYS[hits])
        passes = in_range & (np.abs(vals) <= 1 - margin)
        rows = np.vstack([np.ones(hits.size, dtype=bool), passes])
        for j in range(1, m + 1):
            alive = rows[:j].all(axis=0)
            if not alive.any():
                break
            if found[j] is None:
                found[j] = complex(t * RAYS[hits[alive.argmax()]])
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
    """Runs of dead steps are screened in one call where rows are cheap, and
    rows 2..m stop at the first block of directions that holds a direction
    passing them all."""

    def test_costly_symbol_keeps_the_per_step_calls(self, monkeypatch):
        # the majorant proves every step before the first live one dead
        steps = growth.PROGRESSION_STEPS
        first = growth._dead_steps(HADAMARD_60, steps, MODULUS_MARGIN)
        assert first == 20
        t = float(steps[first])
        vals, in_range = eval_symbol_masked(HADAMARD_60, t * RAYS)
        hit = np.nonzero(in_range & (np.abs(vals) <= 1 - MODULUS_MARGIN))[0][0]
        want_calls = []
        want = per_step_progression(
            HADAMARD_60,
            4,
            MODULUS_MARGIN,
            recording(want_calls, eval_symbol_masked),
            first_step=first,
        )
        calls = record_masked(monkeypatch)
        assert find_arith_progression(HADAMARD_60, 4) == want
        assert want[4] == complex(t * RAYS[hit])
        # row 1 of the first live step, then rows 2..4 of its first passing
        # direction, which passes them all
        assert len(calls) == 2
        assert np.array_equal(calls[0], want_calls[0])
        assert np.array_equal(calls[1], (np.arange(2, 5) * t) * RAYS[hit])

    def test_costly_symbol_screens_one_step_per_call(self, monkeypatch):
        # at margin 0.5 a few dead steps lie past the majorant's proof; each
        # takes a call of its own
        steps = growth.PROGRESSION_STEPS
        dead = growth._dead_steps(HADAMARD_60, steps, 0.5)
        calls = record_masked(monkeypatch)
        t, _ = next(growth._live_steps(HADAMARD_60, RAYS, 0.5))
        live = int(np.nonzero(steps == t)[0][0])
        assert live - dead >= 2
        assert len(calls) == live - dead + 1
        for got, step in zip(calls, steps[dead:]):
            assert np.array_equal(got, step * RAYS)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_dead_steps_take_a_tenth_of_the_calls(self, m, monkeypatch):
        spec = CatalogSymbol("exp-quadratic")
        want_calls = []
        want = per_step_progression(
            spec, m, 0.5, recording(want_calls, eval_symbol_masked)
        )
        calls = record_masked(monkeypatch)
        assert find_arith_progression(spec, m, margin=0.5) == want
        assert len(want_calls) > 300
        assert 0 < len(calls) <= len(want_calls) / 10

    def test_overflowing_screen_takes_one_call(self, monkeypatch):
        # row 1 overflows from t = 2.3 on and first passes at t = 3.16, so
        # the sweep screens blocks of dead steps that overflow
        calls = record_masked(monkeypatch)
        found = find_arith_progression(SIDEWAYS, 3, margin=0.1)
        assert found == {
            k: reference_progression(SIDEWAYS, k, 0.1) for k in range(1, 4)
        }
        overflowing = [
            z for z in calls if not eval_symbol_masked(SIDEWAYS, z)[1].all()
        ]
        assert any(z.size > PROGRESSION_DIRECTIONS for z in overflowing)
        # no point is evaluated twice
        points = np.concatenate(calls)
        assert np.unique(points).size == points.size

    @pytest.mark.parametrize(
        "name", ["cos", "sin+exp", "sinc-pi", "exppoly-two-term"]
    )
    def test_first_live_step_takes_two_calls(self, name, monkeypatch):
        # row 1 of the first live step, then rows 2..6 of one direction
        spec = PROGRESSION_PANEL[name]
        want = {k: reference_progression(spec, k, MODULUS_MARGIN) for k in range(1, 7)}
        calls = record_masked(monkeypatch)
        assert find_arith_progression(spec, 6) == want
        assert len(calls) <= 2

    @pytest.mark.parametrize(
        "name, margin",
        [("steep-overflow", MODULUS_MARGIN), ("steep-overflow", 0.1),
         ("sin+exp-scale60", MODULUS_MARGIN), ("exp-poly-scale40", -0.1)],
    )
    def test_later_direction_blocks_keep_the_answer(self, name, margin, monkeypatch):
        # the first direction that passes row 1 fails a later row, so the
        # rows of further blocks of directions decide
        spec = PROGRESSION_PANEL[name]
        want = {k: reference_progression(spec, k, margin) for k in range(1, 7)}
        calls = record_masked(monkeypatch)
        assert find_arith_progression(spec, 6, margin=margin) == want
        assert len(calls) > 2
        # no point is evaluated twice
        points = np.concatenate(calls)
        assert np.unique(points).size == points.size


#: Kinds and branches of the majorant that the progression panel leaves out.
MAJORANT_EXTRAS = {
    "exp": CatalogSymbol("exp", a=0.8j),
    "exp-poly-p0-2": CatalogSymbol("exp-poly", a=1, poly=(2, 1j, 0.5)),
    "poly-times-exp": PolyTimesExp((1, 0.5 - 0.2j, 0.3), a=0.6j, b=0.4j),
    "hadamard-genus1": HadamardTrunc(0.3j, 0.1j, COS_ZEROS, 1, 7),
    "sin+exp-scale0.5": CatalogSymbol("sin+exp(-z)", scale=0.5),
    "sin+exp-scale1.3": CatalogSymbol("sin+exp(-z)", scale=1.3),
    "sin+exp-scale2": CatalogSymbol("sin+exp(-z)", scale=2),
    "sin+exp-scale0.6+0.8j": CatalogSymbol("sin+exp(-z)", scale=0.6 + 0.8j),
}


def long_zero_list(name: str) -> tuple[float, ...]:
    """202 zeros of cos (+-(k + 1/2) pi) or sinc-pi (+-k), smallest first."""
    firsts = [(k + 0.5) * math.pi if name == "cos" else k + 1.0 for k in range(101)]
    return tuple(z for k in firsts for z in (k, -k))


def passing_points(spec, steps, margin) -> int:
    """How many points of row 1 of ``steps`` pass: in range, |phi| <= 1 - margin."""
    vals, in_range = eval_symbol_masked(spec, np.multiply.outer(steps, RAYS))
    return int(np.count_nonzero(in_range & (np.abs(vals) <= 1 - margin)))


def assert_bound_covers(spec, ts):
    """``_deviation_bound`` is at least |phi(z) - phi(0)| on the circles
    ``ts``, and ``_modulus_at_zero`` gives |phi(0)| and M(0) >= |phi(0)|."""
    phi0 = eval_symbol_array(spec, np.zeros(1))[0]
    modulus, m0 = _modulus_at_zero(spec)
    assert modulus == pytest.approx(abs(phi0), rel=1e-12, abs=1e-12 * m0)
    assert m0 >= modulus
    bound = _deviation_bound(spec, ts)
    vals, in_range = eval_symbol_masked(spec, np.multiply.outer(ts, RAYS))
    deviation = np.where(in_range, np.abs(vals - phi0), 0.0).max(axis=1)
    assert np.all(deviation <= bound * (1 + 1e-9) + 1e-12)


@st.composite
def exponential_sums(draw):
    def cx(lo, hi):
        return draw(st.floats(lo, hi)) * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))

    terms = [(cx(0.5, 3.0), 0j)] + [
        (cx(0.05, 2.0), cx(0.1, 3.0)) for _ in range(draw(st.integers(1, 4)))
    ]
    return ExpPolySymbol(ExpPoly.of(terms))


@st.composite
def truncated_products(draw):
    zeros = [
        draw(st.floats(0.5, 20.0)) * cmath.exp(1j * draw(st.floats(0, 2 * math.pi)))
        for _ in range(draw(st.integers(1, 8)))
    ]
    zeros += [-z for z in zeros[: draw(st.integers(0, len(zeros)))]]
    return HadamardTrunc(
        a=draw(st.floats(0, 1.0)) * cmath.exp(1j * draw(st.floats(0, 2 * math.pi))),
        b=1j * draw(st.floats(-3.0, 3.0)),
        zeros=tuple(zeros),
        genus=draw(st.integers(0, 1)),
        truncation=draw(st.integers(0, len(zeros))),
    )


class TestDeadZone:
    """The progression steps phi's majorant proves dead pass nowhere."""

    @pytest.mark.parametrize("margin", [0.5, 0.1, MODULUS_MARGIN])
    @pytest.mark.parametrize("name", sorted(PROGRESSION_PANEL))
    def test_skipped_steps_pass_nowhere(self, name, margin):
        spec = PROGRESSION_PANEL[name]
        steps = growth.PROGRESSION_STEPS
        skipped = growth._dead_steps(spec, steps, margin)
        assert passing_points(spec, steps[:skipped], margin) == 0

    @pytest.mark.parametrize(
        "name", ["cos", "exp-quadratic", "sinc-pi", "hadamard-even", "sin+exp"]
    )
    def test_wide_margin_skips_most_of_the_dead_prefix(self, name):
        spec = PROGRESSION_PANEL[name]
        steps = growth.PROGRESSION_STEPS
        prefix = next(
            i for i, t in enumerate(steps) if passing_points(spec, [t], 0.5)
        )
        assert growth._dead_steps(spec, steps, 0.5) >= 2 / 3 * prefix

    @pytest.mark.parametrize(
        "name, first_live",
        [("cos", 20), ("sin+exp", 20), ("sinc-pi-scale0.5", 25), ("hadamard-even", 21)],
    )
    def test_classify_margin_skips_the_whole_dead_prefix(self, name, first_live):
        spec = PROGRESSION_PANEL[name]
        steps = growth.PROGRESSION_STEPS
        assert growth._dead_steps(spec, steps, MODULUS_MARGIN) == first_live
        assert passing_points(spec, steps[first_live : first_live + 1], MODULUS_MARGIN)

    @pytest.mark.parametrize("margin", [MODULUS_MARGIN, 1e-3, 0.1])
    @pytest.mark.parametrize("truncation", [50, 51, 120, 200])
    @pytest.mark.parametrize("name", ["cos", "sinc-pi"])
    def test_long_products_skip_no_passing_step(self, name, truncation, margin):
        # the rounding allowance grows with the factor rows of the product
        spec = HadamardTrunc(0j, 0j, long_zero_list(name), 0, truncation)
        steps = growth.PROGRESSION_STEPS
        skipped = growth._dead_steps(spec, steps, margin)
        assert passing_points(spec, steps[:skipped], margin) == 0

    @pytest.mark.parametrize("name", sorted({**PROGRESSION_PANEL, **MAJORANT_EXTRAS}))
    def test_bound_covers_every_circle(self, name):
        spec = {**PROGRESSION_PANEL, **MAJORANT_EXTRAS}[name]
        assert_bound_covers(spec, growth.PROGRESSION_STEPS[::8])

    def test_majorant_constant_covers_the_rounded_modulus(self):
        # |c + 2c| rounds one ulp above |c| + |2c|
        c = 0.40548155975260897 + 0.2925486364702311j
        spec = ExpPolySymbol(ExpPoly.of([(c, 0j), (2 * c, 1)]))
        modulus, m0 = _modulus_at_zero(spec)
        assert modulus == abs(3 * c) > abs(c) + abs(2 * c)
        assert m0 >= modulus

    @settings(max_examples=40, deadline=None)
    @given(
        spec=st.one_of(exponential_sums(), truncated_products()),
        margin=st.sampled_from([0.5, 0.1, MODULUS_MARGIN]),
    )
    def test_random_sums_and_products(self, spec, margin):
        steps = growth.PROGRESSION_STEPS
        assert_bound_covers(spec, steps[::16])
        skipped = growth._dead_steps(spec, steps, margin)
        assert passing_points(spec, steps[:skipped], margin) == 0


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

    @pytest.mark.parametrize(
        "spec, t_max",
        [
            (CatalogSymbol("exp-quadratic"), 0.9),
            (CatalogSymbol("exp-quadratic", scale=1.3), 2.0),
            (CatalogSymbol("cos"), 1.0),
            (CatalogSymbol("cos"), 800.0),
            (CatalogSymbol("sinc-pi"), 3.0),
            (CatalogSymbol("exp-poly", a=1, poly=(1, 1)), 1.5),
            (ExpPolySymbol(ExpPoly.of([(2.0, 0.0)])), 1.0),
            (HADAMARD_60, 2.0),
        ],
    )
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.99, 1.01])
    def test_matches_the_fixed_block_scan(self, spec, t_max, fraction):
        # the doubling blocks against the scan that took _screen_limit rays
        # per evaluation; reversed, the first passing ray comes late
        thetas = [2 * math.pi * k / 360 for k in range(360)]
        r_min = fraction * t_max
        want = reference.first_ray_below_one(spec, thetas, t_max, r_min)
        assert first_ray_below_one(spec, thetas, t_max, r_min) == want
        assert first_ray_below_one(spec, thetas[::-1], t_max, r_min) == (
            reference.first_ray_below_one(spec, thetas[::-1], t_max, r_min)
        )

    @pytest.mark.parametrize("spec", [CatalogSymbol("cos"), CatalogSymbol("sinc-pi")])
    def test_decay_ray_directions_are_bit_for_bit(self, spec, monkeypatch):
        # the multi witness's 360 angles, as one read-only array: every
        # direction is cmath.exp(1j theta), and the angle found a Python float
        thetas = [2 * math.pi * k / 360 for k in range(360)]
        assert DECAY_RAY_ANGLES.tolist() == thetas
        assert not DECAY_RAY_ANGLES.flags.writeable
        calls = record_masked(monkeypatch)
        found = first_ray_below_one(spec, DECAY_RAY_ANGLES, 1.0, 0.5)
        first = growth._ray_samples(1.0)[0]
        want = first * np.array([cmath.exp(1j * theta) for theta in thetas])
        assert calls[0].tobytes() == want.tobytes()
        assert type(found) is float
        assert found == self.loop(spec, thetas, 1.0, 0.5)

    def test_overflowing_ray_fails_only_itself(self):
        # cos stays below one on the samples of the real axis and exceeds
        # one up the imaginary axis, where it overflows beyond t = 700
        spec = CatalogSymbol("cos")
        thetas = [0.0, math.pi / 2]
        assert ray_below_one(spec, math.pi / 2, 800.0) is None
        assert ray_below_one(spec, 0.0, 800.0) == 800.0
        assert first_ray_below_one(spec, thetas, 800.0, 1.0) == 0.0
        assert first_ray_below_one(spec, thetas[::-1], 800.0, 1.0) == 0.0

    def test_sample_out_of_range_fails_the_ray(self):
        # e^{-t} stays below one up to the guard at t = 700; the samples are
        # 3.125 apart, and the next one, 703.125, is out of range
        spec = CatalogSymbol("exp", a=-1)
        assert ray_below_one(spec, 0.0, 800.0) == 700.0
        with pytest.raises(EvaluationRangeError):
            eval_symbol(spec, 703.125)
        assert first_ray_below_one(spec, [0.0], 800.0, 700.0) == 0.0
        assert first_ray_below_one(spec, [0.0], 800.0, 701.0) is None

    def test_overflowing_block_takes_one_call(self, monkeypatch):
        # one screen call of the first samples, then the one ray that passes
        calls = record_masked(monkeypatch)
        found = first_ray_below_one(
            CatalogSymbol("cos"), [math.pi / 2, 0.0], 800.0, 1.0
        )
        assert found == 0.0
        assert [z.size for z in calls] == [2, growth.SCAN_SAMPLES]
        assert np.array_equal(calls[1], growth._ray_samples(800.0) + 0j)

    def test_product_blocks_count_its_factor_rows(self, monkeypatch):
        # two pairs (z, -z) and one lone zero: three rows and the exponential,
        # so the live rays go 1, 2 and then 4 per call
        spec = HadamardTrunc(0.1, 0j, (1.5, 2j, -1.5, 3 + 1j, -2j), 0, 5)
        assert growth._screen_limit(spec) == 4
        thetas = [2 * math.pi * k / 64 for k in range(64)]
        calls = record_masked(monkeypatch)
        assert first_ray_below_one(spec, thetas, 1.0, 2.0) is None
        assert calls[0].size == len(thetas)
        blocks = [z.size // growth.SCAN_SAMPLES for z in calls[1:]]
        assert blocks == [1, 2] + [4] * 7 + [1]

    def test_costly_symbol_scans_one_ray_per_call(self, monkeypatch):
        thetas = [2 * math.pi * k / 8 for k in range(8)]
        assert self.loop(HADAMARD_60, thetas, 2.0, 3.0) is None
        first = eval_symbol_array(
            HADAMARD_60, [2.0 / growth.SCAN_SAMPLES * cmath.exp(1j * t) for t in thetas]
        )
        survivors = int(np.sum(np.abs(first) <= 1 - MODULUS_MARGIN))
        assert 0 < survivors < len(thetas)
        calls = record_masked(monkeypatch)
        assert first_ray_below_one(HADAMARD_60, thetas, 2.0, 3.0) is None
        rays = [growth.SCAN_SAMPLES] * survivors
        assert [z.size for z in calls] == [len(thetas)] + rays


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

    @given(
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        st.complex_numbers(
            min_magnitude=1e-6, max_magnitude=1e3,
            allow_nan=False, allow_infinity=False,
        ),
    )
    @settings(deadline=None, max_examples=300)
    def test_matches_the_per_call_scan_bit_for_bit(self, a1, a2):
        # the phase tables built once at import against the scan that built
        # them on every call; a scan that finds no angle fails in both
        def outcome(scan):
            try:
                return scan(a1, a2).hex()
            except SearchFailureError as exc:
                return str(exc)

        assert outcome(convex_direction) == outcome(reference.convex_direction)


class TestConvexRay:
    @pytest.mark.parametrize(
        "mods, convex",
        [
            (np.exp(np.linspace(0, 1, 8) ** 2 + 0.1), True),
            (np.exp(np.linspace(0, 1, 8)), False),  # straight, not strictly convex
            (np.exp(-np.linspace(0, 1, 8) ** 2), False),  # decreasing
            (np.exp(np.linspace(0, 1, 8) ** 2) * 1e-301, False),  # below LOG_FLOOR
            (np.array([1.0, np.nan, 3.0, 9.0]), False),
        ],
    )
    def test_one_profile_test(self, mods, convex):
        profile = growth._convex_log_profile(mods)
        assert (profile is not None) == convex
        if convex:
            assert np.array_equal(profile, np.log(mods))

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
        monkeypatch.setattr(
            growth, "eval_symbol_masked", recording(calls, eval_symbol_masked)
        )
        spec = PolyTimesExp(poly=(1, -1, 0, 1), a=0)
        assert check_Tma_conditions(spec, 0.0, 0.5, np.linspace(1, 40, 64))
        # the ray below one, then the growth window
        assert [z.size for z in calls] == [growth.SCAN_SAMPLES, 64]
