"""The diagonal operator action, the coefficient-space action, and the
checks of verify_witness."""

import cmath
import dataclasses
import inspect
import json
import math
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalg import (
    CatalogSymbol,
    DiskGrid,
    ExpPoly,
    ExpPolySymbol,
    HadamardTrunc,
    eval_symbol,
    mul_exppoly,
    to_json_value,
    to_taylor,
    verify_witness,
)
from hyperalg import dynamics, symbols
from hyperalg.dynamics import _Diagonal
from hyperalg.errors import EvaluationRangeError
from hyperalg.symbols import _contour_coeffs, _dft_phases, eval_symbol_array
from hyperalg.cli import run
from hyperalg.witness import WitnessReport
from reference import (
    TAYLOR_GUARD,
    OracleInputError,
    TaylorPoly,
    apply_symbol,
    apply_symbol_power,
    apply_symbol_taylor,
    pow_exppoly,
    sup_distance,
)
import reference

GRID = DiskGrid(radius=1.0, samples=32, circles=3)


def distances(diagonal, fs, q, targets):
    """The images and sup distances of ``diagonal`` of the sums ``fs`` at
    the one iterate count q: one row per sum, one distance per sum and its
    target."""
    images, dists = diagonal.images(fs, [q], targets)
    return images[0], dists[0]


def distance(diagonal, f, q, target):
    """sup over the grid of ``|phi(D)**q f - target|``, by ``diagonal``."""
    return distances(diagonal, [f], q, [target])[1][0]


def exppolys(max_terms=4):
    term = st.tuples(
        st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(ExpPoly.of)


class TestDiagonalAction:
    def test_single_exponential_is_an_eigenvector(self):
        spec = CatalogSymbol("cos")
        f = ExpPoly.of([(2.0, 1.5j)])
        image = apply_symbol(spec, f)
        assert image.frequencies() == f.frequencies()
        assert image.coefficients()[0] == pytest.approx(
            2.0 * eval_symbol(spec, 1.5j), rel=1e-12
        )

    @given(exppolys(), exppolys())
    @settings(deadline=None, max_examples=50)
    def test_linearity(self, f, g):
        spec = CatalogSymbol("cos")
        lhs = apply_symbol(spec, f + g)
        rhs = apply_symbol(spec, f) + apply_symbol(spec, g)
        assert lhs.frequencies() == rhs.frequencies()
        for a, b in zip(lhs.coefficients(), rhs.coefficients()):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    @given(
        exppolys(max_terms=3),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    @settings(deadline=None, max_examples=50)
    def test_power_is_multiplicative(self, f, q1, q2):
        spec = CatalogSymbol("cos")
        once = apply_symbol_power(spec, f, q1 + q2)
        twice = apply_symbol_power(spec, apply_symbol_power(spec, f, q1), q2)
        assert once.frequencies() == twice.frequencies()
        for a, b in zip(once.coefficients(), twice.coefficients()):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_power_one_matches_apply(self):
        spec = CatalogSymbol("sin+exp(-z)")
        f = ExpPoly.of([(1.0, 0.5), (2.0, -0.5j)])
        by_power = apply_symbol_power(spec, f, 1)
        direct = apply_symbol(spec, f)
        assert by_power.frequencies() == direct.frequencies()
        for a, b in zip(by_power.coefficients(), direct.coefficients()):
            assert a == pytest.approx(b, rel=1e-14)

    def test_power_overflow_guard(self):
        spec = CatalogSymbol("exp", a=1)
        f = ExpPoly.of([(1.0, 2.0)])  # |phi(2)| = e^2, e^{2q} overflows
        with pytest.raises(EvaluationRangeError):
            apply_symbol_power(spec, f, 2**20)

    def test_annihilated_term_drops_out(self):
        # phi(w) = e^w - 1 vanishes exactly at w = 0 in floating point
        spec = ExpPolySymbol(ExpPoly.of([(1.0, 1.0), (-1.0, 0.0)]))
        f = ExpPoly.of([(1.0, 1.0), (1.0, 0.0)])
        image = apply_symbol_power(spec, f, 3)
        assert image.frequencies() == (1 + 0j,)


class TestCoefficientOracle:
    def test_identity_symbol_with_unit_series(self):
        phi = [1.0]  # multiplication by 1
        f = TaylorPoly.from_exppoly(ExpPoly.of([(1.0, 1.0)]), 80)
        out = apply_symbol_taylor(phi, f, 60)
        assert out.coeffs == f.coeffs[:61]

    def test_derivative_shifts_coefficients(self):
        phi = [0.0, 1.0]  # the bare derivative
        f = TaylorPoly.from_exppoly(ExpPoly.of([(1.0, 2.0)]), 80)
        out = apply_symbol_taylor(phi, f, 60)
        z = 0.4 + 0.1j
        assert out.evaluate(z) == pytest.approx(
            2.0 * complex(np.exp(2.0 * z)), rel=1e-10
        )

    def test_guard_band_enforced(self):
        phi = [1.0]
        f = TaylorPoly.from_exppoly(ExpPoly.one(), 30)
        with pytest.raises(OracleInputError):
            apply_symbol_taylor(phi, f, 60)

    @given(exppolys(max_terms=3), st.sampled_from(["cos", "sin+exp(-z)", "sinc-pi"]))
    @settings(deadline=None, max_examples=30)
    def test_agrees_with_diagonal_action(self, f, name):
        spec = CatalogSymbol(name)
        phi_t = to_taylor(spec, 80)
        f_t = TaylorPoly.from_exppoly(f, 80)
        oracle = apply_symbol_taylor(phi_t, f_t, 60)
        diagonal = apply_symbol(spec, f)
        assert sup_distance(diagonal, oracle, GRID) < 1e-7 * max(
            1.0, max(abs(c) for c in f.coefficients() or [0])
        )


def reference_apply_symbol_taylor(a, f_taylor: TaylorPoly, K: int) -> TaylorPoly:
    """Scalar reference for ``apply_symbol_taylor``: one running product
    ``(k+n)!/k!`` per output, cut at 1e300 or at the end of ``f``."""
    fs = f_taylor.coeffs
    out = []
    for k in range(K + 1):
        total = 0j
        perm = 1.0
        for n, a_n in enumerate(a):
            if k + n >= len(fs):
                break
            if n > 0:
                perm *= k + n
                if perm > 1e300:
                    break
            total += a_n * perm * fs[k + n]
        out.append(total)
    return TaylorPoly(tuple(out), K)


def random_taylor(rng, length):
    coeffs = rng.uniform(-1, 1, length) + 1j * rng.uniform(-1, 1, length)
    return TaylorPoly(tuple(coeffs.tolist()), max(length - 1, 0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestVectorizedKernels:
    """The numpy kernels against scalar reference loops."""

    @pytest.mark.parametrize(
        "len_phi, extra, K", [(1, 0, 60), (7, 0, 60), (81, 0, 60), (40, 25, 10), (95, 3, 0)]
    )
    def test_apply_matches_scalar_reference(self, len_phi, extra, K):
        rng = np.random.default_rng(100 * len_phi + extra)
        phi = random_taylor(rng, len_phi).coeffs
        f = random_taylor(rng, K + TAYLOR_GUARD + 1 + extra)
        out = apply_symbol_taylor(phi, f, K)
        ref = reference_apply_symbol_taylor(phi, f, K)
        assert out.cap == K and len(out.coeffs) == K + 1
        assert all(isinstance(c, complex) for c in out.coeffs)
        np.testing.assert_allclose(out.coeffs, ref.coeffs, rtol=1e-12, atol=0)

    def test_apply_drops_the_same_terms_past_the_factorial_cutoff(self):
        # (k+n)!/k! passes 1e300 inside the first 300 orders for every k <= 60
        rng = np.random.default_rng(60)
        phi = random_taylor(rng, 300).coeffs
        f = random_taylor(rng, 300)
        assert math.factorial(170) > 1e300
        out = apply_symbol_taylor(phi, f, 60)
        ref = reference_apply_symbol_taylor(phi, f, 60)
        assert np.all(np.isfinite(out.coeffs))
        np.testing.assert_allclose(out.coeffs, ref.coeffs, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "name, center, n_max, radius, samples",
        [("cos", 0j, 6, 0.5, 64), ("exp-quadratic", 0j, 80, 2.5, 324),
         ("sin+exp(-z)", 0.3 - 0.2j, 2, 0.5, 128)],
    )
    def test_contour_coeffs_bit_identical_to_dense_dft(
        self, name, center, n_max, radius, samples
    ):
        spec = CatalogSymbol(name)
        angles = 2 * np.pi * np.arange(samples) / samples
        vals = eval_symbol_array(spec, center + radius * np.exp(1j * angles))
        ks = np.arange(n_max + 1)
        dense = (np.exp(-1j * np.outer(ks, angles)) @ vals) / samples / radius**ks
        for _ in range(2):  # a cache miss, then a hit
            got = _contour_coeffs(vals, n_max, radius)
            assert np.array_equal(got, dense)

    def test_cached_phases_are_read_only(self):
        phases = _dft_phases(4, 16)
        assert phases is _dft_phases(4, 16)
        assert not phases.flags.writeable
        with pytest.raises(ValueError):
            phases[0, 0] = 0


def reference_apply_symbol_power(spec, f: ExpPoly, q: int) -> ExpPoly:
    """Scalar reference for :func:`reference.apply_symbol_power`: one
    ``eval_symbol`` call per term, in term order."""
    out = []
    for c, l in f.terms:
        val = eval_symbol(spec, l)
        if val == 0:
            if q > 0:
                continue
            factor = 1 + 0j
        else:
            log_mag = q * math.log(abs(val))
            if log_mag > 700.0:
                raise EvaluationRangeError(
                    f"|phi({l})|^{q} overflows double precision", z=l
                )
            factor = cmath.exp(complex(log_mag, q * cmath.phase(val)))
        out.append((c * factor, l))
    return ExpPoly.of(out)


def bits(values) -> list[str]:
    """Every real and imaginary part in hex, so -0.0 and 0.0 differ."""
    return [x.hex() for z in values for x in (z.real, z.imag)]


def term_bits(f: ExpPoly) -> list[str]:
    return bits(z for term in f.terms for z in term)


#: (c, l) for one term that overflows only through |phi(l)|^q, and one whose
#: own evaluation overflows (cos at 800i).
POWER_OVERFLOW = (1.0, 3j)
EVAL_OVERFLOW = (1.0, 800j)

#: phi(w) = e^w - 1 vanishes exactly at w = 0 in floating point.
VANISHING = ExpPolySymbol(ExpPoly.of([(1.0, 1.0), (-1.0, 0.0)]))


def counting_evaluations(monkeypatch):
    """The point count of every :func:`eval_symbol_array` call ``dynamics``
    makes."""
    calls = []

    def counting(spec, zs):
        calls.append(np.size(zs))
        return eval_symbol_array(spec, zs)

    monkeypatch.setattr(dynamics, "eval_symbol_array", counting)
    return calls


class TestBatchedDiagonalAction:
    """One evaluation per frequency set, bit for bit the scalar loop."""

    SPECS = {
        "cos": CatalogSymbol("cos"),
        "sin+exp": CatalogSymbol("sin+exp(-z)", scale=0.7),
        "exp-quadratic": CatalogSymbol("exp-quadratic", scale=1.3),
        "exppoly": ExpPolySymbol(ExpPoly.of([(0.6, 0.8j), (0.4, -0.8j)])),
        "hadamard": HadamardTrunc(0.2, 0j, (1.5, -1.5, 2.5j, -2.5j), 1, 4),
        "hadamard-genus0": HadamardTrunc(0.2, 0j, (1.5, 2.5j, -1.5, -2.5j, 3j), 0, 5),
        "vanishing": VANISHING,
    }

    @pytest.mark.parametrize("q", [0, 1, 7, 2048, 2**20])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_power_matches_scalar_reference(self, name, q):
        spec = self.SPECS[name]
        rng = np.random.default_rng(len(name) * 31 + q % 97)
        for size in (1, 3, 12):
            c = rng.normal(size=size) + 1j * rng.normal(size=size)
            l = rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)
            f = ExpPoly.of(list(zip(c.tolist(), l.tolist())) + [(2.0, 0.0)])
            try:
                want = reference_apply_symbol_power(spec, f, q)
            except EvaluationRangeError as exc:
                with pytest.raises(EvaluationRangeError, match=re.escape(str(exc))):
                    apply_symbol_power(spec, f, q)
                continue
            assert term_bits(apply_symbol_power(spec, f, q)) == term_bits(want)

    @pytest.mark.parametrize("q", [0, 3])
    def test_zero_eigenvalue(self, q):
        f = ExpPoly.of([(1.0, 1.0), (1.0, 0.0), (0.5j, -0.25)])
        got = apply_symbol_power(VANISHING, f, q)
        want = reference_apply_symbol_power(VANISHING, f, q)
        assert term_bits(got) == term_bits(want)
        assert (0j in got.frequencies()) == (q == 0)

    @pytest.mark.parametrize(
        "terms, q",
        [
            ([POWER_OVERFLOW], 2**20),
            ([EVAL_OVERFLOW, (1.0, 0.5)], 1),
            # the power overflow comes first in term order, but the term
            # whose evaluation overflows raises first
            ([POWER_OVERFLOW, EVAL_OVERFLOW], 2**20),
        ],
    )
    def test_overflow_raises_the_scalar_loop_error(self, terms, q):
        spec = CatalogSymbol("cos")
        f = ExpPoly.of(terms)
        with pytest.raises(EvaluationRangeError) as want:
            # phi is read at every frequency before any power is taken
            for _, l in f.terms:
                eval_symbol(spec, l)
            reference_apply_symbol_power(spec, f, q)
        with pytest.raises(EvaluationRangeError) as got:
            apply_symbol_power(spec, f, q)
        assert str(got.value) == str(want.value)

    def test_one_evaluation_per_call(self, monkeypatch):
        calls = counting_evaluations(monkeypatch)
        f = ExpPoly.of([(1.0, 0.1 * k + 0.2j) for k in range(9)])
        spec = CatalogSymbol("exp-quadratic")
        apply_symbol_power(spec, f, 64)
        apply_symbol(spec, f)
        assert calls == [9, 9]
        # also when phi overflows at one of the frequencies
        f = ExpPoly.of([EVAL_OVERFLOW, (1.0, 0.5)])
        for apply in (apply_symbol, lambda spec, f: apply_symbol_power(spec, f, 1)):
            with pytest.raises(EvaluationRangeError):
                apply(CatalogSymbol("cos"), f)
        assert calls == [9, 9, 2, 2]


DATA = Path(__file__).parent / "data"


#: The terms that forge a cos witness-multi report: finite each, their
#: images under phi(D)^q overflow to inf - inf on the grid.
FORGED_TERMS = [
    [[1e300, 0.0], [3 * math.pi, 0.0]],
    [[-1e300, 0.0], [3 * math.pi + 1e-3, 0.0]],
]


def fixture_report(name: str) -> WitnessReport:
    return WitnessReport.from_dict(json.loads((DATA / f"{name}.json").read_text()))


class TestVerifySoundness:
    """A report whose images are not finite, or whose agreement is NaN, does
    not verify."""

    def test_overflowing_image_raises(self):
        cos = {"kind": "catalog", "name": "cos"}
        config = {"command": "witness-multi", "symbol": cos, "exponents": [[1, 0], [0, 1]]}
        payload = run(config)["outcome"]["witness"]
        grid = DiskGrid.from_dict(payload["params"]["grid"])
        report = WitnessReport.from_dict(payload)
        assert verify_witness(CatalogSymbol("cos"), report, grid, 1e-5)[0]
        payload["generators"][0] += FORGED_TERMS
        forged = WitnessReport.from_dict(payload)
        with pytest.raises(EvaluationRangeError, match="overflows on the grid"):
            verify_witness(CatalogSymbol("cos"), forged, grid, 1e-5)

    def test_nan_agreement_fails(self, monkeypatch):
        spec, report = CatalogSymbol("exp-quadratic"), fixture_report("multi-20-11-01")
        assert verify_witness(spec, report, DiskGrid(), 1e-5)[0]
        failed = failed_checks(monkeypatch)
        # check (a): a NaN coefficient in phi's series
        series = to_taylor(spec, dynamics.SERIES_DEGREE)
        with monkeypatch.context() as patch:
            nan_series = np.concatenate([[math.nan], series[1:]])
            patch.setattr(dynamics, "to_taylor", lambda *args, **kwargs: nan_series)
            assert not verify_witness(spec, report, DiskGrid(), 1e-5)[0]
        assert failed == {"series"}
        # check (b): a NaN image at q = 1, which no residual reads
        failed.clear()
        image = _Diagonal.image

        def nan_at_one(self, f, q):
            return image(self, f, q) * (math.nan if q == 1 else 1)

        monkeypatch.setattr(_Diagonal, "image", nan_at_one)
        assert not verify_witness(spec, report, DiskGrid(), 1e-5)[0]
        assert failed == {"power"}

    def test_overflowing_series_fails_without_a_warning(self, monkeypatch):
        spec = CatalogSymbol("exp-quadratic")
        f = ExpPoly.of([(1e308, 0.5j)])  # |phi(0.5i)| = e^-0.25
        phi = {0.5j: eval_symbol(spec, 0.5j)}
        # check (b): c phi exp(l z) overflows on the grid at q = 1, while the
        # image at q = 8 stays finite
        diagonal = _Diagonal(spec, DiskGrid())
        assert distance(diagonal, f, 8, ExpPoly.zero()) < math.inf
        for q, passes in ((8, True), (1, False)):
            image = diagonal.image([f], q)
            assert dynamics._power_check(f, phi, [q], image, diagonal.points) is passes
        # check (a): sum |a_n| R^n of phi's series overflows
        assert dynamics._series_check(spec, [f])[0]
        huge = np.array([1.0] + [0.0] * 99 + [1e300], dtype=complex)
        monkeypatch.setattr(dynamics, "to_taylor", lambda *args, **kwargs: huge)
        assert not dynamics._series_check(spec, [f])[0]

    @pytest.mark.parametrize("q", [0, -1])
    def test_q_below_one_fails_before_any_image(self, q, monkeypatch):
        # phi(D)**0 is the identity: with its own monomials as targets, any
        # generator has residual 0 at q = 0
        spec, report = CatalogSymbol("exp-quadratic"), fixture_report("single-m2")
        f = report.generators[0]
        targets = {(1,): f, (2,): mul_exppoly(f, f)}
        report = dataclasses.replace(report, q=q, targets=targets)

        def no_kernel(*args, **kwargs):
            raise AssertionError("the diagonal kernel was called")

        monkeypatch.setattr(_Diagonal, "images", no_kernel)
        passed, trace, skipped = verify_witness(spec, report, DiskGrid(), 1e-6)
        assert (passed, trace, list(skipped)) == (False, (), ["q"])
        assert f"q = {q} is below 1" in skipped["q"]

    @pytest.mark.parametrize("q", [0, 8])
    def test_zero_targets_fail_before_any_image(self, q, monkeypatch):
        # a report with every target zero fails before any image is taken;
        # a report with q < 1 as well fails the q check, which comes first
        spec, report = CatalogSymbol("exp-quadratic"), fixture_report("single-m2")
        zero = {(1,): ExpPoly.zero(), (2,): ExpPoly.zero()}
        report = dataclasses.replace(report, q=q, targets=zero)

        def no_kernel(*args, **kwargs):
            raise AssertionError("the diagonal kernel was called")

        monkeypatch.setattr(_Diagonal, "images", no_kernel)
        passed, trace, skipped = verify_witness(spec, report, DiskGrid(), 1e-6)
        failed = "q" if q < 1 else "target"
        assert (passed, trace, list(skipped)) == (False, (), [failed])

    @pytest.mark.parametrize(
        "edit, failed", [({"q": 0}, "q"), ({"targets": {}}, "target")]
    )
    def test_q_and_target_checks_come_before_the_monomials(self, edit, failed):
        # f**2 of a generator with a coefficient of 1e200 overflows; a report
        # that fails the q or the target check must not multiply it out
        payload = json.loads((DATA / "single-m2.json").read_text())
        payload["generators"][0][0][0] = [1e200, 0.0]
        report = WitnessReport.from_dict({**payload, **edit})
        spec = CatalogSymbol("exp-quadratic")
        passed, trace, skipped = verify_witness(spec, report, DiskGrid(), 1e-6)
        assert (passed, trace, list(skipped)) == (False, (), [failed])

    def test_trace_is_the_worst_residual_per_iterate_count(self):
        spec, report = CatalogSymbol("exp-quadratic"), fixture_report("multi-20-11-01")
        grid = DiskGrid()
        passed, trace, _ = verify_witness(spec, report, grid, 1e-5)
        powers = dynamics._monomials(list(report.generators), report.monomials)
        targets = [report.targets.get(alpha, ExpPoly.zero()) for alpha in report.monomials]
        want = [
            (q, max(
                reference.diagonal_residual(spec, f, q, target, grid)
                for f, target in zip(powers, targets)
            ))
            for q in (report.q // 4, report.q // 2, report.q)
        ]
        assert passed
        assert [(q, r.hex()) for q, r in trace] == [(q, r.hex()) for q, r in want]


def failed_checks(monkeypatch) -> set:
    """The names of the checks of ``verify_witness`` that return False:
    "series" for check (a), "power" for check (b)."""
    failed = set()

    def recorded(name, check):
        def wrapper(*args):
            result = check(*args)
            if not (result[0] if name == "series" else result):
                failed.add(name)
            return result

        return wrapper

    for name, attr in (("series", "_series_check"), ("power", "_power_check")):
        monkeypatch.setattr(dynamics, attr, recorded(name, getattr(dynamics, attr)))
    return failed


def mutated(fn, edits):
    """``fn`` recompiled from its source with each ``(old, new)`` of
    ``edits`` applied; each ``old`` must occur exactly once."""
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = {}
    exec(source, dict(fn.__globals__), namespace)
    return namespace[fn.__name__]


#: Source mutations of ``_Diagonal._coefficients``, the per-pair half of the
#: batched kernel ``_Diagonal.images``, each caught by check (b).
IMAGE_MUTANTS = {
    "power-q+1": [
        ("log_mag = q * polar[0]", "log_mag = (q + 1) * polar[0]"),
        ("log_mag, q * polar[1]", "log_mag, (q + 1) * polar[1]"),
    ],
    "negated-phase": [("log_mag, q * polar[1]", "log_mag, -q * polar[1]")],
    "last-term-dropped": [("zip(f.terms, self._polar", "zip(f.terms[:-1], self._polar")],
    "conjugated-row": [
        ("np.multiply.outer(table, self", "np.multiply.outer(table.conj(), self")
    ],
    # phi of the first frequency tuple this evaluator saw, for every monomial
    "phi-of-wrong-tuple": [
        ("self._polar[freqs])", "next(iter(self._polar.values())))")
    ],
}

#: The fixture reports the mutants must fail, with their symbols.
MUTANT_FIXTURES = {
    "single-m2": CatalogSymbol("exp-quadratic"),
    "single-m4-scale1.3": CatalogSymbol("exp-quadratic", scale=1.3),
    "multi-20-11-01": CatalogSymbol("exp-quadratic"),
}


class TestVerifyChecks:
    """Checks (a) and (b) of ``verify_witness`` reject every mutant of the
    diagonal path.  The residual test is switched off (epsilon = inf), so
    only the two checks can reject, and each mutant names the one that
    does."""

    @pytest.mark.parametrize("name", sorted(MUTANT_FIXTURES))
    def test_unmutated_reports_pass_both_checks(self, name, monkeypatch):
        failed = failed_checks(monkeypatch)
        spec, report = MUTANT_FIXTURES[name], fixture_report(name)
        assert verify_witness(spec, report, DiskGrid(), math.inf)[0]
        assert failed == set()

    @pytest.mark.parametrize("name", sorted(MUTANT_FIXTURES))
    @pytest.mark.parametrize("mutant", sorted(IMAGE_MUTANTS))
    def test_image_mutant_fails_the_power_check(self, mutant, name, monkeypatch):
        mutant = mutated(_Diagonal._coefficients, IMAGE_MUTANTS[mutant])
        monkeypatch.setattr(_Diagonal, "_coefficients", mutant)
        failed = failed_checks(monkeypatch)
        spec, report = MUTANT_FIXTURES[name], fixture_report(name)
        assert not verify_witness(spec, report, DiskGrid(), math.inf)[0]
        assert failed == {"power"}

    @pytest.mark.parametrize("name", sorted(MUTANT_FIXTURES))
    def test_non_analytic_phi_fails_the_series_check(self, name, monkeypatch):
        # conj(phi(z)) everywhere, phi's contour series included: the series
        # of a non-analytic function does not sum to its values
        def conjugated(spec, zs):
            return np.conj(eval_symbol_array(spec, zs))

        monkeypatch.setattr(symbols, "eval_symbol_array", conjugated)
        monkeypatch.setattr(dynamics, "eval_symbol_array", conjugated)
        failed = failed_checks(monkeypatch)
        spec, report = MUTANT_FIXTURES[name], fixture_report(name)
        assert not verify_witness(spec, report, DiskGrid(), math.inf)[0]
        assert failed == {"series"}

    def test_series_check_holds_no_dft_matrix(self):
        # check (a)'s degree-150 series comes from an FFT, not from
        # 151 x 604 and 151 x 1208 cached DFT matrices
        _dft_phases.cache_clear()
        for name, spec in MUTANT_FIXTURES.items():
            assert verify_witness(spec, fixture_report(name), DiskGrid(), 1e-5)[0]
        assert _dft_phases.cache_info().currsize == 0

    @pytest.mark.parametrize("name", sorted(MUTANT_FIXTURES))
    def test_series_check_error_is_roundoff(self, name):
        # check (a) allows SERIES_CHECK_C = 1024 u sum |a_n| R**n; the FFT
        # series stays within 64
        spec, report = MUTANT_FIXTURES[name], fixture_report(name)
        powers = dynamics._monomials(list(report.generators), report.monomials)
        freqs = list(dict.fromkeys(l for f in powers for l in f.frequencies()))
        radius = max(2.0, 1.25 * max(map(abs, freqs)))
        coeffs = to_taylor(spec, dynamics.SERIES_DEGREE, radius)
        size = np.abs(coeffs) @ radius ** np.arange(coeffs.size)
        series = np.vander(np.array(freqs), coeffs.size, increasing=True) @ coeffs
        error = np.max(np.abs(series - eval_symbol_array(spec, freqs)))
        assert error <= 64 * dynamics.UNIT_ROUNDOFF * size

    @staticmethod
    def series_skipped(spec, report) -> bool:
        return "series" in verify_witness(spec, report, DiskGrid(), math.inf)[2]

    def test_coarse_estimate_mutant_is_caught(self, monkeypatch):
        # exp-quadratic's default m = 6 report: phi's series does not
        # converge on its circle, so check (a) is skipped.  A to_taylor whose
        # coarse estimate is the fine one can never fail the convergence
        # test, and the report stops naming check (a) as skipped.
        spec = CatalogSymbol("exp-quadratic")
        built = run({"command": "witness", "symbol": to_json_value(spec), "m": 6})
        report = WitnessReport.from_dict(built["outcome"]["witness"])
        assert self.series_skipped(spec, report)
        mutant = mutated(symbols.to_taylor, [("(head + folded) / scale", "head / scale")])
        monkeypatch.setattr(dynamics, "to_taylor", mutant)
        assert not self.series_skipped(spec, report)

    def test_exp_quadratic_m4_report_verifies(self):
        # f^4 reaches |l| = 2.6, where phi's series needs more than 60 terms
        report = fixture_report("single-m4-scale1.3")
        spec = CatalogSymbol("exp-quadratic", scale=1.3)
        assert verify_witness(spec, report, DiskGrid(), 1e-5)[0] is True


def reference_monomial(gens, alpha) -> ExpPoly:
    """The monomial from scratch: ``pow_exppoly`` of each nonzero factor,
    folded with ``mul_exppoly`` from the first."""
    factors = [pow_exppoly(g, a) for g, a in zip(gens, alpha) if a]
    out = factors[0] if factors else ExpPoly.one()
    for factor in factors[1:]:
        out = mul_exppoly(out, factor)
    return out


#: The exponent sets of the benchmark's witness workload.
WITNESS_EXPONENT_SETS = (
    ((2, 0), (1, 1), (0, 1)),
    ((1, 0), (0, 1)),
    ((2, 0), (0, 2), (1, 1)),
    ((1, 1), (1, 0)),
    ((2,), (1,)),
    ((3,), (1,)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((2, 1), (0, 1)),
)


class TestMonomials:
    """One power table per generator: bit for bit the from-scratch products."""

    @staticmethod
    def generators(n, terms=4):
        rng = np.random.default_rng(n)
        gens = []
        for _ in range(n):
            c = rng.normal(size=terms) + 1j * rng.normal(size=terms)
            # frequencies 0, 1, 2, ...: a product merges many terms at each
            # frequency, so the order of every fold shows in the last bits
            gens.append(ExpPoly.of(zip(c.tolist(), range(terms))))
        return gens

    def check(self, gens, alphas):
        got = dynamics._monomials(gens, alphas)
        want = [reference_monomial(gens, alpha) for alpha in alphas]
        assert [term_bits(f) for f in got] == [term_bits(f) for f in want]

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_single_generator_powers(self, m):
        self.check(self.generators(1), [(j,) for j in range(1, m + 1)])

    @pytest.mark.parametrize("exponents", WITNESS_EXPONENT_SETS)
    def test_witness_exponent_sets(self, exponents):
        self.check(self.generators(len(exponents[0])), list(exponents))

    def test_zero_tuple_is_one(self):
        assert dynamics._monomials(self.generators(2), [(0, 0)]) == [ExpPoly.one()]

    def test_powers_take_one_product_each(self, monkeypatch):
        calls = []

        def counting(f, g):
            calls.append(1)
            return mul_exppoly(f, g)

        monkeypatch.setattr(dynamics, "mul_exppoly", counting)
        dynamics._monomials(self.generators(1), [(j,) for j in range(1, 6)])
        assert len(calls) == 4  # f^2, ..., f^5 (from scratch: 1 + 2 + 3 + 4)

    @pytest.mark.parametrize("alpha", [(1,), (1, 2, 3), (1, -1)])
    def test_malformed_exponents_raise(self, alpha):
        with pytest.raises(ValueError):
            dynamics._monomials(self.generators(2), [alpha])


class TestSupDistance:
    def test_zero_for_identical_functions(self):
        f = ExpPoly.of([(1.0, 1.0j)])
        assert sup_distance(f, f, GRID) == 0.0

    def test_constant_offset(self):
        f = ExpPoly.of([(1.0, 0.0)])
        g = ExpPoly.of([(3.0, 0.0)])
        assert sup_distance(f, g, GRID) == pytest.approx(2.0)

    @given(exppolys(max_terms=2), exppolys(max_terms=2), exppolys(max_terms=2))
    @settings(deadline=None, max_examples=30)
    def test_triangle_inequality(self, f, g, h):
        d_fg = sup_distance(f, g, GRID)
        d_gh = sup_distance(g, h, GRID)
        d_fh = sup_distance(f, h, GRID)
        assert d_fh <= d_fg + d_gh + 1e-9


class TestDiagonalResidual:
    """One evaluator per (symbol, grid), shared by every monomial, target and
    iterate count: bit for bit the per-monomial residual."""

    GRID = DiskGrid(3.0)

    @staticmethod
    def random_exppoly(rng, size, scale=1.0):
        c = rng.normal(size=size) + 1j * rng.normal(size=size)
        l = scale * (rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size))
        return ExpPoly.of(zip(c.tolist(), l.tolist()))

    @staticmethod
    def unbatched(spec, f, q, target, grid):
        return sup_distance(apply_symbol_power(spec, f, q), target, grid)

    @pytest.mark.parametrize("name", sorted(TestBatchedDiagonalAction.SPECS))
    def test_matches_sup_distance_of_the_power(self, name):
        spec = TestBatchedDiagonalAction.SPECS[name]
        rng = np.random.default_rng(len(name))
        diagonal = _Diagonal(spec, self.GRID)
        for size in (1, 4, 12):
            target = self.random_exppoly(rng, 2)
            f = self.random_exppoly(rng, size) + ExpPoly.of([(2.0, 0.0)])
            # the same frequencies with new coefficients reuse phi
            g = ExpPoly(tuple((2 * c + 1j, l) for c, l in f.terms))
            for h in (f, g):
                for q in (0, 1, 7, 2**10, 2**20):
                    try:
                        want = self.unbatched(spec, h, q, target, self.GRID)
                    except EvaluationRangeError as exc:
                        with pytest.raises(
                            EvaluationRangeError, match=re.escape(str(exc))
                        ):
                            distance(diagonal, h, q, target)
                        continue
                    got = distance(diagonal, h, q, target)
                    assert got.hex() == want.hex()
                    parent = reference.diagonal_residual(spec, h, q, target, self.GRID)
                    assert got.hex() == parent.hex()

    def test_taylor_target_matches_sup_distance(self):
        # a target is anything with evaluate_array, a truncated Taylor
        # series too
        spec = CatalogSymbol("exp-quadratic")
        rng = np.random.default_rng(7)
        f = self.random_exppoly(rng, 5)
        oracle = TaylorPoly.from_exppoly(self.random_exppoly(rng, 3), 40)
        grid = DiskGrid(0.5)
        diagonal = _Diagonal(spec, grid)
        for q in (1, 8, 32):
            want = sup_distance(apply_symbol_power(spec, f, q), oracle, grid)
            assert distance(diagonal, f, q, oracle).hex() == want.hex()

    @pytest.mark.parametrize("q", [0, 3])
    def test_zero_eigenvalue(self, q):
        f = ExpPoly.of([(1.0, 1.0), (1.0, 0.0), (0.5j, -0.25)])
        target = ExpPoly.of([(1.0, 0.0)])
        got = distance(_Diagonal(VANISHING, self.GRID), f, q, target)
        want = self.unbatched(VANISHING, f, q, target, self.GRID)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize(
        "terms, target, q",
        [
            # |phi|^q overflows
            ([POWER_OVERFLOW], [(1.0, 0.5)], 2**20),
            # phi itself overflows: the batched evaluation is not kept
            ([EVAL_OVERFLOW, (1.0, 0.5)], [(1.0, 0.5)], 1),
            ([POWER_OVERFLOW, EVAL_OVERFLOW], [(1.0, 0.5)], 2**20),
            # exp(l z) overflows on the grid, in the image or in the target
            ([(1.0, 300.0), (1.0, 0.5)], [(1.0, 0.5)], 1),
            ([(1.0, 0.5)], [(1.0, 300.0)], 1),
        ],
    )
    def test_overflow_raises_the_unbatched_error(self, terms, target, q):
        spec = CatalogSymbol("cos")
        f, target = ExpPoly.of(terms), ExpPoly.of(target)
        with pytest.raises(EvaluationRangeError) as want:
            self.unbatched(spec, f, q, target, self.GRID)
        diagonal = _Diagonal(spec, self.GRID)
        for _ in range(2):  # a failed call leaves nothing behind
            with pytest.raises(EvaluationRangeError) as got:
                distance(diagonal, f, q, target)
            assert str(got.value) == str(want.value)

    def test_one_evaluation_per_frequency_set(self, monkeypatch):
        calls = counting_evaluations(monkeypatch)
        spec = CatalogSymbol("exp-quadratic")
        f = ExpPoly.of([(1.0, 0.1 * k + 0.2j) for k in range(9)])
        diagonal = _Diagonal(spec, self.GRID)
        for q in (8, 16, 32, 64):
            g = ExpPoly(tuple((q * c, l) for c, l in f.terms))
            distance(diagonal, g, q, ExpPoly.zero())
        assert calls == [9]
        distance(diagonal, ExpPoly.of(f.terms[:4]), 8, ExpPoly.one())
        assert calls == [9, 4]
        # also when phi overflows at one of the frequencies; a set that
        # raises is not kept, so each call evaluates it anew
        diagonal = _Diagonal(CatalogSymbol("cos"), self.GRID)
        f = ExpPoly.of([EVAL_OVERFLOW, (1.0, 0.5)])
        for q in (1, 2):
            with pytest.raises(EvaluationRangeError):
                distance(diagonal, f, q, ExpPoly.zero())
        assert calls == [9, 4, 2, 2]

    def test_targets_are_evaluated_once(self, monkeypatch):
        evaluated = []
        spec = CatalogSymbol("cos")
        targets = [ExpPoly.of([(1.0, 0.5)]), ExpPoly.of([(2.0, -0.5j)])]
        diagonal = _Diagonal(spec, self.GRID)
        evaluate = ExpPoly.evaluate_array

        def recorded(self, zs):
            evaluated.append(self)
            return evaluate(self, zs)

        monkeypatch.setattr(ExpPoly, "evaluate_array", recorded)
        f = ExpPoly.of([(1.0, 0.25), (0.5, 1j)])
        for q in (1, 2, 4):
            for target in targets:
                want = reference.diagonal_residual(spec, f, q, target, self.GRID)
                evaluated.clear()
                assert distance(diagonal, f, q, target).hex() == want.hex()
                assert evaluated == ([target] if q == 1 else [])

    @pytest.mark.parametrize(
        "terms",
        [
            # each term is finite on the grid; their sum overflows to inf - inf
            [(1e300, 3 * math.pi), (-1e300, 3 * math.pi + 1e-3)],
            # c phi(l)^q itself overflows (|cos(2i)|^2 > 10)
            [(1e308, 2j)],
        ],
    )
    def test_image_not_finite_raises(self, terms):
        # without a numpy warning, which the test configuration makes an error
        diagonal = _Diagonal(CatalogSymbol("cos"), self.GRID)
        with pytest.raises(EvaluationRangeError, match="overflows on the grid"):
            distance(diagonal, ExpPoly.of(terms), 2, ExpPoly.zero())

    def test_target_not_finite_raises(self):
        diagonal = _Diagonal(CatalogSymbol("cos"), self.GRID)
        target = ExpPoly.of([(1e300, 3 * math.pi), (-1e300, 3 * math.pi + 1e-3)])
        with pytest.raises(EvaluationRangeError, match="overflows on the grid"):
            distance(diagonal, ExpPoly.one(), 1, target)


class TestBatchedKernel:
    """Several sums through one kernel call: each row, and each distance,
    bit for bit the one-monomial reference."""

    GRID = DiskGrid(3.0)

    @staticmethod
    def assert_matches_reference(spec, fs, q, targets, grid):
        diagonal = _Diagonal(spec, grid)
        for f in fs:  # the first sum that fails decides the error
            try:
                reference.diagonal_image(spec, f, q, grid)
            except EvaluationRangeError as exc:
                with pytest.raises(EvaluationRangeError, match=re.escape(str(exc))):
                    distances(diagonal, fs, q, targets)
                return
        images, dists = distances(diagonal, fs, q, targets)
        assert images.shape == (len(fs), grid.points().size)
        for f, target, image, dist in zip(fs, targets, images, dists):
            want = reference.diagonal_image(spec, f, q, grid)
            assert image.tobytes() == want.tobytes()
            assert dist.hex() == reference.diagonal_residual(spec, f, q, target, grid).hex()

    @pytest.mark.parametrize("q", [0, 1, 7, 2**10, 2**20])
    @pytest.mark.parametrize("name", sorted(TestBatchedDiagonalAction.SPECS))
    def test_unequal_term_counts(self, name, q):
        spec = TestBatchedDiagonalAction.SPECS[name]
        rng = np.random.default_rng(len(name) + q)
        # short sums beside long ones, and the zero sum, pad with zeros
        fs = [
            TestDiagonalResidual.random_exppoly(rng, size, scale=0.5)
            for size in (3, 1, 12, 5)
        ] + [ExpPoly.zero()]
        targets = [TestDiagonalResidual.random_exppoly(rng, 2) for _ in fs]
        self.assert_matches_reference(spec, fs, q, targets, self.GRID)

    @pytest.mark.parametrize("q", [0, 3])
    def test_zero_eigenvalue(self, q):
        # phi(0) = 0: the term at frequency 0 is kept at q = 0 and dropped
        # after, in whichever sum it stands
        fs = [
            ExpPoly.of([(1.0, 1.0), (0.5j, -0.25)]),
            ExpPoly.of([(1.0, 1.0), (1.0, 0.0), (0.5j, -0.25)]),
            ExpPoly.of([(2.0 - 1j, 0.0)]),
        ]
        targets = [ExpPoly.of([(1.0, 0.0)])] * len(fs)
        self.assert_matches_reference(VANISHING, fs, q, targets, self.GRID)

    def test_underflowed_power_needs_no_row(self):
        # |cos(300)|^1024 underflows to 0, and exp(300 z) overflows on the
        # grid: the row is read only at a q where the power is nonzero
        spec = CatalogSymbol("cos")
        fs = [
            ExpPoly.of([(1.0, 0.5), (2.0, 1j)]),
            ExpPoly.of([(1.0, 300.0), (1.0, 0.5)]),
        ]
        targets = [ExpPoly.of([(1.0, 0.5)])] * len(fs)
        self.assert_matches_reference(spec, fs, 2**10, targets, self.GRID)
        with pytest.raises(EvaluationRangeError) as want:
            reference.diagonal_residual(spec, fs[1], 1, targets[1], self.GRID)
        diagonal = _Diagonal(spec, self.GRID)
        for q in (2**10, 1, 2**10):  # the same stack serves every q
            if q == 1:
                with pytest.raises(EvaluationRangeError) as got:
                    distances(diagonal, fs, q, targets)
                assert str(got.value) == str(want.value)
            else:
                assert distances(diagonal, fs, q, targets)[1][1] < math.inf

    def assert_qs_match_one_call_each(self, spec, fs, qs, targets):
        """Sums at several iterate counts through one call, against one
        call per iterate count: the images and distances bit for bit, or
        the first error."""
        diagonal, want = _Diagonal(spec, self.GRID), []
        try:
            for q in qs:
                want.append(distances(diagonal, fs, q, targets))
        except EvaluationRangeError as exc:
            with pytest.raises(EvaluationRangeError, match=re.escape(str(exc))):
                _Diagonal(spec, self.GRID).images(fs, qs, targets)
            return
        images, dists = _Diagonal(spec, self.GRID).images(fs, qs, targets)
        assert images.tobytes() == np.array([image for image, _ in want]).tobytes()
        assert [list(map(float.hex, row)) for row in dists] == [
            list(map(float.hex, row)) for _, row in want
        ]

    @pytest.mark.parametrize("name", sorted(TestBatchedDiagonalAction.SPECS))
    def test_pairs_match_one_call_each(self, name):
        spec = TestBatchedDiagonalAction.SPECS[name]
        rng = np.random.default_rng(len(name))
        fs = [TestDiagonalResidual.random_exppoly(rng, size, scale=0.5) for size in (3, 1, 6)]
        gs = [TestDiagonalResidual.random_exppoly(rng, size, scale=0.5) for size in (2, 4, 1)]
        targets = [TestDiagonalResidual.random_exppoly(rng, 2) for _ in fs]
        # iterate counts in and out of order, 0 and the cap among them
        self.assert_qs_match_one_call_each(spec, fs, [1, 7, 2**10, 0], targets)
        self.assert_qs_match_one_call_each(spec, gs, [7, 2**20, 3], targets)

    def test_an_earlier_pairs_distance_raises_first(self):
        # the image of 1e308 e^{z/2} at q = 1 overflows on the grid; at
        # q = 2**20 the power of the other term overflows
        spec, target = CatalogSymbol("cos"), [ExpPoly.zero()]
        fs = [ExpPoly.of([(1e308, 0.5), POWER_OVERFLOW])]
        qs = [1, 2**20]
        self.assert_qs_match_one_call_each(spec, fs, qs, target)
        with pytest.raises(EvaluationRangeError, match=r"\^1 f - target"):
            _Diagonal(spec, self.GRID).images(fs, qs, target)
        # with no targets, and with the power first, the power raises
        for qs, targets in ((qs, None), (qs[::-1], target)):
            with pytest.raises(EvaluationRangeError, match=r"\|\^1048576 overflows"):
                _Diagonal(spec, self.GRID).images(fs, qs, targets)

    def test_errors_of_the_first_failing_sum(self):
        # phi overflows in the second sum, a power in the third: the kernel
        # takes the sums in order
        spec = CatalogSymbol("cos")
        fine = ExpPoly.of([(1.0, 0.5)])
        fs = [fine, ExpPoly.of([EVAL_OVERFLOW]), ExpPoly.of([POWER_OVERFLOW])]
        diagonal = _Diagonal(spec, self.GRID)
        for first, second in ((1, 2), (2, 1)):
            with pytest.raises(EvaluationRangeError) as want:
                reference.diagonal_image(spec, fs[first], 2**20, self.GRID)
            with pytest.raises(EvaluationRangeError) as got:
                diagonal.image([fs[0], fs[first], fs[second]], 2**20)
            assert str(got.value) == str(want.value)
        assert "^1048576" in str(got.value)
