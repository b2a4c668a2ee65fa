"""Diagonal operator action versus the coefficient-space oracle."""

import cmath
import math
import re

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
    OrbitTrace,
    TaylorPoly,
    apply_symbol,
    apply_symbol_power,
    apply_symbol_taylor,
    eval_symbol,
    sup_distance,
    to_taylor,
)
from hyperalg import dynamics, symbols
from hyperalg.dynamics import (
    TAYLOR_GUARD,
    _DiagonalResidual,
    _power_from_squarings,
    taylor_mul_trunc,
    taylor_pow_trunc,
)
from hyperalg.errors import EvaluationRangeError, OracleInputError
from hyperalg.symbols import (
    _contour_coeffs,
    _dft_phases,
    eval_symbol_array,
    eval_symbol_masked,
)

GRID = DiskGrid(radius=1.0, samples=32, circles=3)


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


class TestTruncatedArithmetic:
    def test_mul_matches_numpy_polymul(self):
        a = TaylorPoly.of([1, 2, 3], cap=8)
        b = TaylorPoly.of([4, 0, 1], cap=8)
        out = taylor_mul_trunc(a, b, 8)
        expected = np.polymul([3, 2, 1], [1, 0, 4])[::-1]
        for k, c in enumerate(expected):
            assert out.coeffs[k] == pytest.approx(complex(c))

    def test_truncation_is_stable_under_cap(self):
        a = TaylorPoly.of([1.0, 1.0], cap=12)
        full = taylor_pow_trunc(a, 6, 12)
        short = taylor_pow_trunc(a, 6, 4)
        assert full.coeffs[:5] == short.coeffs[:5]

    def test_pow_reproduces_binomials(self):
        a = TaylorPoly.of([1.0, 1.0], cap=6)
        out = taylor_pow_trunc(a, 5, 6)
        for k in range(6):
            assert out.coeffs[k] == pytest.approx(math.comb(5, k))


class TestCoefficientOracle:
    def test_identity_symbol_with_unit_series(self):
        phi = TaylorPoly.of([1.0])  # multiplication by 1
        f = TaylorPoly.from_exppoly(ExpPoly.of([(1.0, 1.0)]), 80)
        out = apply_symbol_taylor(phi, f, 60)
        assert out.coeffs == f.coeffs[:61]

    def test_derivative_shifts_coefficients(self):
        phi = TaylorPoly.of([0.0, 1.0])  # the bare derivative
        f = TaylorPoly.from_exppoly(ExpPoly.of([(1.0, 2.0)]), 80)
        out = apply_symbol_taylor(phi, f, 60)
        z = 0.4 + 0.1j
        assert out.evaluate(z) == pytest.approx(
            2.0 * complex(np.exp(2.0 * z)), rel=1e-10
        )

    def test_guard_band_enforced(self):
        phi = TaylorPoly.of([1.0])
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


def reference_mul_trunc(a: TaylorPoly, b: TaylorPoly, cap: int) -> TaylorPoly:
    """Scalar reference for ``taylor_mul_trunc``: a double loop over pairs."""
    coeffs = [0j] * (cap + 1)
    for i, ca in enumerate(a.coeffs):
        if i > cap:
            break
        for j, cb in enumerate(b.coeffs):
            if i + j > cap:
                break
            coeffs[i + j] += ca * cb
    return TaylorPoly(tuple(coeffs), cap)


def reference_apply_symbol_taylor(
    phi_taylor: TaylorPoly, f_taylor: TaylorPoly, K: int
) -> TaylorPoly:
    """Scalar reference for ``apply_symbol_taylor``: one running product
    ``(k+n)!/k!`` per output, cut at 1e300 or at the end of ``f``."""
    fs = f_taylor.coeffs
    out = []
    for k in range(K + 1):
        total = 0j
        perm = 1.0
        for n, a_n in enumerate(phi_taylor.coeffs):
            if k + n >= len(fs):
                break
            if n > 0:
                perm *= k + n
                if perm > 1e300:
                    break
            total += a_n * perm * fs[k + n]
        out.append(total)
    return TaylorPoly(tuple(out), K)


def random_taylor(rng, length, cap=None):
    coeffs = rng.uniform(-1, 1, length) + 1j * rng.uniform(-1, 1, length)
    return TaylorPoly(tuple(coeffs.tolist()), max(length - 1, 0) if cap is None else cap)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestVectorizedKernels:
    """The numpy kernels against scalar reference loops."""

    @pytest.mark.parametrize(
        "len_a, len_b", [(0, 5), (5, 0), (0, 0), (3, 4), (1, 12), (12, 7), (30, 40)]
    )
    def test_mul_matches_scalar_reference(self, len_a, len_b):
        rng = np.random.default_rng(1000 * len_a + len_b)
        cap = 10  # shorter than, equal to and longer than cap + 1 inputs
        a = random_taylor(rng, len_a, cap=max(len_a - 1, cap))
        b = random_taylor(rng, len_b, cap=max(len_b - 1, cap))
        out = taylor_mul_trunc(a, b, cap)
        ref = reference_mul_trunc(a, b, cap)
        assert out.cap == ref.cap and len(out.coeffs) == cap + 1
        assert all(isinstance(c, complex) for c in out.coeffs)
        np.testing.assert_allclose(out.coeffs, ref.coeffs, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "len_phi, extra, K", [(1, 0, 60), (7, 0, 60), (81, 0, 60), (40, 25, 10), (95, 3, 0)]
    )
    def test_apply_matches_scalar_reference(self, len_phi, extra, K):
        rng = np.random.default_rng(100 * len_phi + extra)
        phi = random_taylor(rng, len_phi)
        f = random_taylor(rng, K + TAYLOR_GUARD + 1 + extra)
        out = apply_symbol_taylor(phi, f, K)
        ref = reference_apply_symbol_taylor(phi, f, K)
        assert out.cap == K and len(out.coeffs) == K + 1
        assert all(isinstance(c, complex) for c in out.coeffs)
        np.testing.assert_allclose(out.coeffs, ref.coeffs, rtol=1e-12, atol=0)

    def test_apply_drops_the_same_terms_past_the_factorial_cutoff(self):
        # (k+n)!/k! passes 1e300 inside the first 300 orders for every k <= 60
        rng = np.random.default_rng(60)
        phi = random_taylor(rng, 300)
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
            got = _contour_coeffs(spec, center, n_max, radius, samples)
            assert np.array_equal(got, dense)

    def test_cached_phases_are_read_only(self):
        phases = _dft_phases(4, 16)
        assert phases is _dft_phases(4, 16)
        assert not phases.flags.writeable
        with pytest.raises(ValueError):
            phases[0, 0] = 0


def reference_apply_symbol_power(spec, f: ExpPoly, q: int) -> ExpPoly:
    """Scalar reference for ``apply_symbol_power``: one ``eval_symbol`` call
    per term, in term order."""
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


def reference_pow_trunc(a: TaylorPoly, n: int, cap: int) -> TaylorPoly:
    """Reference binary power: square and multiply in one loop."""
    result = TaylorPoly.of([1 + 0j], cap)
    base = TaylorPoly(a.coeffs[: cap + 1], cap)
    while n:
        if n & 1:
            result = taylor_mul_trunc(result, base, cap)
        n >>= 1
        if n:
            base = taylor_mul_trunc(base, base, cap)
    return result


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


def counting_masked(monkeypatch, module):
    """The point count of every :func:`eval_symbol_masked` call ``module``
    makes."""
    calls = []

    def counting(spec, zs):
        calls.append(np.size(zs))
        return eval_symbol_masked(spec, zs)

    monkeypatch.setattr(module, "eval_symbol_masked", counting)
    return calls


class TestBatchedDiagonalAction:
    """One evaluation per frequency set, bit for bit the scalar loop."""

    SPECS = {
        "cos": CatalogSymbol("cos"),
        "sin+exp": CatalogSymbol("sin+exp(-z)", scale=0.7),
        "exp-quadratic": CatalogSymbol("exp-quadratic", scale=1.3),
        "exppoly": ExpPolySymbol(ExpPoly.of([(0.6, 0.8j), (0.4, -0.8j)])),
        "hadamard": HadamardTrunc(0.2, 0j, (1.5, -1.5, 2.5j, -2.5j), 1, 4),
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
            # the power overflow comes first in term order, before the
            # term whose evaluation overflows
            ([POWER_OVERFLOW, EVAL_OVERFLOW], 2**20),
        ],
    )
    def test_overflow_raises_the_scalar_loop_error(self, terms, q):
        spec = CatalogSymbol("cos")
        f = ExpPoly.of(terms)
        with pytest.raises(EvaluationRangeError) as want:
            reference_apply_symbol_power(spec, f, q)
        with pytest.raises(EvaluationRangeError) as got:
            apply_symbol_power(spec, f, q)
        assert str(got.value) == str(want.value)

    def test_one_evaluation_per_call(self, monkeypatch):
        calls = counting_masked(monkeypatch, symbols)
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


class TestCrossCheckPowers:
    """The halvings of the reduced power share one set of squarings."""

    def test_powers_are_bitwise_the_fresh_binary_power(self):
        phi_t = to_taylor(CatalogSymbol("exp-quadratic", scale=1.2), 80)
        squares = []
        for n in (32, 16, 8, 4, 2, 1, 0, 37, 5, 64):
            want = bits(reference_pow_trunc(phi_t, n, 80).coeffs)
            assert bits(taylor_pow_trunc(phi_t, n, 80).coeffs) == want
            assert bits(taylor_pow_trunc(phi_t, n, 80, squares).coeffs) == want
            assert bits(_power_from_squarings(squares, n, 80).coeffs) == want
        assert len(squares) == 7  # a, a^2, ..., a^64

    def test_halvings_reuse_the_squarings(self, monkeypatch):
        # a coefficient of 1e6 keeps the condition sum above 1e4 at every
        # reduced power, so q_red halves from 32 down to 1
        counts = {"pow": 0, "mul": 0}

        def count(key, fn):
            def counted(*args):
                counts[key] += 1
                return fn(*args)

            return counted

        for key, name in (("pow", "taylor_pow_trunc"), ("mul", "taylor_mul_trunc")):
            monkeypatch.setattr(dynamics, name, count(key, getattr(dynamics, name)))
        f = ExpPoly.of([(1e6, 0.3)])
        dynamics._cross_check(CatalogSymbol("exp-quadratic"), f, 2**20, GRID)
        # 5 squarings for 32, then one product per power 32, 16, ..., 1
        # (a fresh binary power per halving takes 6 + 5 + ... + 1 = 21)
        assert counts == {"pow": 1, "mul": 11}


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


class TestOrbitTrace:
    def test_requires_increasing_iterates(self):
        with pytest.raises(ValueError):
            OrbitTrace(((8, 1.0), (8, 0.5)), "t", GRID)

    def test_csv_round_trip(self):
        trace = OrbitTrace(((8, 0.5), (16, 0.125)), "t", GRID)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "q,residual"
        assert lines[1].startswith("8,")
        assert float(lines[2].split(",")[1]) == 0.125


class TestDiagonalResidual:
    """One plan per monomial: bit for bit the unbatched residual."""

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
        for size in (1, 4, 12):
            target = self.random_exppoly(rng, 2)
            residual = _DiagonalResidual(spec, target, self.GRID)
            f = self.random_exppoly(rng, size) + ExpPoly.of([(2.0, 0.0)])
            # the same frequencies with new coefficients reuse the plan
            g = ExpPoly(tuple((2 * c + 1j, l) for c, l in f.terms))
            for h in (f, g):
                for q in (0, 1, 7, 2**10, 2**20):
                    try:
                        want = self.unbatched(spec, h, q, target, self.GRID)
                    except EvaluationRangeError as exc:
                        with pytest.raises(
                            EvaluationRangeError, match=re.escape(str(exc))
                        ):
                            residual(h, q)
                        continue
                    assert residual(h, q).hex() == want.hex()

    @pytest.mark.parametrize("q", [0, 3])
    def test_zero_eigenvalue(self, q):
        f = ExpPoly.of([(1.0, 1.0), (1.0, 0.0), (0.5j, -0.25)])
        target = ExpPoly.of([(1.0, 0.0)])
        got = _DiagonalResidual(VANISHING, target, self.GRID)(f, q)
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
        residual = _DiagonalResidual(spec, target, self.GRID)
        for _ in range(2):  # a failed call leaves nothing behind
            with pytest.raises(EvaluationRangeError) as got:
                residual(f, q)
            assert str(got.value) == str(want.value)

    def test_one_evaluation_per_frequency_set(self, monkeypatch):
        calls = counting_masked(monkeypatch, dynamics)
        spec = CatalogSymbol("exp-quadratic")
        f = ExpPoly.of([(1.0, 0.1 * k + 0.2j) for k in range(9)])
        residual = _DiagonalResidual(spec, ExpPoly.zero(), self.GRID)
        for q in (8, 16, 32, 64):
            residual(ExpPoly(tuple((q * c, l) for c, l in f.terms)), q)
        assert calls == [9]
        residual(ExpPoly.of(f.terms[:4]), 8)
        assert calls == [9, 4]
        # also when phi overflows at one of the frequencies
        residual = _DiagonalResidual(CatalogSymbol("cos"), ExpPoly.zero(), self.GRID)
        for q in (1, 2):
            with pytest.raises(EvaluationRangeError):
                residual(ExpPoly.of([EVAL_OVERFLOW, (1.0, 0.5)]), q)
        assert calls == [9, 4, 2]
