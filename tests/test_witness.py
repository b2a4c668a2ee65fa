"""Witness construction: coefficient equation, lattice bookkeeping and the
single- and multi-generator pipelines on fast configurations."""

import itertools
import json
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
    ExponentSet,
    PolyTimesExp,
    WitnessReport,
    construct_witness_T2,
    construct_witness_multi,
    default_multi_targets,
    default_targets_T2,
    derive_multi_params,
    derive_witness_params,
    eval_symbol,
    multinomial_gamma,
    select_weights,
    solve_coeff,
    verify_witness,
)
from hyperalg import dynamics, expansion, symbols, witness
from hyperalg.symbols import eval_symbol_array
from hyperalg.errors import (
    HyperalgError,
    HypothesisError,
    IterationLimitError,
    TargetPlacementError,
    ThetaMarginError,
)
import reference
from reference import apply_symbol_power, pow_exppoly, sup_distance

QUAD = CatalogSymbol("exp-quadratic")


class TestSolveCoeff:
    def test_simple_root(self):
        # c^2 * 4^1 = 1  =>  c = 1/2
        assert solve_coeff(1, 2, 4, 1) == pytest.approx(0.5)

    def test_round_trip(self):
        b, m, phi, n = 2 - 1j, 3, 1.5 + 0.5j, 64
        c = solve_coeff(b, m, phi, n)
        # reassemble in log space (the direct product overflows for large n)
        log_mag = m * math.log(abs(c)) + n * math.log(abs(phi))
        assert log_mag == pytest.approx(math.log(abs(b)), abs=1e-9)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=256),
        st.complex_numbers(
            min_magnitude=0.1, max_magnitude=5.0,
            allow_nan=False, allow_infinity=False,
        ),
    )
    @settings(deadline=None, max_examples=100)
    def test_strict_decay_in_n(self, m, n, b):
        phi = 2.0 + 1.0j  # |phi| > 1
        assert abs(solve_coeff(b, m, phi, n + 1)) < abs(solve_coeff(b, m, phi, n))

    def test_contracting_eigenvalue_rejected(self):
        with pytest.raises(HypothesisError):
            solve_coeff(1, 2, 0.5, 8)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            solve_coeff(0, 2, 4, 1)

    def test_underflowing_angle(self):
        # the argument of 2 + 5e-324j underflows, where cmath.phase raises
        assert solve_coeff(2 + 5e-324j, 1, 2 + 1j, 1) == pytest.approx(2 / (2 + 1j))


def single_keys(p, m):
    """The single builder's expansion keys as one-row (u, v) pairs: the
    counted ones of each power f^j, and the uncounted survivors."""
    keys = expansion._expansion_keys(
        [(j,) for j in range(1, m + 1)], (m,), p, lambda usum, v: 0
    )
    layers = {j: set() for j in range(1, m + 1)}
    survivors = set()
    for u, v, ell, alpha, _, counted in keys:
        assert len(u) == 1 and ell == ()
        (layers[alpha[0]] if counted else survivors).add((u[0], v))
    return layers, survivors


def reference_lattice(p, m):
    """The (u, v) lattice the single builder enumerated on its own before it
    shared the multi-generator keys: the total-degree-m layer minus the p
    survivors, and the full layers of degree 1..m-1."""

    def layer(n):
        return [(c[:p], c[p:]) for c in expansion._compositions(n, 2 * p)]

    survivors = {
        ((0,) * p, tuple(m if i == j else 0 for i in range(p))) for j in range(p)
    }
    return [t for t in layer(m) if t not in survivors], [layer(n) for n in range(1, m)]


class TestLattice:
    def test_one_term_square_expansion(self):
        layers, survivors = single_keys(1, 2)
        assert layers[2] == {((2,), (0,)), ((1,), (1,))}
        assert layers[1] == {((1,), (0,)), ((0,), (1,))}
        assert survivors == {((0,), (2,))}

    def test_two_term_counts(self):
        layers, survivors = single_keys(2, 2)
        # C(5, 3) = 10 degree-2 tuples minus the 2 survivors
        assert len(layers[2]) == 8
        assert len(layers[1]) == 4
        assert len(survivors) == 2

    def test_survivors_are_excluded(self):
        layers, survivors = single_keys(2, 3)
        assert ((0, 0), (3, 0)) not in layers[3]
        assert ((0, 0), (0, 3)) not in layers[3]
        assert survivors == {((0, 0), (3, 0)), ((0, 0), (0, 3))}

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_keys_match_the_reference_lattice(self, p, m):
        layers, survivors = single_keys(p, m)
        l_star, lower = reference_lattice(p, m)
        assert layers[m] == set(l_star) and len(l_star) == len(set(l_star))
        assert [layers[j] for j in range(1, m)] == [set(x) for x in lower]
        assert survivors == {
            ((0,) * p, tuple(m if i == j else 0 for i in range(p))) for j in range(p)
        }

    def test_gamma_specializations(self):
        a = (0.7 - 0.2j,)
        assert multinomial_gamma((0,), (2,), a) == pytest.approx(1.0)
        assert multinomial_gamma((1,), (1,), a) == pytest.approx(2 * a[0])
        assert multinomial_gamma((2,), (0,), a) == pytest.approx(a[0] ** 2)

    def test_gamma_matches_trinomial(self):
        a = (1.0, 1.0)
        total = sum(
            multinomial_gamma(u, v, a).real for u, v in single_keys(2, 3)[0][3]
        ) + 2  # add back the two survivors (weight 1 each)
        assert total == pytest.approx(4**3)  # (1+1+1+1)^3

    def test_survivor_ratio_is_exactly_one(self, single_report):
        survivors = [
            e for e in single_report.theta_table if sum(e.u) == 0 and sum(e.v) == 2
        ]
        assert survivors
        for entry in survivors:
            assert entry.theta == pytest.approx(1.0, abs=1e-12)
            assert entry.case == 1

    def test_case_tags(self, single_report):
        table = single_report.theta_table
        for entry in table:
            if sum(entry.u) >= 1:
                assert entry.case == 2
            elif sum(entry.v) < 2:
                assert entry.case == 3
        assert {entry.case for entry in table} == {1, 2, 3}


class TestWeights:
    def test_reference_exponent_set(self):
        A = ExponentSet.of([(2, 0), (1, 1), (0, 1)])
        k, beta, perm = select_weights(A)
        assert beta in A.exponents
        assert max(a[perm[0]] for a in A.exponents) == beta[perm[0]]

    def test_weights_separate_the_exponents(self):
        A = ExponentSet.of([(2, 0), (1, 1), (0, 1)])
        k, _, perm = select_weights(A)
        keys = {
            sum(w * a[p] for w, p in zip(k, perm)) for a in A.exponents
        }
        assert len(keys) == len(A.exponents)

    @given(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=6,
        ).filter(lambda s: any(a != (0, 0) for a in s))
    )
    @settings(deadline=None, max_examples=60)
    def test_weighted_sums_always_injective(self, exps):
        A = ExponentSet.of([a for a in exps if a != (0, 0)])
        k, beta, perm = select_weights(A)
        keys = [sum(w * a[p] for w, p in zip(k, perm)) for a in A.exponents]
        assert len(set(keys)) == len(keys)

    def test_unseparated_exponents_are_a_hypothesis_error(self):
        # ExponentSet.of drops repeats; built directly, a repeated tuple
        # gets the same weight as its twin
        with pytest.raises(HypothesisError):
            select_weights(ExponentSet(((1, 0), (1, 0))))

    def test_exponent_set_validation(self):
        with pytest.raises(ValueError):
            ExponentSet.of([(0, 0)])
        with pytest.raises(ValueError):
            ExponentSet.of([])


@pytest.fixture(scope="module")
def params():
    return derive_witness_params(QUAD, 2)


@pytest.fixture(scope="module")
def single_report(params):
    seed, target = default_targets_T2(params)
    return construct_witness_T2(QUAD, 2, seed, target, params=params)


@pytest.fixture(scope="module")
def multi_report():
    A = ExponentSet.of([(2, 0), (1, 1), (0, 1)])
    multi_params = derive_multi_params(QUAD, A)
    B, seeds = default_multi_targets(multi_params, A.n_generators)
    return construct_witness_multi(QUAD, A, B, seeds, params=multi_params), B


@pytest.fixture
def no_doubling(monkeypatch):
    """Fails a build that reaches its first doubling step."""

    def refuse(*args):
        raise AssertionError("the doubling started")

    monkeypatch.setattr(expansion, "solve_coeff", refuse)


def lattice(n_gen, d):
    """Every nonzero exponent tuple of ``n_gen`` generators of total <= d."""
    return [
        a for a in itertools.product(range(d + 1), repeat=n_gen)
        if 0 < sum(a) <= d
    ]


class TestSingleGenerator:

    def test_progression_memberships(self, params):
        for j in range(1, params.m + 1):
            assert abs(eval_symbol(QUAD, j * params.w)) < 1

    def test_survivor_frequency_grows(self, params):
        lo, hi = params.lambda_window
        for lam in (lo, hi, (lo + hi) / 2):
            assert abs(eval_symbol(QUAD, params.m * lam)) > 1

    def test_default_targets_are_admissible(self, params):
        seed, target = default_targets_T2(params)
        assert len(seed.terms) == len(target.terms) == 1
        assert abs(seed.terms[0][1] - params.w) <= params.delta
        ratio = target.terms[0][1] / params.w0
        assert abs(ratio.imag) < 1e-9 and 0.5 <= ratio.real <= 1.0

    def test_end_to_end(self, params):
        seed, target = default_targets_T2(params)
        report = construct_witness_T2(QUAD, 2, seed, target, params=params)
        assert all(r <= 1e-6 for r in report.residuals.values())
        assert report.bound_sum <= 1e-6
        survivors = {((0,), (2,))}
        for entry in report.theta_table:
            if (entry.u, entry.v) in survivors:
                assert entry.theta == pytest.approx(1.0, abs=1e-12)
            else:
                assert entry.theta <= 1 - 1e-4
        # the residual trace is what the constructor actually measured
        q, worst = report.trace[-1]
        assert q == report.q and worst <= 1e-6

    def test_report_survives_verification(self, params):
        seed, target = default_targets_T2(params)
        report = construct_witness_T2(QUAD, 2, seed, target, params=params)
        passed, *_ = verify_witness(QUAD, report, DiskGrid(3.0), 1e-6)
        assert passed

    def test_tampered_report_fails_verification(self, params):
        seed, target = default_targets_T2(params)
        report = construct_witness_T2(QUAD, 2, seed, target, params=params)
        import dataclasses

        tampered = dataclasses.replace(report, q=report.q // 2)
        passed, *_ = verify_witness(QUAD, tampered, DiskGrid(3.0), 1e-6)
        assert not passed

    @pytest.mark.parametrize("fields", [{"m": 0}, {"m": -1}, {"exponents": ()}])
    def test_report_without_monomials_is_rejected(self, params, fields):
        seed, target = default_targets_T2(params)
        report = construct_witness_T2(QUAD, 2, seed, target, params=params)
        import dataclasses

        with pytest.raises(ValueError, match="no monomial"):
            verify_witness(
                QUAD, dataclasses.replace(report, **fields), DiskGrid(3.0), 1e-6
            )

    def test_misplaced_target_rejected(self, params):
        seed, _ = default_targets_T2(params)
        for freq in (100.0, params.w0 * (1 + 1e-6)):
            bad_target = ExpPoly.of([(1.0, freq)])
            with pytest.raises(TargetPlacementError):
                construct_witness_T2(QUAD, 2, seed, bad_target, params=params)

    def test_mismatched_params_rejected(self, params):
        seed, target = default_targets_T2(params)
        with pytest.raises(ValueError, match="m = 2"):
            construct_witness_T2(QUAD, 3, seed, target, params=params)

    def test_report_records_the_build_settings(self, params):
        seed, target = default_targets_T2(params)
        grid = DiskGrid(3.0, samples=48)
        report = construct_witness_T2(
            QUAD, 2, seed, target, epsilon=1e-8, grid=grid, N_max=2**18,
            params=params,
        )
        assert report.params["epsilon"] == 1e-8
        assert report.params["grid"] == grid.to_dict()
        assert report.params["N_max"] == 2**18
        assert max(report.residuals.values()) <= 1e-8
        assert report.bound_sum <= 1e-8

    def test_term_above_epsilon_at_every_n_is_rejected_up_front(
        self, params, no_doubling
    ):
        # capped at N = 64, the pure survivor power of f (u = 0, v = (1,))
        # is smallest at the cap and still about 0.95
        seed, target = default_targets_T2(params)
        with pytest.raises(ThetaMarginError) as info:
            construct_witness_T2(QUAD, 2, seed, target, N_max=64, params=params)
        [entry] = info.value.entries
        assert set(entry) == {"alpha", "u", "v", "theta", "case", "bound", "n"}
        assert entry["alpha"] == (1,)
        assert entry["u"] == ((0,),)
        assert entry["v"] == (1,)
        assert entry["theta"] == pytest.approx(0.99646, abs=1e-5)
        assert entry["case"] == 3
        assert entry["bound"] == pytest.approx(0.953, abs=1e-3)
        assert entry["n"] == 64

    def test_three_targets_reach_the_iterate_cap(self, params):
        # every term is admitted; the residual falls to 0.23 at N = 2**15,
        # then the coefficient products underflow and it rises again
        seed, target = default_targets_T2(params, p=3)
        with pytest.raises(IterationLimitError) as info:
            construct_witness_T2(QUAD, 2, seed, target, params=params)
        trace = info.value.trace
        assert [q for q, _ in trace] == [2**j for j in range(3, 21)]
        q_best, r_best = min(trace, key=lambda row: row[1])
        assert q_best == 2**15 and r_best == pytest.approx(0.228, abs=1e-3)
        assert trace[-1][1] == pytest.approx(4.29, abs=0.01)

    def test_report_serializes(self, params):
        seed, target = default_targets_T2(params)
        report = construct_witness_T2(QUAD, 2, seed, target, params=params)
        payload = json.loads(report.to_json())
        assert payload["kind"] == "single"
        assert payload["q"] == report.q
        assert WitnessReport.from_dict(report.to_dict()).to_json() == report.to_json()
        assert WitnessReport.from_dict(payload).to_json() == report.to_json()

    def test_params_are_written_as_built(self, single_report):
        written = single_report.to_dict()["params"]
        assert json.dumps(single_report.params) == json.dumps(written)


class TestMultiGenerator:
    A = ExponentSet.of([(2, 0), (1, 1), (0, 1)])

    def test_residuals_within_tolerance(self, multi_report):
        rep, _ = multi_report
        assert all(r <= 1e-5 for r in rep.residuals.values())

    def test_survivor_coefficients_reproduce_target(self, multi_report):
        rep, B = multi_report
        values = [complex(re, im) for re, im in rep.params["survivor_values"]]
        for got, (want, _) in zip(values, B.terms):
            assert abs(got - want) / abs(want) < 1e-8

    def test_joint_power_reaches_target(self, multi_report):
        rep, B = multi_report
        f = ExpPoly.one()
        from hyperalg import mul_exppoly

        beta = rep.beta
        for g, e in zip(rep.generators, beta):
            f = mul_exppoly(f, pow_exppoly(g, int(e)))
        image = apply_symbol_power(QUAD, f, rep.q)
        grid = DiskGrid(radius=3.0)
        assert sup_distance(image, B, grid) <= 1e-5

    def test_off_target_powers_go_to_zero(self, multi_report):
        rep, _ = multi_report
        from hyperalg import mul_exppoly

        grid = DiskGrid(radius=3.0)
        for alpha in rep.exponents:
            if tuple(alpha) == tuple(rep.beta):
                continue
            f = ExpPoly.one()
            for g, e in zip(rep.generators, alpha):
                f = mul_exppoly(f, pow_exppoly(g, int(e)))
            image = apply_symbol_power(QUAD, f, rep.q)
            assert sup_distance(image, ExpPoly.zero(), grid) <= 1e-5

    def test_verification(self, multi_report):
        rep, _ = multi_report
        passed, *_ = verify_witness(QUAD, rep, DiskGrid(radius=3.0), 1e-5)
        assert passed

    def test_report_round_trips(self, multi_report):
        rep, _ = multi_report
        assert WitnessReport.from_dict(rep.to_dict()).to_json() == rep.to_json()
        payload = json.loads(rep.to_json())
        assert WitnessReport.from_dict(payload).to_json() == rep.to_json()

    def test_params_are_written_as_built(self, multi_report):
        rep, _ = multi_report
        assert json.dumps(rep.params) == json.dumps(rep.to_dict()["params"])

    @pytest.mark.parametrize(
        "fields",
        [
            {"q": 512.9},
            {"q": 512.0},
            {"q": True},
            {"m": 2.0},
            {"exponents": [[1.9, 0], [0, 1.2]]},
            {"exponents": [[1.0, 0.0], [0.0, 1.0]]},
        ],
        ids=["q-fraction", "q-float", "q-bool", "m-float", "exponents-fraction",
             "exponents-float"],
    )
    def test_non_integer_fields_rejected(self, multi_report, fields):
        rep, _ = multi_report
        with pytest.raises(TypeError, match="expected an integer"):
            WitnessReport.from_dict({**rep.to_dict(), **fields})

    def test_report_records_the_iterate_cap(self, multi_report):
        rep, _ = multi_report
        assert rep.params["N_max"] == witness.N_MAX_DEFAULT

    @pytest.mark.parametrize("name", ["exp-quadratic", "cos"])
    def test_degree_six_is_rejected_up_front(self, name, no_doubling):
        # the pure survivor powers contract too slowly to pass 1e-5 by 2**20
        spec, A = CatalogSymbol(name), ExponentSet.of(lattice(1, 6))
        params = derive_multi_params(spec, A)
        B, seeds = default_multi_targets(params, 1)
        with pytest.raises(ThetaMarginError) as info:
            construct_witness_multi(spec, A, B, seeds, params=params)
        assert info.value.entries
        for entry in info.value.entries:
            assert entry["bound"] > 1e-5
            assert entry["u"] == ((0,),) and entry["v"] == entry["alpha"]

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("n_gen", [1, 2])
    @pytest.mark.parametrize("name", ["exp-quadratic", "cos", "sinc-pi"])
    def test_lattices_up_to_degree_five_verify(self, name, n_gen, d):
        spec, A = CatalogSymbol(name), ExponentSet.of(lattice(n_gen, d))
        params = derive_multi_params(spec, A)
        B, seeds = default_multi_targets(params, n_gen)
        rep = construct_witness_multi(spec, A, B, seeds, params=params)
        assert max(rep.residuals.values()) <= 1e-5 and rep.bound_sum <= 1e-5
        passed, *_ = verify_witness(spec, rep, DiskGrid(), 1e-5)
        assert passed

    def test_coefficient_overflow_is_an_iteration_limit(self):
        # K_beta = 60, so n**K_beta leaves the double range at n = 2**18
        A = ExponentSet.of([(3, 3, 3)])
        params = derive_multi_params(QUAD, A)
        B, seeds = default_multi_targets(params, A.n_generators)
        with pytest.raises(IterationLimitError) as info:
            construct_witness_multi(QUAD, A, B, seeds, params=params)
        assert [q for q, _ in info.value.trace] == [2**j for j in range(3, 18)]

    def test_same_ray_symbol(self):
        spec = PolyTimesExp(poly=(1, 1, 1), a=1)
        params = derive_multi_params(spec, self.A)
        assert params.same_ray
        B, seeds = default_multi_targets(params, self.A.n_generators)
        rep = construct_witness_multi(spec, self.A, B, seeds, params=params)
        assert all(r <= 1e-5 for r in rep.residuals.values())

    def test_zero_target_rejected(self):
        # like the single builder, before any expansion key is built
        with pytest.raises(TargetPlacementError, match="target must be nonzero"):
            construct_witness_multi(
                QUAD, ExponentSet.of([(1, 0), (0, 1)]), ExpPoly.zero()
            )

    def test_mismatched_params_rejected(self):
        # windows derived for m = 1, d_A = 1 would fail late, with |phi|^N
        # overflowing at the first iterate counts
        params = derive_multi_params(QUAD, ExponentSet.of([(1, 0), (0, 1)]))
        B, seeds = default_multi_targets(params, self.A.n_generators)
        with pytest.raises(ValueError, match="m = 1, d_A = 1, not m = 2, d_A = 2"):
            construct_witness_multi(QUAD, self.A, B, seeds, params=params)

    def test_unnormalized_symbol_rejected(self):
        spec = CatalogSymbol("exp-poly", a=1, poly=(2, 1))
        with pytest.raises((HypothesisError, ValueError)):
            derive_multi_params(spec, self.A)


class TestBatchedEvaluation:
    """Builds evaluate phi on whole point sets, never point by point."""

    @pytest.fixture
    def scalar_calls(self, monkeypatch):
        calls = []

        def counting(spec, z):
            calls.append(z)
            return eval_symbol(spec, z)

        for module in (symbols, dynamics, witness):
            if hasattr(module, "eval_symbol"):
                monkeypatch.setattr(module, "eval_symbol", counting)
        return calls

    @pytest.mark.parametrize("m", [2, 3])
    def test_single_generator(self, m, scalar_calls):
        params = derive_witness_params(QUAD, m)
        assert scalar_calls == []
        seed, target = default_targets_T2(params)
        construct_witness_T2(QUAD, m, seed, target, params=params)
        assert scalar_calls == []

    @pytest.mark.parametrize(
        "exponents", [[(2, 0), (1, 1), (0, 1)], [(2, 1), (0, 1)], [(3,), (1,)]]
    )
    def test_multi_generator(self, exponents, scalar_calls):
        A = ExponentSet.of(exponents)
        multi_params = derive_multi_params(QUAD, A)
        assert scalar_calls == [0]  # the phi(0) = 1 check
        scalar_calls.clear()
        B, seeds = default_multi_targets(multi_params, A.n_generators)
        construct_witness_multi(QUAD, A, B, seeds, params=multi_params)
        assert scalar_calls == []


class TestOnePlanPerMonomial:
    """A build evaluates phi once at the survivor frequencies and once at
    the key frequencies, and never through the diagonal evaluator; a verify
    evaluates it once per monomial for the residuals, not once per iterate
    count, and its series check once more, at all frequencies at once."""

    @pytest.fixture
    def plan_calls(self, monkeypatch):
        calls = {dynamics: [], witness: [], expansion: []}
        for module in calls:

            def counting(spec, zs, module=module):
                calls[module].append(np.size(zs))
                return eval_symbol_array(spec, zs)

            monkeypatch.setattr(module, "eval_symbol_array", counting)
        return calls

    @staticmethod
    def check_build(report, p, plan_calls):
        assert len(report.trace) > 2
        assert plan_calls[dynamics] == [] == plan_calls[witness]
        assert plan_calls[expansion] == [p, len(report.theta_table)]

    def test_single_generator(self, params, plan_calls):
        seed, target = default_targets_T2(params)
        report = construct_witness_T2(QUAD, 2, seed, target, params=params)
        self.check_build(report, 1, plan_calls)
        verify_witness(QUAD, report, DiskGrid(3.0), 1e-6)
        assert len(plan_calls[dynamics]) == 2 + 1  # f and f^2, then the series

    def test_multi_generator(self, plan_calls):
        A = ExponentSet.of([(2, 0), (1, 1), (0, 1)])
        multi_params = derive_multi_params(QUAD, A)
        B, seeds = default_multi_targets(multi_params, A.n_generators)
        plan_calls[witness].clear()
        report = construct_witness_multi(QUAD, A, B, seeds, params=multi_params)
        self.check_build(report, 1, plan_calls)
        verify_witness(QUAD, report, DiskGrid(3.0), 1e-5)
        assert len(plan_calls[dynamics]) == len(A.exponents) + 1


class TestOneKernelCall:
    """A build measures from its expansion terms: it makes no diagonal
    evaluator and no monomial, and measures every iterate count up to the
    first N whose bound sum is within epsilon, N*, in one batch.  A verify
    makes one kernel call for the checked q plus one at q = 1."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        images = dynamics._Diagonal.images
        init = dynamics._Diagonal.__init__
        monomials = dynamics._monomials

        def counting(self, fs, qs, targets=None):
            calls.append([(len(fs), q) for q in qs])
            return images(self, fs, qs, targets)

        def making(self, *args):
            calls.append("_Diagonal")
            init(self, *args)

        def multiplying(*args):
            calls.append("_monomials")
            return monomials(*args)

        monkeypatch.setattr(dynamics._Diagonal, "images", counting)
        monkeypatch.setattr(dynamics._Diagonal, "__init__", making)
        monkeypatch.setattr(dynamics, "_monomials", multiplying)
        return calls

    @pytest.fixture
    def batches(self, monkeypatch):
        calls = []
        distances = expansion._Terms.distances

        def counting(self, batch):
            calls.append([N for N, _ in batch])
            return distances(self, batch)

        monkeypatch.setattr(expansion._Terms, "distances", counting)
        return calls

    @staticmethod
    def check_qs(q):
        return sorted({max(1, q // 4), max(1, q // 2), q})

    def check(self, report, sums, epsilon, kernel_calls, batches):
        assert kernel_calls == []
        assert batches == [[N for N, _ in report.trace]]
        assert verify_witness(QUAD, report, DiskGrid(3.0), epsilon)[0]
        assert report.q >= 8  # so that q = 1 is not a checked q
        checked = [(sums, n) for n in self.check_qs(report.q)]
        assert kernel_calls == ["_monomials", "_Diagonal", checked, [(sums, 1)]]

    def test_single_generator(self, params, kernel_calls, batches):
        seed, target = default_targets_T2(params)
        report = construct_witness_T2(QUAD, 2, seed, target, params=params)
        self.check(report, len(report.monomials), 1e-6, kernel_calls, batches)

    def test_multi_generator(self, kernel_calls, batches):
        A = ExponentSet.of([(2, 0), (1, 1), (0, 1)])
        multi_params = derive_multi_params(QUAD, A)
        B, seeds = default_multi_targets(multi_params, A.n_generators)
        report = construct_witness_multi(QUAD, A, B, seeds, params=multi_params)
        self.check(report, len(A.exponents), 1e-5, kernel_calls, batches)

    def test_past_n_star_one_call_per_n(self, params, kernel_calls, batches):
        # three targets: the bound sum first falls within epsilon at
        # N* = 2**18, where a residual is still above it, so N = 2**19 and
        # 2**20 follow one batch each before the cap
        seed, target = default_targets_T2(params, p=3)
        with pytest.raises(IterationLimitError):
            construct_witness_T2(QUAD, 2, seed, target, params=params)
        assert kernel_calls == []
        assert batches == [[2**j for j in range(3, 19)], [2**19], [2**20]]


def test_a_build_makes_one_term_table(params, monkeypatch):
    tables = []
    init = expansion._Terms.__init__

    def making(self, *args):
        tables.append("_Terms")
        init(self, *args)

    monkeypatch.setattr(expansion._Terms, "__init__", making)
    seed, target = default_targets_T2(params)
    construct_witness_T2(QUAD, 2, seed, target, params=params)
    assert tables == ["_Terms"]
    A = ExponentSet.of([(2, 0), (1, 1), (0, 1)])
    multi_params = derive_multi_params(QUAD, A)
    B, seeds = default_multi_targets(multi_params, A.n_generators)
    construct_witness_multi(QUAD, A, B, seeds, params=multi_params)
    assert tables == ["_Terms"] * 2


#: How far a residual of a build may move from the reference driver's:
#: the two sum the same terms, grouped differently.
RESIDUAL_TOL = 1e-11


def outcome(build):
    """What a build gives: its report as a JSON dict, or its error's type and
    message with the trace it carries."""
    try:
        return json.loads(build().to_json())
    except HyperalgError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "trace", None)


def assert_same_outcome(got, want):
    """``got`` is ``want`` exactly, except the residuals of ``residuals``,
    ``trace`` and an error's trace, which agree within ``RESIDUAL_TOL *
    max(1, |r|)``."""

    def close(a, b):
        return abs(a - b) <= RESIDUAL_TOL * max(1.0, abs(b))

    def same_trace(a, b):
        if a is None or b is None:
            return a is b
        return [n for n, _ in a] == [n for n, _ in b] and all(
            close(x, y) for (_, x), (_, y) in zip(a, b)
        )

    assert type(got) is type(want)
    if isinstance(want, tuple):
        assert got[:2] == want[:2]
        assert same_trace(got[2], want[2])
        return
    rest = {key: value for key, value in got.items() if key not in ("residuals", "trace")}
    assert rest == {key: want[key] for key in rest} and got.keys() == want.keys()
    assert got["residuals"].keys() == want["residuals"].keys()
    assert all(close(got["residuals"][k], r) for k, r in want["residuals"].items())
    assert same_trace(got["trace"], want["trace"])


def faulty_solve_coeff(faults):
    """``solve_coeff`` with each iterate count of ``faults`` spoiled: its
    coefficients times the number there, or the exception class raised."""
    solve = expansion.solve_coeff

    def spoiled(b, m, phi_val, N):
        fault = faults.get(N)
        if isinstance(fault, type):
            raise fault("spoiled")
        return solve(b, m, phi_val, N) * (1 if fault is None else fault)

    return spoiled


#: The exponent sets of the benchmark's witness workload.
MULTI_SETS = (
    ((2, 0), (1, 1), (0, 1)),
    ((1, 0), (0, 1)),
    ((2, 0), (0, 2), (1, 1)),
    ((1, 1), (1, 0)),
    ((2,), (1,)),
    ((3,), (1,)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((2, 1), (0, 1)),
)


def check_against_reference(monkeypatch, build, faults=None):
    """The outcome of ``build``, after checking it against the sequential
    driver of ``reference.double_until`` with :func:`assert_same_outcome`."""
    if faults is not None:
        monkeypatch.setattr(expansion, "solve_coeff", faulty_solve_coeff(faults))
    got = outcome(build)
    with monkeypatch.context() as patch:
        patch.setattr(witness, "_double_until", reference.double_until)
        assert_same_outcome(got, outcome(build))
    return got


class TestBatchedDoubling:
    """The doubling that measures every N up to N* in one batch, from the
    expansion terms, gives what the sequential driver of
    ``reference.double_until`` gives, which builds each N's monomials and
    measures them with the diagonal evaluator: the report, or the error
    with its message and trace, the residuals to rounding."""

    check = staticmethod(check_against_reference)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize(
        "spec", [QUAD, CatalogSymbol("exp-quadratic", scale=1.3), CatalogSymbol("cos")]
    )
    def test_single_generator(self, spec, m, monkeypatch):
        params = derive_witness_params(spec, m)
        seed, target = default_targets_T2(params)
        build = lambda: construct_witness_T2(spec, m, seed, target, params=params)  # noqa: E731
        assert isinstance(self.check(monkeypatch, build), dict)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("exponents", MULTI_SETS)
    def test_multi_generator(self, exponents, p, monkeypatch):
        A = ExponentSet.of(exponents)
        params = derive_multi_params(QUAD, A)
        B, seeds = default_multi_targets(params, A.n_generators, p=p)
        build = lambda: construct_witness_multi(QUAD, A, B, seeds, params=params)  # noqa: E731
        self.check(monkeypatch, build)

    def test_three_targets_reach_the_iterate_cap(self, params, monkeypatch):
        # N* = 2**18 does not finish, and the N past it are measured one
        # batch each
        seed, target = default_targets_T2(params, p=3)
        build = lambda: construct_witness_T2(QUAD, 2, seed, target, params=params)  # noqa: E731
        name, message, trace = self.check(monkeypatch, build)
        assert (name, len(trace)) == ("IterationLimitError", 18)
        assert message == "residual target 1e-06 not met by N = 1048576"

    def test_coefficient_overflow(self, monkeypatch):
        # n**K_beta overflows at n = 2**18, inside the first batch
        A = ExponentSet.of([(3, 3, 3)])
        params = derive_multi_params(QUAD, A)
        B, seeds = default_multi_targets(params, A.n_generators)
        build = lambda: construct_witness_multi(QUAD, A, B, seeds, params=params)  # noqa: E731
        name, message, trace = self.check(monkeypatch, build)
        assert (name, len(trace)) == ("IterationLimitError", 15)
        assert message == "survivor coefficients overflow at N = 262144"

    def test_row_past_the_overflow_guard(self, params, monkeypatch):
        # on a disk of radius 800, exp(lambda z) of f^2's terms at 2w
        # overflows on the grid while their coefficients are nonzero
        seed, target = default_targets_T2(params)
        grid = DiskGrid(800.0)
        build = lambda: construct_witness_T2(  # noqa: E731
            QUAD, 2, seed, target, grid=grid, params=params
        )
        got = self.check(monkeypatch, build)
        assert got == (
            "EvaluationRangeError", "exp argument exceeds the overflow guard on the grid", None
        )

    @pytest.mark.parametrize(
        "faults, error",
        [
            # c times 1e200 at N = 64: f^2's coefficients overflow
            ({64: 1e200}, "product overflows"),
            # c times 1.5e154: the products stay finite, the image does not
            ({64: 1.5e154}, r"\|phi\(D\)\^64 f - target\| overflows on the grid"),
            ({64: OverflowError}, "survivor coefficients overflow at N = 64"),
            # the first spoiled N raises, whatever the later ones would
            ({32: 1.5e154, 64: 1e200}, r"\^32 f - target"),
            ({32: 1e200, 64: 1.5e154}, "product overflows"),
            ({64: 1.5e154, 128: 1e200, 256: OverflowError}, r"\^64 f - target"),
            ({64: 1e200, 128: OverflowError}, "product overflows"),
        ],
    )
    def test_error_inside_the_batch(self, params, faults, error, monkeypatch):
        seed, target = default_targets_T2(params)
        build = lambda: construct_witness_T2(QUAD, 2, seed, target, params=params)  # noqa: E731
        got = self.check(monkeypatch, build, faults)
        assert re.search(error, got[1])


def panel_builds():
    """The reference panel: default single-generator targets with p = 1-3
    terms and m = 2-4 on exp-quadratic, cos and sinc-pi; the set
    {(3,3,3)}, whose survivor coefficients overflow; and {(2,1),(0,1)}
    with p = 1-2, all on exp-quadratic."""
    for name in ("exp-quadratic", "cos", "sinc-pi"):
        for m in (2, 3, 4):
            for p in (1, 2, 3):
                yield pytest.param(CatalogSymbol(name), m, p, id=f"{name}-m{m}-p{p}")
    for exponents, ps in (([(3, 3, 3)], (1,)), ([(2, 1), (0, 1)], (1, 2))):
        for p in ps:
            label = "-".join("".join(map(str, a)) for a in exponents)
            yield pytest.param(QUAD, ExponentSet.of(exponents), p, id=f"multi-{label}-p{p}")


class TestReferencePanel:
    """Over the panel, a build ends as the reference driver's does: the same
    outcome type and message, raising at the same N after as many measured
    iterate counts, or a report that verifies."""

    @pytest.mark.parametrize("spec, shape, p", panel_builds())
    def test_build_matches_the_reference(self, spec, shape, p, monkeypatch):
        if isinstance(shape, ExponentSet):
            params = derive_multi_params(spec, shape)
            B, seeds = default_multi_targets(params, shape.n_generators, p=p)

            def build():
                return construct_witness_multi(spec, shape, B, seeds, params=params)

        else:
            params = derive_witness_params(spec, shape)
            seed, target = default_targets_T2(params, p=p)

            def build():
                return construct_witness_T2(spec, shape, seed, target, params=params)

        got = check_against_reference(monkeypatch, build)
        if isinstance(got, dict):
            report = WitnessReport.from_dict(got)
            grid = DiskGrid.from_dict(report.params["grid"])
            assert verify_witness(spec, report, grid, report.params["epsilon"])[0]


class TestDeterminism:
    def test_single_generator_reports_are_byte_identical(self):
        outputs = []
        for _ in range(2):
            params = derive_witness_params(QUAD, 2)
            seed, target = default_targets_T2(params)
            report = construct_witness_T2(QUAD, 2, seed, target, params=params)
            outputs.append(report.to_json().encode())
        assert outputs[0] == outputs[1]
