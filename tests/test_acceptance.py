"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line so the run log doubles as a checklist."""

import cmath
import time

import numpy as np
import pytest

from hyperalg import (
    CatalogSymbol,
    DiskGrid,
    ExpPoly,
    ExpPolySymbol,
    ExponentSet,
    PolyTimesExp,
    classify,
    construct_witness_T2,
    construct_witness_multi,
    convex_direction,
    default_multi_targets,
    default_targets_T2,
    derive_multi_params,
    derive_witness_params,
    derivs_at_zero,
    find_convex_ray,
    solve_coeff,
    to_taylor,
)
from reference import TaylorPoly, apply_symbol, apply_symbol_taylor, sup_distance

QUAD = CatalogSymbol("exp-quadratic")
EPS_SINGLE = 1e-6
EPS_MULTI = 1e-5


def verdict_line(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{name}] {status} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def single_reports():
    out = {}
    for m in (2, 3):
        start = time.monotonic()
        params = derive_witness_params(QUAD, m)
        seed, target = default_targets_T2(params)
        report = construct_witness_T2(
            QUAD, m, seed, target, epsilon=EPS_SINGLE, params=params
        )
        out[m] = (report, time.monotonic() - start)
    return out


@pytest.fixture(scope="module")
def multi_report():
    start = time.monotonic()
    A = ExponentSet.of([(2, 0), (1, 1), (0, 1)])
    params = derive_multi_params(QUAD, A)
    B, seeds = default_multi_targets(params, A.n_generators)
    report = construct_witness_multi(
        QUAD, A, B, seeds, epsilon=EPS_MULTI, params=params
    )
    return report, B, time.monotonic() - start


def test_criterion_1_catalog_verdicts():
    cases = [
        (CatalogSymbol("cos"), "HasAlgebra"),
        (CatalogSymbol("sin+exp(-z)"), "HasAlgebra"),
        (CatalogSymbol("sinc-pi"), "HasAlgebra"),
        (CatalogSymbol("exp", a=1), "NoAlgebra"),
        (CatalogSymbol("exp-poly", a=1, poly=(1, 1j)), "HasAlgebra"),
    ]
    start = time.monotonic()
    got = [classify(spec).outcome for spec, _ in cases]
    elapsed = time.monotonic() - start
    hits = sum(g == want for g, (_, want) in zip(got, cases))
    verdict_line(
        "criterion-1",
        hits == 5 and elapsed < 10.0,
        f"catalog verdicts {hits}/5 correct in {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_second_derivative_evidence():
    cos_derivs, _ = derivs_at_zero(CatalogSymbol("cos"), 2)
    sinc_derivs, _ = derivs_at_zero(CatalogSymbol("sinc-pi"), 2)
    margin = abs(cos_derivs[2] * cos_derivs[0] - cos_derivs[1] ** 2)
    checks = [
        abs(cos_derivs[0] - 1) < 1e-8,
        abs(cos_derivs[1]) < 1e-8,
        abs(cos_derivs[2] + 1) < 1e-8,
        abs(sinc_derivs[0] - 1) < 1e-8,
        abs(sinc_derivs[1]) < 1e-8,
        abs(sinc_derivs[2] + np.pi**2 / 3) < 1e-8,
        margin > 0.9,
    ]
    verdict_line(
        "criterion-2",
        all(checks),
        f"derivative values within 1e-8, curvature margin {margin:.6f} > 0.9",
    )


def test_criterion_3_single_generator_witness(single_reports):
    ok = True
    details = []
    for m, (report, elapsed) in single_reports.items():
        worst = max(report.residuals.values())
        survivors = {
            ((0,), tuple(report.m if i == 0 else 0 for i in range(1)))
        }
        worst_theta = max(
            (e.theta for e in report.theta_table if (e.u, e.v) not in survivors),
            default=0.0,
        )
        ok = (
            ok
            and worst <= EPS_SINGLE
            and worst_theta <= 1 - 1e-4
            and elapsed < 60.0
        )
        details.append(
            f"m={m}: q={report.q} residual {worst:.2e} theta {worst_theta:.6f} "
            f"in {elapsed:.2f}s"
        )
    verdict_line("criterion-3", ok, "; ".join(details))


def test_criterion_4_multi_generator_witness(multi_report):
    report, B, elapsed = multi_report
    worst = max(report.residuals.values())
    survivor_vals = [
        complex(re, im) for re, im in report.params["survivor_values"]
    ]
    rel_errs = [
        abs(got - want) / abs(want)
        for got, (want, _) in zip(survivor_vals, B.terms)
    ]
    # the selected joint exponent must strictly minimize the weighted sum
    # among exponents sharing its leading coordinate
    k, beta = report.weights, report.beta
    lead = beta[0]
    gaps = [
        sum(ki * (bi - ai) for ki, bi, ai in zip(k[1:], beta[1:], alpha[1:]))
        for alpha in report.exponents
        if alpha[0] == lead and tuple(alpha) != tuple(beta)
    ]
    ok = (
        worst <= EPS_MULTI
        and max(rel_errs) <= 1e-8
        and all(g < 0 for g in gaps)
        and elapsed < 120.0
    )
    verdict_line(
        "criterion-4",
        ok,
        f"q={report.q} residual {worst:.2e}, survivor rel err "
        f"{max(rel_errs):.2e} <= 1e-8, {len(gaps)} weight gaps negative, "
        f"in {elapsed:.2f}s",
    )


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    names = ["cos", "sin+exp(-z)", "sinc-pi", "exp", "exp-poly", "exp-quadratic"]
    grid = DiskGrid(radius=1.0, samples=32, circles=3)
    taylors = {}
    start = time.monotonic()
    worst = 0.0
    for i in range(100):
        name = names[i % len(names)]
        if name == "exp-poly":
            spec = CatalogSymbol(name, a=1, poly=(1, 1j))
        elif name == "exp":
            spec = CatalogSymbol(name, a=1)
        else:
            spec = CatalogSymbol(name)
        n_terms = int(rng.integers(1, 6))
        coeffs = rng.uniform(-3, 3, n_terms) + 1j * rng.uniform(-3, 3, n_terms)
        freqs = rng.uniform(-2, 2, n_terms) + 1j * rng.uniform(-2, 2, n_terms)
        freqs = freqs / np.maximum(1.0, np.abs(freqs) / 2.0)  # clamp |freq| <= 2
        f = ExpPoly.of(list(zip(coeffs, freqs)))
        if f.is_zero:
            continue
        if name not in taylors:
            taylors[name] = to_taylor(spec, 80)
        f_t = TaylorPoly.from_exppoly(f, 80)
        oracle = apply_symbol_taylor(taylors[name], f_t, 60)
        diagonal = apply_symbol(spec, f)
        worst = max(worst, sup_distance(diagonal, oracle, grid))
    elapsed = time.monotonic() - start
    verdict_line(
        "criterion-5",
        worst <= 1e-7 and elapsed < 60.0,
        f"100 random pairs: worst sup distance {worst:.2e} <= 1e-7 "
        f"in {elapsed:.2f}s",
    )


def test_criterion_6_direction_inequalities():
    rng = np.random.default_rng(7)
    signs = [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]
    pairs = [(s1, s2) for s1 in signs for s2 in signs]
    pairs += [(0j, s2) for s2 in signs]
    while len(pairs) < 10_000:
        a1 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        a2 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if a2 != 0:
            pairs.append((a1, a2))
    failures = 0
    for a1, a2 in pairs:
        theta = convex_direction(a1, a2)
        first = (a1 * cmath.exp(1j * theta)).real
        second = (a2 * cmath.exp(2j * theta)).real
        if second <= 0 or first < 0 or (a1 != 0 and first <= 0):
            failures += 1
    verdict_line(
        "criterion-6",
        failures == 0,
        f"{len(pairs)} direction pairs, {failures} inequality failures",
    )


def test_criterion_7_convex_profiles():
    specs = []
    for scale in (0.5, 1.0, 1.5, 2.0):
        specs.append(CatalogSymbol("cos", scale=scale))
        specs.append(CatalogSymbol("exp-quadratic", scale=scale))
    for scale in (0.5, 1.0):
        specs.append(CatalogSymbol("sinc-pi", scale=scale))
    specs.append(CatalogSymbol("sin+exp(-z)"))
    specs.append(CatalogSymbol("exp-poly", a=1, poly=(1, 1j)))
    specs.append(PolyTimesExp(poly=(1, 1, 1), a=1))
    specs.append(PolyTimesExp(poly=(1, -1, 1), a=1))
    specs.append(PolyTimesExp(poly=(1, 2, 1), a=1))
    specs.append(PolyTimesExp(poly=(1, 1j), a=1))
    specs.append(ExpPolySymbol(ExpPoly.of([(0.5, 1.0), (0.5, -1.0)])))
    specs.append(ExpPolySymbol(ExpPoly.of([(0.3, 1.0), (0.7, -1.0)])))
    specs.append(ExpPolySymbol(ExpPoly.of([(0.5, 2.0), (0.5, -2.0)])))
    specs.append(ExpPolySymbol(ExpPoly.of([(0.25, 1j), (0.75, -0.5j)])))
    assert len(specs) == 20
    failures = []
    for i, spec in enumerate(specs):
        try:
            ray = find_convex_ray(spec, 0, 0.5)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            failures.append(f"#{i}: {type(exc).__name__}")
            continue
        d1 = np.diff(ray.profile)
        if not (np.all(d1 > 0) and np.all(np.diff(d1) > 0)):
            failures.append(f"#{i}: profile not strictly convex increasing")
    verdict_line(
        "criterion-7",
        not failures,
        f"20/20 convex-ray profiles validated" if not failures else str(failures),
    )


def test_criterion_8_convergence_traces(single_reports):
    report, _ = single_reports[2]
    mags = []
    from hyperalg import eval_symbol

    # survivor eigenvalue actually used: phi at the target frequency
    target_freq = complex(*report.params["target"][0][1])
    phi_surv = eval_symbol(QUAD, target_freq)
    for n in (8, 16, 32, 64, 128, 256):
        mags.append(abs(solve_coeff(1.0, report.m, phi_surv, n)))
    decreasing = all(b < a for a, b in zip(mags, mags[1:]))
    residual_ok = max(report.residuals.values()) <= EPS_SINGLE
    bound_ok = report.bound_sum <= EPS_SINGLE
    verdict_line(
        "criterion-8",
        decreasing and residual_ok and bound_ok,
        f"|c(N)| strictly decreasing over doubling N, residual "
        f"{max(report.residuals.values()):.2e} and bound sum "
        f"{report.bound_sum:.2e} both <= {EPS_SINGLE}",
    )


def test_criterion_9_determinism():
    singles = []
    multis = []
    for _ in range(2):
        params = derive_witness_params(QUAD, 2)
        seed, target = default_targets_T2(params)
        singles.append(
            construct_witness_T2(
                QUAD, 2, seed, target, epsilon=EPS_SINGLE, params=params
            ).to_json().encode()
        )
        A = ExponentSet.of([(2, 0), (1, 1), (0, 1)])
        mp = derive_multi_params(QUAD, A)
        B, seeds = default_multi_targets(mp, A.n_generators)
        multis.append(
            construct_witness_multi(
                QUAD, A, B, seeds, epsilon=EPS_MULTI, params=mp
            ).to_json().encode()
        )
    ok = singles[0] == singles[1] and multis[0] == multis[1]
    verdict_line(
        "criterion-9",
        ok,
        "repeated single- and multi-generator runs are byte-identical",
    )
