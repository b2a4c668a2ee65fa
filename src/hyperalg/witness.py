"""Explicit witness construction.

Builds concrete pairs (f, q) — a generator (or generator tuple) and an
iterate count — such that the q-th operator power sends the prescribed
power(s) of f onto a target exponential polynomial while sending the other
powers near zero.  Two constructions are provided:

* single generator: f = A + R_N, with A a free "seed" whose frequencies sit
  in a small disk inside the sublevel set |phi| < 1 and R_N a correction
  whose coefficients are solved so the m-th power hits the target exactly
  on its surviving frequencies;
* multiple generators with a free exponent set: f_1 = L_1 + R_n and
  f_i = L_i + n^{-k_i}, where the weights k_i make the monomial exponents
  separable and a distinguished exponent beta receives the target.

Both run on one engine, :mod:`~hyperalg.expansion`: each construction
places its windows, seeds and targets, lists its expansion keys and leaves
the iterate doubling to the engine's table of terms.

Everything chosen (windows, radii, margins, iterate counts) is recorded in
the returned report, and every contraction ratio Theta of the expansion is
tabulated so the decay argument can be audited term by term.
"""

from __future__ import annotations

import cmath
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, SearchFailureError, TargetPlacementError
from .expansion import _double_until, _expansion_keys
from .exppoly import DiskGrid, ExpPoly, _float_from_json, _int_from_json
from .growth import (
    MODULUS_MARGIN,
    PROFILE_POINTS,
    _convex_log_profile,
    find_arith_progression,
    find_convex_ray,
    first_ray_below_one,
)
from .symbols import (
    SymbolSpec,
    complexes_from_json,
    eval_symbol,
    eval_symbol_array,
    exppoly_from_json,
    to_json_value,
)

#: Iterate counts are doubled from 8 up to this cap.
N_MAX_DEFAULT = 2**20

#: Length bound of the convex ray that places the multi-generator windows.
MULTI_RAY_DELTA = 2.0

#: The directions tried in order for the decay window of an even symbol's
#: multi-generator witness: 360 angles one degree apart (read-only).
DECAY_RAY_ANGLES = 2 * np.pi * np.arange(360) / 360
DECAY_RAY_ANGLES.flags.writeable = False

#: Default residual tolerance of a build, and of verifying its report, by kind.
DEFAULT_EPSILON = {"single": 1e-6, "multi": 1e-5}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _tuples(x, convert=_int_from_json):
    """JSON lists back to (nested) tuples of converted scalars; None stays.
    A flat list of JSON ints, the common case, is checked in one pass."""
    if x is None:
        return None
    if convert is _int_from_json and set(map(type, x)) == {int}:
        return tuple(x)
    return tuple(_tuples(y, convert) if isinstance(y, list) else convert(y) for y in x)


def _target_key(key: str) -> tuple[int, ...]:
    """A report's target key as the exponent tuple it was written from:
    comma-joined decimal integers, ``"2"`` or ``"1,0"``; anything else
    (a space, a non-ASCII digit, an underscore) raises ValueError."""
    if not re.fullmatch(r"[0-9]+(,[0-9]+)*", key):
        raise ValueError(f"malformed target key {key!r}")
    return tuple(map(int, key.split(",")))


@dataclass(frozen=True)
class ThetaEntry:
    u: tuple
    v: tuple
    ell: tuple | None
    alpha: tuple | None
    theta: float
    case: int
    magnitude: float
    bound: float

    @staticmethod
    def from_dict(d: dict) -> "ThetaEntry":
        return ThetaEntry(
            *(_tuples(d[key]) for key in ("u", "v", "ell", "alpha")),
            theta=_float_from_json(d["theta"]),
            case=_int_from_json(d["case"]),
            magnitude=_float_from_json(d["magnitude"]),
            bound=_float_from_json(d["bound"]),
        )


def _single_monomials(m: int) -> tuple[tuple[int, ...], ...]:
    """The monomials f, ..., f^m of a single generator: (1,), ..., (m,)."""
    return tuple((j,) for j in range(1, m + 1))


@dataclass(frozen=True)
class WitnessReport:
    kind: str  # "single" | "multi"
    generators: tuple[ExpPoly, ...]
    q: int
    m: int
    residuals: dict
    theta_table: tuple[ThetaEntry, ...]
    params: dict
    coefficients: tuple[complex, ...]
    trace: tuple[tuple[int, float], ...]
    bound_sum: float
    targets: dict
    exponents: tuple[tuple[int, ...], ...] | None = None
    weights: tuple[float, ...] | None = None
    beta: tuple[int, ...] | None = None

    @property
    def monomials(self) -> tuple[tuple[int, ...], ...]:
        """The exponent tuples the report checks: ``exponents``, or those of
        a single generator."""
        return _single_monomials(self.m) if self.exponents is None else self.exponents

    def to_dict(self) -> dict:
        return to_json_value(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_dict(d: dict) -> "WitnessReport":
        """Inverse of :meth:`to_dict`.

        Checks the shape only, raising KeyError, TypeError, ValueError or
        AttributeError on a malformed payload; a ``kind`` other than
        "single" or "multi", a ``q``, ``m`` or exponent that is not a JSON
        integer, a residual, bound sum, weight or theta-table number that is
        not a JSON number (a numeric string included), a negative ``q``, an
        ``m`` below 1, an empty exponent list, a zero generator, a monomial
        without one non-negative exponent per generator, a target key that
        is not comma-joined decimal integers and a target of no monomial are
        malformed too.
        Whether the numbers make a witness is for
        :func:`~hyperalg.dynamics.verify_witness` to decide.
        """
        if d["kind"] not in ("single", "multi"):
            raise ValueError(f"unknown report kind {d['kind']!r}")
        generators = tuple(exppoly_from_json(g) for g in d["generators"])
        if any(g.is_zero for g in generators):
            raise ValueError("generators must be nonzero")
        q, m = _int_from_json(d["q"]), _int_from_json(d["m"])
        exponents = _tuples(d["exponents"])
        if q < 0 or m < 1 or exponents == ():
            raise ValueError("q must be >= 0, m >= 1 and exponents non-empty")
        report = WitnessReport(
            kind=str(d["kind"]),
            generators=generators,
            q=q,
            m=m,
            residuals={str(k): _float_from_json(v) for k, v in d["residuals"].items()},
            theta_table=tuple(ThetaEntry.from_dict(e) for e in d["theta_table"]),
            params=dict(d["params"]),
            coefficients=tuple(complexes_from_json(d["coefficients"])),
            trace=tuple(
                (_int_from_json(n), _float_from_json(r)) for n, r in d["trace"]
            ),
            bound_sum=_float_from_json(d["bound_sum"]),
            targets={
                _target_key(k): exppoly_from_json(v) for k, v in d["targets"].items()
            },
            exponents=exponents,
            weights=_tuples(d["weights"], _float_from_json),
            beta=_tuples(d["beta"]),
        )
        monomials = report.monomials
        if any(len(a) != len(generators) or min(a) < 0 for a in monomials):
            raise ValueError("each exponent tuple needs one entry per generator")
        if not report.targets.keys() <= set(monomials):
            raise ValueError("every target must belong to a checked monomial")
        return report


@dataclass(frozen=True)
class WitnessParams:
    """The geometry the single-generator construction chose before seeing
    N; the build records its grid, epsilon and N_max beside it."""

    w: complex
    delta: float
    w_star: complex
    w0: complex
    m: int
    lambda_window: tuple[complex, complex]
    margins: dict


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


def _halve_until_inside(spec: SymbolSpec, points_at, attempts: int, failure: str):
    """The first scale 2**-k (k < ``attempts``) at which |phi| <= 1 -
    MODULUS_MARGIN at every one of ``points_at(scale)``; each attempt
    evaluates its whole point set in one call.  Raises SearchFailureError
    with the message ``failure`` when no attempt passes."""
    for k in range(attempts):
        scale = 2.0**-k
        # Python's abs, not np.abs: the two round some moduli differently
        moduli = [abs(v) for v in eval_symbol_array(spec, points_at(scale)).tolist()]
        if not any(r > 1 - MODULUS_MARGIN for r in moduli):
            return scale
    raise SearchFailureError(failure)


def _check_window(poly: ExpPoly, window, what: str):
    """Every frequency of ``poly`` on the segment ``window``, to 1e-9 of
    its length."""
    lo, hi = window
    for _, f in poly.terms:
        t = (f - lo) / (hi - lo) if hi != lo else 0
        if abs(t.imag) > 1e-9 or not (-1e-9 <= t.real <= 1 + 1e-9):
            raise TargetPlacementError(f"{what} {f} outside the window [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# Single-generator construction
# ---------------------------------------------------------------------------


def _check_progression(spec: SymbolSpec, w: complex, m: int) -> float:
    """Worst |phi(j w)| over j = 1..m (must be < 1)."""
    # Python's abs, not np.abs: the two round some moduli differently
    vals = eval_symbol_array(spec, np.arange(1, m + 1) * w).tolist()
    return max(abs(v) for v in vals)


def derive_witness_params(spec: SymbolSpec, m: int) -> WitnessParams:
    """Chooses the geometry for :func:`construct_witness_T2`.

    The progression step is searched with a comfortable modulus margin
    first (|phi(jw)| <= 0.5, then 0.9) because the smallest admissible step
    tends to sit right at the |phi| = 1 boundary, where the contraction
    ratios approach 1 and the required iterate count explodes.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    for margin in (0.5, 0.1, MODULUS_MARGIN):
        w = find_arith_progression(spec, m, margin=margin)[m]
        if w is not None:
            break
    if w is None:
        raise HypothesisError(
            "no arithmetic progression found inside the sublevel set |phi| < 1"
        )
    w_star = find_convex_ray(spec, delta=min(abs(w) / 2, 0.5)).w1
    progression_worst = _check_progression(spec, w, m)

    def corners(scale):
        # every frequency the expansion can produce with at least one seed
        # factor must stay inside |phi| < 1: sample disk corners around
        # s*w plus the extreme correction shifts
        delta, w0 = abs(w) / 4 * scale, 0.75 * w_star * scale
        return [
            s * w + corner + shift
            for s in range(1, m + 1)
            for shift in ([0j, (m - s) * w0 / m] if s < m else [0j])
            for corner in [0j] + [
                s * delta * cmath.exp(1j * math.pi * k / 2) for k in range(4)
            ]
        ]

    scale = _halve_until_inside(
        spec, corners, 30, "could not validate the seed/correction frequency windows"
    )
    ts = np.linspace(0.0, 1.0, PROFILE_POINTS)
    if _convex_log_profile(np.abs(eval_symbol_array(spec, ts * w_star))) is None:
        raise HypothesisError("log|phi| is not strictly convex increasing on [0, w*]")
    delta, w0 = abs(w) / 4 * scale, 0.75 * w_star * scale
    return WitnessParams(
        w=complex(w),
        delta=float(delta),
        w_star=complex(w_star),
        w0=complex(w0),
        m=m,
        lambda_window=(w0 / (2 * m), w0 / m),
        margins={
            "progression_worst_modulus": progression_worst,
            "modulus": MODULUS_MARGIN,
        },
    )


def default_targets_T2(
    params: WitnessParams, p: int = 1
) -> tuple[ExpPoly, ExpPoly]:
    """Admissible (seed, target) pair with p unit-coefficient terms each:
    seed frequencies spread inside the disk around w, target frequencies on
    the segment [w0/2, w0] of the convex ray."""
    alphas = [
        params.w + (i * params.delta / (2 * p)) * cmath.exp(1j * i)
        for i in range(p)
    ]
    betas = [params.w0 * (0.5 + 0.5 * (i + 1) / (p + 1)) for i in range(p)]
    seed = ExpPoly.of([(1, a) for a in alphas])
    target = ExpPoly.of([(1, b) for b in betas])
    return seed, target


def _validate_targets_T2(params: WitnessParams, seed: ExpPoly, target: ExpPoly):
    if seed.is_zero or target.is_zero:
        raise TargetPlacementError("seed and target must be nonzero")
    if len(seed.terms) != len(target.terms):
        raise TargetPlacementError(
            "seed and target must have the same number of terms "
            f"(got {len(seed.terms)} and {len(target.terms)})"
        )
    for _, a in seed.terms:
        if abs(a - params.w) > params.delta * (1 + 1e-12):
            raise TargetPlacementError(
                f"seed frequency {a} outside the disk of radius "
                f"{params.delta} around {params.w}"
            )
    _check_window(target, (params.w0 / 2, params.w0), "target frequency")


def construct_witness_T2(
    spec: SymbolSpec,
    m: int,
    seed: ExpPoly,
    target: ExpPoly,
    epsilon: float = DEFAULT_EPSILON["single"],
    grid: DiskGrid | None = None,
    N_max: int = N_MAX_DEFAULT,
    params: WitnessParams | None = None,
) -> WitnessReport:
    """Single-generator witness: finds N with f = seed + R_N such that the
    N-th operator power takes f^m within epsilon of the target and f^j
    (1 <= j < m) within epsilon of zero, in sup norm on the grid.

    This is the multi-generator engine with one generator, monomials
    f, ..., f^m and beta = (m,); the report keeps the one-generator shape
    (u one row, ell and alpha None)."""
    params = params or derive_witness_params(spec, m)
    if params.m != m:
        raise ValueError(f"params were derived for m = {params.m}, not {m}")
    grid = grid or DiskGrid()
    _validate_targets_T2(params, seed, target)
    exponents = _single_monomials(m)
    keys = _expansion_keys(
        exponents, (m,), len(target.terms),
        lambda usum, v: 2 if usum else 3 if sum(v) < m else 1,
    )
    targets = {alpha: ExpPoly.zero() for alpha in exponents}
    targets[(m,)] = target
    fields, _ = _double_until(
        spec, m, (seed,), target, keys, targets, grid, epsilon, N_max
    )
    fields["theta_table"] = tuple(
        ThetaEntry(u[0], v, None, None, *rest)
        for u, v, _, _, *rest in fields["theta_table"]
    )
    return WitnessReport(
        kind="single",
        m=m,
        params=to_json_value({
            **vars(params),
            "N_max": N_max,
            "grid": grid.to_dict(),
            "epsilon": epsilon,
            "symbol": spec,
            "seed": seed,
            "target": target,
        }),
        targets=targets,
        **fields,
    )


# ---------------------------------------------------------------------------
# Multi-generator construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentSet:
    """Finite set of monomial exponent tuples, zero tuple excluded."""

    exponents: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(exponents) -> "ExponentSet":
        exps = sorted({tuple(int(x) for x in a) for a in exponents})
        return ExponentSet(tuple(exps))

    def __post_init__(self):
        if not self.exponents:
            raise ValueError("exponent set must be nonempty")
        sizes = {len(a) for a in self.exponents}
        if len(sizes) != 1:
            raise ValueError("all exponent tuples must have the same length")
        if any(min(a) < 0 for a in self.exponents):
            raise ValueError("exponents must be non-negative")
        if any(max(a) == 0 for a in self.exponents):
            raise ValueError("the zero tuple is not allowed")

    @property
    def n_generators(self) -> int:
        return len(self.exponents[0])

    @property
    def max_inf_norm(self) -> int:
        return max(max(a) for a in self.exponents)

    @property
    def max_total(self) -> int:
        return max(sum(a) for a in self.exponents)


def select_weights(A: ExponentSet):
    """Weights, distinguished exponent, and coordinate permutation.

    Weights k_i = (m+1)^{i-1} (m = the largest coordinate) are a positional
    encoding, hence injective on the exponent box.  Coordinates are permuted
    so some exponent attains the maximal infinity norm in slot 1, and beta
    is the minimizer of the weight functional among those; it is strict
    because the functional separates the exponents, which is checked."""
    m = A.max_inf_norm
    star = next(
        i for i in range(A.n_generators) if any(a[i] == m for a in A.exponents)
    )
    perm = tuple([star] + [i for i in range(A.n_generators) if i != star])
    permuted = [tuple(a[i] for i in perm) for a in A.exponents]
    k = tuple(float((m + 1) ** i) for i in range(A.n_generators))

    def weight(a):
        return sum(ki * ai for ki, ai in zip(k, a))

    if len({weight(a) for a in permuted}) != len(permuted):
        raise HypothesisError("weight functional failed to separate exponents")
    beta = min((a for a in permuted if a[0] == m), key=weight)
    return k, beta, perm


@dataclass(frozen=True)
class MultiParams:
    """Geometry for the multi-generator construction: the decay window
    Lambda (generator seed frequencies) and growth window Gamma (target
    frequencies), both segments anchored at the origin."""

    w_minus: complex  # Lambda = [-2a w_minus, -a w_minus]
    w_plus: complex  # Gamma = [b w_plus, 2b w_plus]
    a: float
    b: float
    d_A: int
    m: int
    same_ray: bool
    margins: dict

    @property
    def lambda_window(self) -> tuple[complex, complex]:
        return (-2 * self.a * self.w_minus, -self.a * self.w_minus)

    @property
    def gamma_window(self) -> tuple[complex, complex]:
        return (self.b * self.w_plus, 2 * self.b * self.w_plus)

    def to_dict(self) -> dict:
        return to_json_value(
            {
                **vars(self),
                "lambda_window": self.lambda_window,
                "gamma_window": self.gamma_window,
            }
        )


def derive_multi_params(spec: SymbolSpec, A: ExponentSet) -> MultiParams:
    """Window selection for :func:`construct_witness_multi`.

    When phi'(0) != 0 both windows sit on the single two-sided convex ray
    through the origin, as the decay argument assumes.  When phi'(0) = 0
    (an even symbol, say) no two-sided ray exists; the growth window still
    comes from a one-sided convex ray, and the decay window is placed on an
    independently found ray where |phi| < 1, with the cross-window sums
    re-verified directly.
    """
    phi0 = eval_symbol(spec, 0)
    if abs(phi0 - 1) > 1e-9:
        raise HypothesisError(f"phi(0) = {phi0}; the construction needs phi(0) = 1")
    d_A = A.max_total
    m = A.max_inf_norm
    ray = find_convex_ray(spec, delta=MULTI_RAY_DELTA)
    w_plus = ray.w1
    same_ray = ray.domain[0] < 0  # two-sided: phi'(0) != 0
    a = 0.9 / (2 * d_A)
    if same_ray:
        w_minus = w_plus
    else:
        scale = abs(w_plus)
        theta = first_ray_below_one(
            spec,
            DECAY_RAY_ANGLES,
            t_max=2 * a * d_A * scale * 1.05,
            r_min=2 * a * d_A * scale,
        )
        if theta is None:
            raise SearchFailureError(
                "no direction keeps |phi| < 1 across the decay window"
            )
        w_minus = scale * cmath.exp(1j * theta)

    def sums(scale):
        # s decay frequencies plus d_cnt growth frequencies, at both ends
        b = 0.9 * a / (2 * d_A) * scale
        return [
            -t * w_minus + rr * w_plus
            for s in range(1, d_A + 1)
            for d_cnt in range(d_A + 1 if s < d_A else 1)
            for t in (a * s, 2 * a * s)
            for rr in (b * d_cnt, 2 * b * d_cnt)
        ]

    scale = _halve_until_inside(
        spec, sums, 25, "could not validate the combined window memberships"
    )
    return MultiParams(
        w_minus=complex(w_minus),
        w_plus=complex(w_plus),
        a=a,
        b=0.9 * a / (2 * d_A) * scale,
        d_A=d_A,
        m=m,
        same_ray=same_ray,
        margins={"modulus": MODULUS_MARGIN},
    )


def default_multi_targets(
    params: MultiParams, N: int, p: int = 1
) -> tuple[ExpPoly, list[ExpPoly]]:
    """An admissible target B (frequencies m*gamma_j with gamma_j in
    Gamma/m) and per-generator seeds L_i (frequencies in Lambda)."""
    gammas = [
        (params.b + params.b * (j + 1) / (p + 1)) * params.w_plus / params.m
        for j in range(p)
    ]
    B = ExpPoly.of([(1 + 0j, params.m * g) for g in gammas])
    seeds = []
    for i in range(N):
        lams = [
            -(params.a + params.a * (j + 1 + i / (N + 1)) / (p + 1))
            * params.w_minus
            for j in range(p)
        ]
        seeds.append(ExpPoly.of([(1 + 0j, l) for l in lams]))
    return B, seeds


def construct_witness_multi(
    spec: SymbolSpec,
    A: ExponentSet,
    B: ExpPoly,
    seeds: list[ExpPoly] | None = None,
    epsilon: float = DEFAULT_EPSILON["multi"],
    grid: DiskGrid | None = None,
    n_max: int = N_MAX_DEFAULT,
    params: MultiParams | None = None,
) -> WitnessReport:
    """Multi-generator witness for a free exponent set.

    Returns generators f_1..f_N and an iterate count n such that the n-th
    operator power takes the monomial f^beta within epsilon of B and every
    other monomial f^alpha (alpha in A) within epsilon of zero.  ``seeds``
    are the L_i parts of the generators (defaulted admissibly when None).
    """
    grid = grid or DiskGrid()
    params = params or derive_multi_params(spec, A)
    if (params.m, params.d_A) != (A.max_inf_norm, A.max_total):
        raise ValueError(
            f"params were derived for m = {params.m}, d_A = {params.d_A}, not "
            f"m = {A.max_inf_norm}, d_A = {A.max_total}"
        )
    k, beta, perm = select_weights(A)
    n_gen = A.n_generators
    exps_perm = [tuple(a[i] for i in perm) for a in A.exponents]
    m = params.m
    p = len(B.terms)
    if B.is_zero:
        raise TargetPlacementError("target must be nonzero")

    if seeds is None:
        _, seeds_perm = default_multi_targets(params, n_gen, p=p)
    else:
        if len(seeds) != n_gen:
            raise TargetPlacementError("need one seed per generator")
        seeds_perm = [seeds[perm[i]] for i in range(n_gen)]

    _check_window(B, params.gamma_window, "target frequency")
    for L in seeds_perm:
        if len(L.terms) != p:
            raise TargetPlacementError(
                "each seed needs as many terms as the target"
            )
        _check_window(L, params.lambda_window, "seed frequency")

    K_beta = sum(k[i] * beta[i] for i in range(1, n_gen))

    def case(usum, v):
        if 1 <= usum < params.d_A:
            return 1
        if usum == params.d_A:
            return 2
        return 3 if max(v) < m else 4

    keys = _expansion_keys(exps_perm, beta, p, case)

    targets = {
        alpha_orig: (B if alpha == beta else ExpPoly.zero())
        for alpha_orig, alpha in zip(A.exponents, exps_perm)
    }
    fields, survivor_values = _double_until(
        spec, m, seeds_perm, B, keys, targets, grid, epsilon, n_max,
        perm=perm, k=k, K_beta=K_beta,
    )
    fields["theta_table"] = tuple(ThetaEntry(*row) for row in fields["theta_table"])
    return WitnessReport(
        kind="multi",
        m=m,
        params=to_json_value({
            **params.to_dict(),
            "symbol": spec,
            "weights": k,
            "beta_permuted": beta,
            "permutation": perm,
            "K_beta": K_beta,
            "survivor_values": survivor_values,
            "target": B,
            "seeds": seeds_perm,
            "N_max": n_max,
            "grid": grid.to_dict(),
            "epsilon": epsilon,
        }),
        targets=targets,
        exponents=A.exponents,
        weights=k,
        beta=beta,
        **fields,
    )
