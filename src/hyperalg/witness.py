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

Both run on one engine.  The single generator is the multi-generator scheme
with one generator, monomials f, ..., f^m, beta = (m,) and K_beta = 0.  Each
construction lists the terms of its expansion once, in a table that holds
everything that does not depend on the iterate count N: frequency,
contraction ratio Theta, decay case, log|phi(freq)|, log weight and the power
of 1/N.  The engine, :func:`_double_until`, doubles N, solves the survivor
coefficients, measures every monomial's residual and sums the term bounds,
all through one log-magnitude formula that also fills the report's Theta
table.

Everything chosen (windows, radii, margins, iterate counts) is recorded in
the returned report, and every contraction ratio Theta of the expansion is
tabulated so the decay argument can be audited term by term.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    HypothesisError,
    IterationLimitError,
    SearchFailureError,
    TargetPlacementError,
    ThetaMarginError,
)
from .exppoly import DiskGrid, ExpPoly
from .growth import (
    MODULUS_MARGIN,
    PROFILE_POINTS,
    find_arith_progression,
    find_convex_ray,
    first_ray_below_one,
)
from .symbols import (
    SymbolSpec,
    _symbol_values,
    complex_from_json,
    complex_to_json,
    eval_symbol,
    eval_symbol_array,
    exppoly_from_json,
    exppoly_to_json,
    symbol_to_dict,
    to_json_value,
)
from .dynamics import _DiagonalResidual, _powers

#: Iterate counts are doubled from 8 up to this cap.
N_MAX_DEFAULT = 2**20

#: Non-survivor contraction ratios must stay below 1 by this much (unless
#: the tuple decays through an explicit negative power of the iterate count).
THETA_MARGIN = 1e-4

#: Total degree cap for the multinomial weight computation.
GAMMA_DEGREE_CAP = 64

#: Length bound of the convex ray that places the multi-generator windows.
MULTI_RAY_DELTA = 2.0


# ---------------------------------------------------------------------------
# Coefficient equation and lattice combinatorics
# ---------------------------------------------------------------------------


def solve_coeff(b: complex, m: int, phi_val: complex, N: int) -> complex:
    """Principal solution c of ``c**m * phi_val**N = b``.

    Magnitudes are handled in log space so the answer stays finite for N up
    to 2**20; requires |phi_val| > 1 so that |c| decreases in N.
    """
    b, phi_val = complex(b), complex(phi_val)
    if b == 0:
        raise ValueError("target coefficient must be nonzero")
    if m < 1:
        raise ValueError("m must be >= 1")
    if abs(phi_val) <= 1 + MODULUS_MARGIN:
        raise HypothesisError(
            f"|phi| = {abs(phi_val):.9f} at the survivor frequency; need > 1"
        )
    log_mag = (math.log(abs(b)) - N * math.log(abs(phi_val))) / m
    arg = (cmath.phase(b) - N * cmath.phase(phi_val)) / m
    return cmath.exp(complex(log_mag, arg))


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multi_lattice(alpha, p):
    """All (u, v, ell) of f^alpha for N = len(alpha) generators: u a tuple
    of N vectors in N_0^p, v in N_0^p, ell in N_0^{N-1}, with
    |u_1| + |v| = alpha_1 and |u_i| + ell_i = alpha_i."""
    first_splits = [
        (u1, v)
        for v_total in range(alpha[0] + 1)
        for u1 in _compositions(alpha[0] - v_total, p)
        for v in _compositions(v_total, p)
    ]
    rest_options = [
        [
            (ui, alpha[i] - u_total)
            for u_total in range(alpha[i] + 1)
            for ui in _compositions(u_total, p)
        ]
        for i in range(1, len(alpha))
    ]
    return [
        ((u1, *(ui for ui, _ in rest)), v, tuple(ell_i for _, ell_i in rest))
        for u1, v in first_splits
        for rest in itertools.product(*rest_options)
    ]


def _expansion_keys(exponents, beta, p, case):
    """Expansion tuples ``(u, v, ell, alpha, case, counted)`` of every
    monomial f^alpha, alpha in ``exponents``, with ``case(|u|, v)`` its
    decay case.  The survivors (u = 0, v = m e_j with m = beta_1) of the
    distinguished monomial beta carry the target and are not counted; for
    any other alpha the survivor shape forces alpha_1 = m, so the weight
    separation of :func:`select_weights` makes the term decay in N."""
    m = beta[0]
    keys = []
    for alpha in exponents:
        for u, v, ell in _multi_lattice(alpha, p):
            usum = sum(map(sum, u))
            survivor = alpha == beta and usum == 0 and max(v) == m == sum(v)
            keys.append((u, v, ell, alpha, case(usum, v), not survivor))
    return keys


def multinomial_gamma(u, v, a) -> complex:
    """Expansion weight ``(|u|+|v|)! * prod a_i^{u_i} / (u_i! v_i!)``."""
    u, v = tuple(int(x) for x in u), tuple(int(x) for x in v)
    total = sum(u) + sum(v)
    if total > GAMMA_DEGREE_CAP:
        raise ValueError(f"total degree {total} beyond supported cap")
    denom = 1
    for x in list(u) + list(v):
        denom *= math.factorial(x)
    weight = complex(math.factorial(total) / denom)
    for ai, ui in zip(a, u):
        weight *= complex(ai) ** ui
    return weight


def _contraction(phi_val: complex, v, phi_surv, m: int):
    """``(log|phi_val|, Theta)``: the term's eigenvalue ``phi_val`` against
    the survivor eigenvalues ``phi_surv`` weighted by ``v / m``."""
    log_phi = math.log(max(abs(phi_val), 1e-300))
    log_den = sum(
        (vi / m) * math.log(abs(pv)) for vi, pv in zip(v, phi_surv) if vi
    )
    return log_phi, math.exp(log_phi - log_den)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _tuples(x, convert=int):
    """JSON lists back to (nested) tuples of converted scalars; None stays."""
    if x is None:
        return None
    return tuple(_tuples(y, convert) if isinstance(y, list) else convert(y) for y in x)


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

    def to_dict(self) -> dict:
        return to_json_value(vars(self))

    @staticmethod
    def from_dict(d: dict) -> "ThetaEntry":
        return ThetaEntry(
            *(_tuples(d[key]) for key in ("u", "v", "ell", "alpha")),
            theta=float(d["theta"]),
            case=int(d["case"]),
            magnitude=float(d["magnitude"]),
            bound=float(d["bound"]),
        )


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

    def to_dict(self) -> dict:
        return to_json_value(
            {
                **vars(self),
                "generators": [exppoly_to_json(g) for g in self.generators],
                "theta_table": [e.to_dict() for e in self.theta_table],
                "targets": {
                    ",".join(map(str, k)): exppoly_to_json(v)
                    for k, v in self.targets.items()
                },
            }
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @staticmethod
    def from_dict(d: dict) -> "WitnessReport":
        """Inverse of :meth:`to_dict`.

        Checks the shape only, raising KeyError, TypeError, ValueError or
        AttributeError on a malformed payload; a negative ``q``, an ``m``
        below 1, an empty exponent list or a zero generator is malformed
        too.  Whether the numbers make a witness is for
        :func:`~hyperalg.dynamics.verify_witness` to decide.
        """
        generators = tuple(exppoly_from_json(g) for g in d["generators"])
        if any(g.is_zero for g in generators):
            raise ValueError("generators must be nonzero")
        q, m, exponents = int(d["q"]), int(d["m"]), _tuples(d["exponents"])
        if q < 0 or m < 1 or exponents == ():
            raise ValueError("q must be >= 0, m >= 1 and exponents non-empty")
        return WitnessReport(
            kind=str(d["kind"]),
            generators=generators,
            q=q,
            m=m,
            residuals={str(k): float(v) for k, v in d["residuals"].items()},
            theta_table=tuple(ThetaEntry.from_dict(e) for e in d["theta_table"]),
            params=dict(d["params"]),
            coefficients=tuple(complex_from_json(c) for c in d["coefficients"]),
            trace=tuple((int(q), float(r)) for q, r in d["trace"]),
            bound_sum=float(d["bound_sum"]),
            targets={
                tuple(int(x) for x in k.split(",")): exppoly_from_json(v)
                for k, v in d["targets"].items()
            },
            exponents=exponents,
            weights=_tuples(d["weights"], float),
            beta=_tuples(d["beta"]),
        )


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

    def to_dict(self) -> dict:
        return to_json_value(vars(self))


# ---------------------------------------------------------------------------
# Expansion terms and the iterate-doubling engine
# ---------------------------------------------------------------------------


class _Term(NamedTuple):
    """One expansion tuple with everything about it that does not depend on
    the iterate count N."""

    u: tuple
    v: tuple
    ell: tuple
    alpha: tuple
    case: int
    counted: bool  # False for the survivors that carry the target
    freq: complex
    theta: float
    log_phi: float  # log|phi(freq)|
    log_weight: float  # log multinomial count + sum u log|seed coefficient|
    ell_weight: float  # the term carries the factor N**-ell_weight


def _double_until(
    spec, m, seeds, target, keys, targets, grid, epsilon, n_max,
    perm=(0,), k=(1.0,), K_beta=0,
):
    """Iterate doubling behind both constructions.

    Generator 1 is ``seeds[0] + sum_j c_j(N) exp(gamma_j z)``, with gamma_j
    the target frequencies over m and ``c_j**m phi(m gamma_j)**N = b_j
    N**K_beta``; generator i >= 2 is ``seeds[i-1] + N**-k[i-1]``.  Slot i
    here is the caller's generator ``perm[i]``; ``targets`` is keyed by the
    caller's exponents, everything else is in slot order.

    ``keys`` lists every monomial's expansion tuples ``(u, v, ell, alpha,
    case, counted)`` from :func:`_expansion_keys`: u[i][j] factors of seed
    term j of generator i, v[j] of survivor j and ell[i-1] of N**-k[i].  N
    doubles from 8 until each monomial is within epsilon of its target and so
    is the bound sum of the counted terms.

    Returns the report fields and the survivor values c_j^m phi_j^N / N^K.
    Raises ThetaMarginError first when a counted term neither contracts nor
    decays in N, and IterationLimitError, with the trace so far, when N
    passes ``n_max`` or the coefficients overflow.
    """
    b = [c for c, _ in target.terms]
    gammas = [f / m for _, f in target.terms]
    phi_surv = list(_symbol_values(spec, [m * g for g in gammas]))
    for g, val in zip(gammas, phi_surv):
        if abs(val) <= 1 + MODULUS_MARGIN:
            raise HypothesisError(
                f"|phi({m * g})| = {abs(val):.9f}; survivor frequencies "
                "need |phi| > 1"
            )

    freqs = [
        sum(
            uij * f
            for row, s in zip(u, seeds)
            for uij, (_, f) in zip(row, s.terms)
        ) + sum(vj * g for vj, g in zip(v, gammas))
        for u, v, *_ in keys
    ]
    terms = []
    violations = []
    for key, freq, phi_val in zip(keys, freqs, _symbol_values(spec, freqs)):
        u, v, ell, alpha, case, counted = key
        log_phi, theta = _contraction(phi_val, v, phi_surv, m)
        count = math.prod(  # of each generator's power, seeds aside
            multinomial_gamma(row, w, ())
            for row, w in zip(u, (v, *((e,) for e in ell)))
        )
        log_weight = math.log(abs(count))
        for row, s in zip(u, seeds):
            for uij, (a, _) in zip(row, s.terms):
                if uij:
                    log_weight += uij * math.log(abs(a))
        ell_weight = sum(ki * e for ki, e in zip(k[1:], ell))
        terms.append(_Term(*key, freq, theta, log_phi, log_weight, ell_weight))
        n_exp = (sum(v) / m) * K_beta - ell_weight
        if counted and theta > 1 - THETA_MARGIN and not (
            theta <= 1 + 1e-12 and n_exp < 0
        ):
            violations.append(
                {"alpha": alpha, "u": u, "v": v, "theta": theta, "case": case}
            )
    if violations:
        raise ThetaMarginError(
            f"{len(violations)} expansion tuples neither contract nor decay",
            entries=violations,
        )

    R = grid.radius
    # phi at a monomial's frequencies does not depend on N: one plan each
    monomials = [
        (
            ",".join(map(str, alpha)),
            tuple(alpha[i] for i in perm),
            _DiagonalResidual(spec, tgt, grid),
        )
        for alpha, tgt in targets.items()
    ]
    trace: list[tuple[int, float]] = []
    N = 8
    while N <= n_max:
        try:
            c = [solve_coeff(bj * N**K_beta, m, pv, N) for bj, pv in zip(b, phi_surv)]
        except OverflowError:
            raise IterationLimitError(
                f"survivor coefficients overflow at N = {N}", trace=trace
            ) from None
        gens = [seeds[0] + ExpPoly.of(list(zip(c, gammas)))] + [
            s + ExpPoly.of([(N**-ki, 0j)]) for s, ki in zip(seeds[1:], k[1:])
        ]
        residuals = {
            name: residual(_powers(gens, alpha), N)
            for name, alpha, residual in monomials
        }
        trace.append((N, max(residuals.values())))

        # the one term magnitude, for the bound sum and the Theta table:
        # log weight + sum v_j log c_j(N) + N log|phi(freq)| - ell_weight log N
        log_c = [
            (math.log(abs(bj)) + K_beta * math.log(N) - N * math.log(abs(pv))) / m
            for bj, pv in zip(b, phi_surv)
        ]
        log_mags = []
        for t in terms:
            log_x = t.log_weight
            for vj, lc in zip(t.v, log_c):
                if vj:
                    log_x += vj * lc
            log_mags.append(log_x + N * t.log_phi - t.ell_weight * math.log(N))
        bound_sum = 0.0
        for t, log_x in zip(terms, log_mags):
            if t.counted:
                bound_sum += math.exp(min(log_x + abs(t.freq) * R, 700.0))
        if trace[-1][1] <= epsilon and bound_sum <= epsilon:
            break
        N *= 2
    else:
        raise IterationLimitError(
            f"residual target {epsilon} not met by N = {n_max}", trace=trace
        )

    generators = [gens[perm.index(i)] for i in range(len(gens))]
    theta_table = tuple(
        ThetaEntry(
            t.u, t.v, t.ell, t.alpha, t.theta, t.case,
            magnitude=math.exp(min(log_x, 700.0)),
            bound=math.exp(min(log_x + abs(t.freq) * R, 700.0)),
        )
        for t, log_x in zip(terms, log_mags)
    )
    survivor_values = [
        cj**m * cmath.exp(complex(N * math.log(abs(pv)), N * cmath.phase(pv)))
        / N**K_beta
        for cj, pv in zip(c, phi_surv)
    ]
    fields = dict(
        generators=tuple(generators), q=N, residuals=residuals,
        theta_table=theta_table, coefficients=tuple(c), trace=tuple(trace),
        bound_sum=bound_sum,
    )
    return fields, survivor_values


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
        # a list, so that an overflow at any point raises
        moduli = [abs(v) for v in _symbol_values(spec, points_at(scale))]
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


def _segment_convex(spec: SymbolSpec, end: complex) -> bool:
    """Discrete strict convexity and monotonicity of log|phi| on [0, end]."""
    ts = np.linspace(0.0, 1.0, PROFILE_POINTS)
    mods = np.abs(eval_symbol_array(spec, ts * complex(end)))
    if np.min(mods) <= 0:
        return False
    prof = np.log(mods)
    d1 = np.diff(prof)
    return bool(np.all(d1 > 0) and np.all(np.diff(d1) > 0))


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
    w_star = find_convex_ray(spec, 0j, delta=min(abs(w) / 2, 0.5)).w1
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
    if not _segment_convex(spec, w_star):
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
            "theta": THETA_MARGIN,
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
    epsilon: float = 1e-6,
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
    grid = grid or DiskGrid(3.0)
    _validate_targets_T2(params, seed, target)
    exponents = [(j,) for j in range(1, m + 1)]
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
        replace(e, u=e.u[0], ell=None, alpha=None)
        for e in fields["theta_table"]
    )
    return WitnessReport(
        kind="single",
        m=m,
        params={
            **params.to_dict(),
            "N_max": N_max,
            "grid": grid.to_dict(),
            "epsilon": epsilon,
            "symbol": symbol_to_dict(spec),
            "seed": exppoly_to_json(seed),
            "target": exppoly_to_json(target),
        },
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
    ray = find_convex_ray(spec, 0j, delta=MULTI_RAY_DELTA)
    w_plus = ray.w1
    same_ray = ray.domain[0] < 0  # two-sided: phi'(0) != 0
    a = 0.9 / (2 * d_A)
    if same_ray:
        w_minus = w_plus
    else:
        scale = abs(w_plus)
        theta = first_ray_below_one(
            spec,
            [2 * math.pi * k / 360 for k in range(360)],
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
        margins={"modulus": MODULUS_MARGIN, "theta": THETA_MARGIN},
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
    epsilon: float = 1e-5,
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
    grid = grid or DiskGrid(3.0)
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
    return WitnessReport(
        kind="multi",
        m=m,
        params={
            **params.to_dict(),
            "symbol": symbol_to_dict(spec),
            "weights": list(k),
            "beta_permuted": list(beta),
            "permutation": list(perm),
            "K_beta": K_beta,
            "survivor_values": [complex_to_json(sv) for sv in survivor_values],
            "target": exppoly_to_json(B),
            "seeds": [exppoly_to_json(L) for L in seeds_perm],
            "grid": grid.to_dict(),
            "epsilon": epsilon,
        },
        targets=targets,
        exponents=A.exponents,
        weights=k,
        beta=beta,
        **fields,
    )
