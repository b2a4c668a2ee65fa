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
construction lists the terms of its expansion once, as keys.  The engine,
:func:`_double_until`, evaluates one log-magnitude formula for every term at
every iterate count N of the doubling grid, in one table; the table admits
the terms, gives the bound sum at each N and fills the report's Theta table.
Then N doubles.  The loop cannot stop at an N whose bound sum is above
epsilon, so the table fixes the first N where it could, N*, before the loop
starts: the engine solves the survivor coefficients of every N up to N* and
measures every monomial's residual at all of them in one batch.  Only when
a residual at N* is still above epsilon does it go on, one N and one batch
at a time.  The residuals come from the same table of terms: each term's
row exp(lambda z) on the grid is taken once per build, and at each N a
monomial's image is the sum of its terms, each the term's coefficient at N
times phi(lambda)**N, on their rows.  No N gets generators or monomials of
its own; the generators are built once, at the final N.

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

import numpy as np

from .errors import (
    EvaluationRangeError,
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
    _convex_log_profile,
    find_arith_progression,
    find_convex_ray,
    first_ray_below_one,
)
from .symbols import (
    SymbolSpec,
    _float_from_json,
    _int_from_json,
    complexes_from_json,
    eval_symbol,
    eval_symbol_array,
    exppoly_from_json,
    to_json_value,
)
from .dynamics import _TermImages

#: Iterate counts are doubled from 8 up to this cap.
N_MAX_DEFAULT = 2**20

#: Total degree cap for the multinomial weight computation.
GAMMA_DEGREE_CAP = 64

#: Length bound of the convex ray that places the multi-generator windows.
MULTI_RAY_DELTA = 2.0

#: The directions tried in order for the decay window of an even symbol's
#: multi-generator witness: 360 angles one degree apart (read-only).
DECAY_RAY_ANGLES = 2 * np.pi * np.arange(360) / 360
DECAY_RAY_ANGLES.flags.writeable = False

#: Default residual tolerance of a build, and of verifying its report, by kind.
DEFAULT_EPSILON = {"single": 1e-6, "multi": 1e-5}


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
    arg = (math.atan2(b.imag, b.real) - N * math.atan2(phi_val.imag, phi_val.real)) / m
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


def _tuples(x, convert=_int_from_json):
    """JSON lists back to (nested) tuples of converted scalars; None stays.
    A flat list of JSON ints, the common case, is checked in one pass."""
    if x is None:
        return None
    if convert is _int_from_json and set(map(type, x)) == {int}:
        return tuple(x)
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
        without one non-negative exponent per generator and a target of no
        monomial are malformed too.
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
                tuple(int(x) for x in k.split(",")): exppoly_from_json(v)
                for k, v in d["targets"].items()
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
# Expansion terms and the iterate-doubling engine
# ---------------------------------------------------------------------------


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
    case, counted)`` from :func:`_expansion_keys`, grouped by monomial:
    u[i][j] factors of seed term j of generator i, v[j] of survivor j and
    ell[i-1] of N**-k[i].  N doubles from 8 until each monomial is within
    epsilon of its target and so is the bound sum of the counted terms.

    The bound sum at every N of the doubling grid comes from the term table,
    which is built before the loop, so the first N whose bound sum is within
    epsilon, N*, is known before any N is measured: no N below it can end
    the loop.  Every N from 8 to N* is therefore measured in one batch, and
    each N past N* (when a residual at N* is still above epsilon) in one of
    its own.

    The measurement reads the term table too; no N gets generators or
    monomials of its own.  Each key's row ``exp(lambda z)`` on the grid is
    taken once per build (a row past the overflow guard is kept as exp(0)
    and raises once its term is nonzero), and phi once at the key
    frequencies.  At each N a key's term is its coefficient ``weight * prod
    c_j(N)**v_j * N**-(k . ell)``, rounded to a double from its log-modulus
    and phase, times ``phi(lambda)**N`` in polar form; a monomial's image is
    the sum of its keys' terms times their rows.  The generators are built
    once, at the final N.  The trace, the report and each error, with the N
    that raises it, are those of measuring one N at a time with generators,
    monomials and the diagonal evaluator of :mod:`~hyperalg.dynamics`, in
    the order that takes them: the survivor coefficients, then any term
    coefficient that is not a finite double ("product overflows"), then
    monomial by monomial ``|phi(lambda)|**N`` past the guard and a nonzero
    term on a row past it, then a distance that is not finite.  The
    residuals agree with that measurement to rounding: the sums take the
    same terms ungrouped where the monomials merge them.

    Returns the report fields and the survivor values c_j^m phi_j^N / N^K.
    Raises ThetaMarginError first when the bound of a counted term stays
    above epsilon at every N <= ``n_max``, and IterationLimitError, with the
    trace so far, when N passes ``n_max`` or the coefficients overflow.
    """
    b = [c for c, _ in target.terms]
    gammas = [f / m for _, f in target.terms]
    phi_surv = eval_symbol_array(spec, [m * g for g in gammas]).tolist()
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
    # per key: its contraction ratio, the parts of its log-magnitude that do
    # not depend on N, the phase of its weight and phi in polar form
    thetas, logs, weights, polar = [], [], [], []
    for (u, v, ell, *_), phi_val in zip(keys, eval_symbol_array(spec, freqs).tolist()):
        log_phi, theta = _contraction(phi_val, v, phi_surv, m)
        count = math.prod(  # of each generator's power, seeds aside
            multinomial_gamma(row, w, ())
            for row, w in zip(u, (v, *((e,) for e in ell)))
        )
        log_weight, arg_weight = math.log(abs(count)), 0.0
        for row, s in zip(u, seeds):
            for uij, (a, _) in zip(row, s.terms):
                if uij:
                    log_weight += uij * math.log(abs(a))
                    arg_weight += uij * cmath.phase(a)
        ell_weight = sum(ki * e for ki, e in zip(k[1:], ell))
        thetas.append(theta)
        logs.append((log_weight, log_phi, ell_weight))
        weights.append((count, log_weight, arg_weight, ell_weight))
        polar.append((math.log(abs(phi_val)) if phi_val else -math.inf, cmath.phase(phi_val)))

    # the one term magnitude, a row per term and a column per N of the
    # doubling grid, for admission, the bound sum and the Theta table:
    # log weight + sum v_j log c_j(N) + N log|phi(freq)| - ell_weight log N
    ns = [2**i for i in range(3, int(n_max).bit_length())]
    n_grid = np.array(ns, dtype=float)  # exact: every N is a power of 2
    log_n = np.log(n_grid)  # np.log = math.log at powers of 2
    log_weight, log_phi, ell_weight = np.array(logs, dtype=float).T[:, :, None]
    log_mag = np.tile(log_weight, len(ns))
    vs = np.array([v for _, v, *_ in keys])
    for j, (bj, pv) in enumerate(zip(b, phi_surv)):
        # in order of j; a term with v_j = 0 adds an exact 0 (log c_j is finite)
        log_c = (math.log(abs(bj)) + K_beta * log_n - n_grid * math.log(abs(pv))) / m
        log_mag += vs[:, j, None] * log_c
    log_mag = log_mag + n_grid * log_phi - ell_weight * log_n
    # Python's abs, not np.abs: the two round some moduli differently
    log_bound = log_mag + grid.radius * np.array([abs(f) for f in freqs])[:, None]
    log_mag, log_bound = np.minimum(log_mag, 700.0), np.minimum(log_bound, 700.0)

    # a counted term whose bound stays above epsilon at every N keeps the
    # bound sum above epsilon too, so no doubling could finish
    violations = []
    counted = [i for i, key in enumerate(keys) if key[5]]
    if ns:  # an empty grid is left to the iterate cap
        at = log_bound.argmin(axis=1).tolist()
        lowest = log_bound.min(axis=1).tolist()
        for i in counted:
            bound = math.exp(lowest[i])
            if bound > epsilon:
                u, v, _, alpha, case, _ = keys[i]
                violations.append(dict(
                    alpha=alpha, u=u, v=v, theta=thetas[i], case=case,
                    bound=bound, n=ns[at[i]],
                ))
    if violations:
        raise ThetaMarginError(
            f"{len(violations)} expansion tuples stay above epsilon at every "
            f"N <= {n_max}", entries=violations,
        )

    names = [",".join(map(str, alpha)) for alpha in targets]
    alphas = [tuple(alpha[i] for i in perm) for alpha in targets]
    terms = _TermImages(
        grid, keys, freqs, weights, polar, seeds, k, alphas, targets.values()
    )
    counted_bounds = log_bound[counted]

    def bound_sum(col):
        total = 0.0  # math.exp, in term order: np.exp and np.sum round otherwise
        for x in counted_bounds[:, col].tolist():
            total += math.exp(x)
        return total

    # the loop stops only at an N whose bound sum is at most epsilon, so it
    # measures every N up to the first such N* in one batch, and each N past
    # N* in one of its own
    first = next(
        (col for col in range(len(ns)) if bound_sum(col) <= epsilon), len(ns) - 1
    )
    batches = [range(first + 1)] + [[col] for col in range(first + 1, len(ns))]
    trace: list[tuple[int, float]] = []
    for cols in filter(None, batches):
        batch, failure = [], None  # (N, c) per N
        for N in [ns[col] for col in cols]:
            # an N's error is raised once the N before it are measured
            try:
                batch.append((N, [
                    solve_coeff(bj * N**K_beta, m, pv, N) for bj, pv in zip(b, phi_surv)
                ]))
            except OverflowError:
                failure = f"survivor coefficients overflow at N = {N}"
                break
        if batch:
            dists = terms.distances(batch)
            trace += [(N, max(row)) for (N, _), row in zip(batch, dists)]
        if failure is not None:
            raise IterationLimitError(failure, trace=trace)
        N, c = batch[-1]
        residuals = dict(zip(names, dists[-1]))
        col = cols[-1]
        if trace[-1][1] <= epsilon and bound_sum(col) <= epsilon:
            break
    else:
        raise IterationLimitError(
            f"residual target {epsilon} not met by N = {n_max}", trace=trace
        )

    gens = [seeds[0] + ExpPoly.of(list(zip(c, gammas)))] + [
        s + ExpPoly.of([(N**-ki, 0j)]) for s, ki in zip(seeds[1:], k[1:])
    ]
    generators = [gens[perm.index(i)] for i in range(len(gens))]
    theta_table = tuple(
        ThetaEntry(
            u, v, ell, alpha, theta, case,
            magnitude=math.exp(lm), bound=math.exp(lb),
        )
        for (u, v, ell, alpha, case, _), theta, lm, lb in zip(
            keys, thetas, log_mag[:, col].tolist(), log_bound[:, col].tolist()
        )
    )
    survivor_values = [
        cj**m
        * cmath.exp(complex(N * math.log(abs(pv)), N * math.atan2(pv.imag, pv.real)))
        / N**K_beta
        for cj, pv in zip(c, phi_surv)
    ]
    fields = dict(
        generators=tuple(generators), q=N, residuals=residuals,
        theta_table=theta_table, coefficients=tuple(c), trace=tuple(trace),
        bound_sum=bound_sum(col),
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
        replace(e, u=e.u[0], ell=None, alpha=None)
        for e in fields["theta_table"]
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
