"""Sampled growth along rays and geometric searches on symbols.

A symbol's order and type come from its structure
(:func:`hyperalg.classify._structure`), not from samples.  What is sampled
here serves the classifier's numerical routes and the witness parameters:
moduli along a ray (:func:`scan_ray`) and the directional rate read off the
top half of a scan, sublevel sets |phi| < 1 on rays and on arithmetic
progressions, and short segments on which log|phi| is convex.  A sampled
answer is evidence, not proof, and the verdicts built on it say so.  One
thing here is a proof: :func:`_dead_steps` skips the progression steps on
which |phi(0)|, less phi's majorant series without its constant term and a
rounding allowance per factor, still exceeds 1 - margin, never on a sample.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError, SearchFailureError
from .symbols import (
    ExpPolySymbol,
    HadamardTrunc,
    SymbolSpec,
    _csv_text,
    _deviation_bound,
    _modulus_at_zero,
    derivs_at_zero,
    eval_symbol_array,
    eval_symbol_masked,
)

#: "|phi| < 1" is enforced as |phi| <= 1 - MODULUS_MARGIN (and ">" dually).
MODULUS_MARGIN = 1e-6

#: Samples with |phi| below this are skipped when taking logs on a ray.
LOG_FLOOR = 1e-300

#: Points per ray in :func:`ray_below_one` and :func:`first_ray_below_one`.
SCAN_SAMPLES = 256

#: :func:`find_arith_progression` tries these step lengths, smallest first,
#: each in this many equispaced directions.
PROGRESSION_STEPS = np.geomspace(1e-3, 10.0, 512)
PROGRESSION_DIRECTIONS = 360

#: After a step that no direction passes (a dead step),
#: :func:`find_arith_progression` screens the first row of the next steps in
#: one evaluation, in blocks that double up to this many steps.
SCREEN_STEPS = 16

#: Rounding error, relative to phi's majorant, that :func:`_dead_steps`
#: allows each factor one evaluation of phi combines
#: (:func:`_factor_count`): 64 u with u = 2**-52.
EVAL_ROUNDING = 64 * 2.0**-52

#: Samples of a discrete log|phi| profile on a segment.
PROFILE_POINTS = 64

#: :func:`find_convex_ray` halves the segment at most this often.
MAX_HALVINGS = 40

#: :func:`find_convex_ray` needs |phi'' phi - phi'^2| / |phi|^2 above this.
CURVATURE_MARGIN = 1e-9


@dataclass(frozen=True)
class RayScan:
    """Moduli of a symbol along the ray ``t -> t * exp(i * direction)``."""

    direction: float
    t_grid: tuple[float, ...]
    moduli: tuple[float, ...]

    def __post_init__(self):
        if list(self.t_grid) != sorted(set(self.t_grid)):
            raise ValueError("t_grid must be strictly increasing")
        if len(self.t_grid) != len(self.moduli):
            raise ValueError("t_grid and moduli lengths differ")

    def to_csv(self) -> str:
        return _csv_text(["t", "modulus"], zip(self.t_grid, self.moduli))


@dataclass(frozen=True)
class ConvexRay:
    """A segment from the origin toward ``w1`` on which ``log |phi|`` is
    strictly increasing with strictly positive second differences."""

    w1: complex
    theta: float
    eta: float
    domain: tuple[float, float]
    t_grid: tuple[float, ...]
    profile: tuple[float, ...]


#: The ``PROGRESSION_DIRECTIONS`` unit directions of
#: :func:`find_arith_progression` (read-only).
_DIRECTIONS = np.exp(
    2j * np.pi * np.arange(PROGRESSION_DIRECTIONS) / PROGRESSION_DIRECTIONS
)
_DIRECTIONS.flags.writeable = False

#: The angles of :func:`convex_direction`'s scan, with ``e^{i theta}`` and
#: ``e^{2 i theta}`` at each (read-only).
_SCAN_THETAS = 2 * np.pi * np.arange(4096) / 4096
_SCAN_PHASES = np.exp(1j * _SCAN_THETAS), np.exp(2j * _SCAN_THETAS)
for _table in (_SCAN_THETAS, *_SCAN_PHASES):
    _table.flags.writeable = False


def scan_ray(spec: SymbolSpec, theta: float, t_grid) -> RayScan:
    ts = np.asarray([float(t) for t in t_grid], dtype=float)
    vals = eval_symbol_array(spec, ts * cmath.exp(1j * theta))
    return RayScan(float(theta), tuple(ts.tolist()), tuple(np.abs(vals).tolist()))


def _top_rate(scan: RayScan) -> float:
    """Directional growth rate: max of log|phi(t e^{i theta})| / t over the
    top half of the scan.  Samples where |phi| < 1e-300 are skipped (log
    singularities at zeros on the ray do not affect the limsup)."""
    top = list(zip(scan.t_grid, scan.moduli))[len(scan.t_grid) // 2 :]
    rates = [math.log(m) / t for t, m in top if m >= LOG_FLOOR]
    if not rates:
        raise HypothesisError("symbol vanished at every sampled point of the ray")
    return max(rates)


def _ray_samples(t_max: float) -> np.ndarray:
    return t_max * np.arange(1, SCAN_SAMPLES + 1) / SCAN_SAMPLES


def _last_below_one(ts: np.ndarray, mods: np.ndarray) -> float | None:
    """:func:`ray_below_one`'s rule on the moduli ``mods`` at ``ts``."""
    below = mods <= 1 - MODULUS_MARGIN
    if not below[0]:
        return None
    bad = np.nonzero(~below)[0]
    last = (bad[0] - 1) if bad.size else ts.size - 1
    return float(ts[last])


def ray_below_one(spec: SymbolSpec, theta: float, t_max: float) -> float | None:
    """Largest sampled r with |phi| <= 1 - margin on all of (0, r]; None when
    the first sample already fails.  A sample out of range fails."""
    ts = _ray_samples(t_max)
    vals, _ = eval_symbol_masked(spec, ts * cmath.exp(1j * theta))
    return _last_below_one(ts, np.abs(vals))


def first_ray_below_one(
    spec: SymbolSpec, thetas, t_max: float, r_min: float
) -> float | None:
    """The first of ``thetas`` whose :func:`ray_below_one` radius is at
    least ``r_min``; None when no direction has one.

    One call screens the first sample of every ray; only the rays that pass
    it are evaluated, in order, in blocks of 1, 2, 4, ... rays per call up
    to :func:`_screen_limit`, each row judged by :func:`ray_below_one`'s
    rule.  An early passing ray costs one small call.
    """
    ts = _ray_samples(t_max)
    thetas = np.asarray(thetas, dtype=float)
    directions = np.exp(1j * thetas)
    live = np.nonzero(_row_passes(spec, ts[0] * directions, MODULUS_MARGIN))[0]
    limit, start, size = _screen_limit(spec), 0, 1
    while start < live.size:
        block = live[start : start + size]
        vals, _ = eval_symbol_masked(spec, ts * directions[block, None])
        for i, mods in zip(block, np.abs(vals)):
            r = _last_below_one(ts, mods)
            if r is not None and r >= r_min:
                return float(thetas[i])
        start, size = start + size, min(2 * size, limit)
    return None


def _factor_count(spec: SymbolSpec) -> int:
    """The factors one evaluation of phi combines at a point: for a
    truncated product its exponential and the rows of its factor table (one
    per pair of zeros z, -z, one per other zero), for an exponential sum its
    terms, for every other kind 1."""
    if isinstance(spec, HadamardTrunc):
        inv_squares, lone = spec._factors
        return inv_squares.size + lone.size + 1
    if isinstance(spec, ExpPolySymbol):
        return max(len(spec.poly.terms), 1)
    return 1


def _screen_limit(spec: SymbolSpec) -> int:
    """Most rows per evaluation call, for the progression screens and the
    rays of :func:`first_ray_below_one`: ``SCREEN_STEPS`` over
    :func:`_factor_count`.  A product with many zeros, whose single row
    already costs far more than a call, keeps one row per call."""
    return max(1, SCREEN_STEPS // _factor_count(spec))


def _row_passes(spec: SymbolSpec, points: np.ndarray, margin: float) -> np.ndarray:
    """Where |phi| <= 1 - margin at ``points``, from one evaluation; a point
    out of range (NaN) passes nowhere, and fails nothing but itself."""
    vals, _ = eval_symbol_masked(spec, points)
    return np.abs(vals) <= 1 - margin


def _dead_steps(spec: SymbolSpec, steps: np.ndarray, margin: float) -> int:
    """How many leading ``steps`` phi's majorant proves dead.

    On |z| = t, |phi(z)| >= |phi(0)| - D(t), with D from
    :func:`~hyperalg.symbols._deviation_bound`, and an evaluation of phi is
    off by at most ``allowance`` M(t), where M(t) = M(0) + D(t) majorizes
    |phi| and the allowance is ``EVAL_ROUNDING`` times the
    :func:`_factor_count` of phi.  A step is dead when
    |phi(0)| - D(t) - allowance M(t) > 1 - margin, so evaluation would find
    no passing point either; the rule holds for a margin of either sign.
    |phi(0)| and M(0) come from :func:`~hyperalg.symbols._modulus_at_zero`.
    D grows with t, so the dead steps are a prefix."""
    phi0, m0 = _modulus_at_zero(spec)
    allowance = EVAL_ROUNDING * _factor_count(spec)
    # the rule, solved for D(t)
    slack = (phi0 - allowance * m0 - (1 - margin)) / (1 + allowance)
    if slack <= 0:
        return 0
    dead = _deviation_bound(spec, steps) < slack
    first_live = int(dead.argmin())  # 0 also when every step is dead
    return steps.size if dead[first_live] else first_live


def _live_steps(spec: SymbolSpec, rays: np.ndarray, margin: float):
    """Yields ``(t, where row 1 passes)`` for every progression step t, in
    order, that some direction passes in row 1 (a live step).

    The steps :func:`_dead_steps` proves dead are skipped unevaluated.
    Row 1 of the others is evaluated in blocks of steps: one step at first,
    twice as many after a block of dead steps, up to :func:`_screen_limit`,
    and one again after a block with a live step.
    """
    steps = PROGRESSION_STEPS  # read per call: tests replace the grid
    limit = _screen_limit(spec)
    block, start = 1, _dead_steps(spec, steps, margin)
    while start < steps.size:
        ts = steps[start : start + block]
        start += ts.size
        passes = _row_passes(spec, np.multiply.outer(ts, rays), margin)
        live = np.nonzero(passes.any(axis=1))[0]
        for i in live:
            yield float(ts[i]), passes[i]
        block = 1 if live.size else min(2 * block, limit)


def find_arith_progression(
    spec: SymbolSpec, m: int, margin: float = MODULUS_MARGIN
) -> dict[int, complex | None]:
    """First step ``a`` for every length k = 1..m (smallest |a| first, then
    by direction) such that |phi(j a)| <= 1 - margin for every j = 1..k;
    None for a length the grid never meets.

    One sweep serves every length.  Row 1 comes from :func:`_live_steps`,
    which skips the steps phi's majorant proves dead and screens runs of
    other dead steps in one call.  Rows 2..m of a live step are evaluated
    in the directions that pass row 1, in order, in blocks of 1, 2, 4, ...
    directions per call, and no block follows one that holds a direction
    passing all m rows: for every k, the first direction that passes rows
    1..k lies at or before it.  The block size does not restart at the next
    live step, so a run of live steps that no direction passes to the end
    soon takes one call of rows 2..m per step.  A direction keeps a length
    while it passes every row so far, and a point out of range fails its
    own direction only.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    found: dict[int, complex | None] = dict.fromkeys(range(1, m + 1))
    js = np.arange(2, m + 1, dtype=float)[:, None]
    size = 1  # directions in the next block of rows 2..m
    for t, ok in _live_steps(spec, _DIRECTIONS, margin):
        hits = np.nonzero(ok)[0]
        if found[1] is None:
            found[1] = complex(t * _DIRECTIONS[hits[0]])
        start = 0
        while found[m] is None and start < hits.size:
            block = hits[start : start + size]
            rows = _row_passes(spec, (js * t) * _DIRECTIONS[block], margin)
            alive = np.logical_and.accumulate(rows, axis=0)
            for j, row in enumerate(alive, 2):
                if not row.any():
                    break  # no direction of the block has this length at t
                if found[j] is None:
                    found[j] = complex(t * _DIRECTIONS[block[row.argmax()]])
            start, size = start + size, min(2 * size, PROGRESSION_DIRECTIONS)
        if found[m] is not None:
            break  # a hit of length m is a hit of every shorter length
    return found


def convex_direction(a1: complex, a2: complex) -> float:
    """An angle theta with Re(a1 e^{i theta}) >= 0 (strict when a1 != 0) and
    Re(a2 e^{2 i theta}) > 0.

    For a1 = 0 the closed form theta = -Arg(a2)/2 is exact; otherwise the
    admissible set is a nonempty open arc and a dense scan picks the angle
    maximizing the smaller of the two normalized margins.
    """
    a1, a2 = complex(a1), complex(a2)
    if a2 == 0:
        raise ValueError("a2 must be nonzero")
    if a1 == 0:
        return -math.atan2(a2.imag, a2.real) / 2
    m1 = np.real(a1 * _SCAN_PHASES[0]) / abs(a1)
    m2 = np.real(a2 * _SCAN_PHASES[1]) / abs(a2)
    scores = np.minimum(m1, m2)
    best = int(np.argmax(scores))
    if scores[best] <= 0:
        raise SearchFailureError(
            "no direction satisfied both half-plane constraints"
        )
    return float(_SCAN_THETAS[best])


def _convex_log_profile(mods: np.ndarray) -> np.ndarray | None:
    """log ``mods``, the moduli of phi at equispaced points of a segment,
    when that profile is strictly increasing and strictly convex and no
    modulus is below LOG_FLOOR; else None."""
    if not np.min(mods) >= LOG_FLOOR:
        return None
    profile = np.log(mods)
    d1 = np.diff(profile)
    return profile if np.all(d1 > 0) and np.all(np.diff(d1) > 0) else None


def find_convex_ray(spec: SymbolSpec, delta: float) -> ConvexRay:
    """A short segment out of the origin on which log|phi| is strictly
    increasing and strictly convex (checked on a ``PROFILE_POINTS``-sample
    grid).

    Requires phi(0) != 0 and phi''(0) phi(0) != phi'(0)^2 with margin
    ``CURVATURE_MARGIN`` (after normalizing by |phi(0)|^2), each read from
    :func:`derivs_at_zero`.  The segment direction comes from
    :func:`convex_direction` applied to the first two nonconstant
    log-derivative coefficients; its length is halved from ``delta / 2``
    until the discrete profile validates.  When additionally phi'(0) != 0
    the validated domain extends through the origin to [-1, 1].
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    (phi0, phi1, phi2), _ = derivs_at_zero(spec, 2)
    if abs(phi0) < 1e-12:
        raise HypothesisError("symbol vanishes (numerically) at the origin")
    curvature = (phi2 * phi0 - phi1 * phi1) / (phi0 * phi0)
    if abs(curvature) <= CURVATURE_MARGIN:
        raise HypothesisError(
            "second-derivative condition fails: "
            f"|phi'' phi - phi'^2| / |phi|^2 = {abs(curvature):.3e}"
        )
    slope = phi1 / phi0
    if abs(slope) < 1e-12:
        slope = 0j
    theta = convex_direction(slope, curvature / 2)
    two_sided = slope != 0
    lo = -1.0 if two_sided else 0.0

    eta = delta / 2
    for _ in range(MAX_HALVINGS):
        w1 = eta * cmath.exp(1j * theta)
        ts = np.linspace(lo, 1.0, PROFILE_POINTS)
        zs = np.multiply.outer(ts, w1)
        profile = _convex_log_profile(np.abs(eval_symbol_array(spec, zs)))
        if profile is not None:
            return ConvexRay(
                w1=complex(w1),
                theta=float(theta),
                eta=float(eta),
                domain=(lo, 1.0),
                t_grid=tuple(ts.tolist()),
                profile=tuple(profile.tolist()),
            )
        eta /= 2
        if two_sided and eta < delta / 2 ** (MAX_HALVINGS // 2):
            # a vanishing first derivative estimate can make the two-sided
            # profile non-monotone at every scale; retreat to one-sided
            two_sided = False
            lo = 0.0
    raise SearchFailureError(
        "no segment length validated the convex increasing profile"
    )


def check_Tma_conditions(
    spec: SymbolSpec, theta: float, t_max: float, R_grid
) -> tuple[float, float] | None:
    """Looks for the pair (r, R): |phi| < 1 on (0, r] along the ray, and a
    later radius R where |phi| strictly exceeds both 1 and the directional
    growth envelope exp(h(theta) R) estimated from the same window."""
    r = ray_below_one(spec, theta, t_max)
    if r is None:
        return None
    scan = scan_ray(spec, theta, R_grid)
    try:
        h_hat = _top_rate(scan)
    except HypothesisError:
        return None
    for R, mod in zip(scan.t_grid, scan.moduli):
        if mod >= LOG_FLOOR and math.log(mod) > max(0.0, h_hat * R) + MODULUS_MARGIN:
            return (r, float(R))
    return None
