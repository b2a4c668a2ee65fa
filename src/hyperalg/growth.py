"""Growth diagnostics and geometric searches on symbols.

Everything here is numerical evidence, not proof: the true order, type and
indicator are limsups over r -> infinity, which no finite computation
decides.  The stand-ins are documented per function (typically a maximum
over the top half of the sampled window) and downstream verdicts built on
them are tagged accordingly.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationRangeError, HypothesisError, SearchFailureError
from .symbols import (
    ExpPolySymbol,
    HadamardTrunc,
    SymbolSpec,
    _raise_out_of_range,
    eval_symbol_array,
    eval_symbol_masked,
    taylor_coeffs_at,
)

#: "|phi| < 1" is enforced as |phi| <= 1 - MODULUS_MARGIN (and ">" dually).
MODULUS_MARGIN = 1e-6

#: Samples with |phi| below this are skipped when taking logs on a ray.
LOG_FLOOR = 1e-300

#: Points per circle in :func:`max_modulus` and per ray in :func:`ray_below_one`.
SCAN_SAMPLES = 256

#: :func:`find_arith_progression` tries these step lengths, smallest first,
#: each in this many equispaced directions.
PROGRESSION_STEPS = np.geomspace(1e-3, 10.0, 512)
PROGRESSION_DIRECTIONS = 360

#: After a step that no direction passes (a dead step),
#: :func:`find_arith_progression` screens the first row of the next steps in
#: one evaluation, in blocks that double up to this many steps.
SCREEN_STEPS = 16

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
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "modulus"])
        for t, m in zip(self.t_grid, self.moduli):
            writer.writerow([repr(t), repr(m)])
        return buf.getvalue()


@dataclass(frozen=True)
class GrowthEstimate:
    """Least-squares order estimate with a type estimate when the order is
    compatible with exponential growth.

    ``order`` is the slope of log log M(r) against log r over the top half
    of the window; ``type_`` is max log M(r) / r over the same half, only
    meaningful when ``order`` is within 0.2 of 1.  ``degenerate`` flags
    windows where M(r) never exceeded 1.
    """

    order: float
    type_: float
    r_window: tuple[float, float]
    quality: float
    degenerate: bool
    samples: tuple[tuple[float, float], ...]  # (r, log M(r)) pairs

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["r", "log_max_modulus"])
        for r, logm in self.samples:
            writer.writerow([repr(r), repr(logm)])
        return buf.getvalue()


@dataclass(frozen=True)
class ConvexRay:
    """A segment from ``w0`` toward ``w1`` on which ``log |phi|`` is strictly
    increasing with strictly positive second differences."""

    w0: complex
    w1: complex
    theta: float
    eta: float
    domain: tuple[float, float]
    t_grid: tuple[float, ...]
    profile: tuple[float, ...]


#: The ``SCAN_SAMPLES`` equispaced points of the unit circle (read-only).
_RING = np.exp(1j * (2 * np.pi * np.arange(SCAN_SAMPLES) / SCAN_SAMPLES))
_RING.flags.writeable = False


def max_modulus(spec: SymbolSpec, r: float) -> float:
    """Max of |phi| over equispaced points on the circle |z| = r."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return float(np.max(np.abs(eval_symbol_array(spec, r * _RING))))


def _max_moduli(spec: SymbolSpec, r_grid: list[float]):
    """Yields :func:`max_modulus` at each radius of ``r_grid`` in order,
    stopping before the first radius where evaluation overflows; one call
    per block of :func:`_screen_limit` circles."""
    limit = _screen_limit(spec)
    for start in range(0, len(r_grid), limit):
        block = np.multiply.outer(r_grid[start : start + limit], _RING)
        vals, in_range = eval_symbol_masked(spec, block)
        ok = np.logical_and.accumulate(in_range.all(axis=1))
        yield from np.max(np.abs(vals[: ok.sum()]), axis=1).tolist()
        if not ok.all():
            return


def estimate_order_type(spec: SymbolSpec, r_grid) -> GrowthEstimate:
    r_grid = [float(r) for r in r_grid]
    if len(r_grid) < 8 or r_grid != sorted(set(r_grid)):
        raise ValueError("r_grid must be strictly increasing with >= 8 points")
    if r_grid[0] <= 0:
        raise ValueError("radius must be positive")
    # the window is truncated where evaluation overflows
    pairs = [
        (r, math.log(max(m, LOG_FLOOR)))
        for r, m in zip(r_grid, _max_moduli(spec, r_grid))
    ]
    if len(pairs) < 4:
        raise EvaluationRangeError(
            "symbol overflows on almost the entire requested window"
        )
    top = pairs[len(pairs) // 2 :]
    usable = [(r, lm) for r, lm in top if lm > 0]
    window = (pairs[0][0], pairs[-1][0])
    if not usable:
        return GrowthEstimate(0.0, 0.0, window, 0.0, True, tuple(pairs))
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
        type_ = max(lm / r for r, lm in top)
        type_ = max(type_, 0.0)
    return GrowthEstimate(order, type_, window, resid, False, tuple(pairs))


def scan_ray(spec: SymbolSpec, theta: float, t_grid) -> RayScan:
    ts = np.asarray([float(t) for t in t_grid], dtype=float)
    vals = eval_symbol_array(spec, ts * cmath.exp(1j * theta))
    return RayScan(float(theta), tuple(ts), tuple(float(a) for a in np.abs(vals)))


def indicator(spec: SymbolSpec, theta: float, r_grid) -> float:
    """Directional growth rate: max of log|phi(t e^{i theta})| / t over the
    top half of the window.  Samples where |phi| < 1e-300 are skipped (log
    singularities at zeros on the ray do not affect the limsup)."""
    return _top_rate(scan_ray(spec, theta, r_grid))


def _top_rate(scan: RayScan) -> float:
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
    the first sample already fails."""
    ts = _ray_samples(t_max)
    vals = np.abs(eval_symbol_array(spec, ts * cmath.exp(1j * theta)))
    return _last_below_one(ts, vals)


def first_ray_below_one(
    spec: SymbolSpec, thetas, t_max: float, r_min: float
) -> float | None:
    """The first of ``thetas`` whose :func:`ray_below_one` radius is at
    least ``r_min``; None when no direction has one.

    :func:`_screen_limit` rays are evaluated per call, each row judged by
    :func:`ray_below_one`'s rule.  The scan raises at the first ray that
    overflows, where a loop of :func:`ray_below_one` calls would.
    """
    ts = _ray_samples(t_max)
    thetas = [float(theta) for theta in thetas]
    limit = _screen_limit(spec)
    for start in range(0, len(thetas), limit):
        block = thetas[start : start + limit]
        directions = np.asarray([cmath.exp(1j * theta) for theta in block])
        vals, in_range = eval_symbol_masked(spec, ts * directions[:, None])
        for theta, mods, ok in zip(block, np.abs(vals), in_range.all(axis=1)):
            if not ok:
                _raise_out_of_range()
            r = _last_below_one(ts, mods)
            if r is not None and r >= r_min:
                return theta
    return None


def _screen_limit(spec: SymbolSpec) -> int:
    """Most rows per evaluation call, for the progression screens, the
    circles of :func:`_max_moduli` and the rays of
    :func:`first_ray_below_one`: ``SCREEN_STEPS`` over the factors one
    point costs.  A truncated product with many zeros, whose single row
    already costs far more than a call, keeps one row per call."""
    if isinstance(spec, HadamardTrunc):
        factors = spec.truncation + 1
    elif isinstance(spec, ExpPolySymbol):
        factors = len(spec.poly.terms)
    else:
        factors = 1
    return max(1, SCREEN_STEPS // max(factors, 1))


def _row_passes(spec: SymbolSpec, points: np.ndarray, margin: float) -> np.ndarray:
    """Where |phi| <= 1 - margin on the rows of ``points``, from one
    evaluation; a row that overflows passes nowhere."""
    vals, in_range = eval_symbol_masked(spec, points)
    passes = np.abs(vals) <= 1 - margin
    return passes if in_range.all() else passes & in_range.all(axis=1, keepdims=True)


def _live_steps(spec: SymbolSpec, rays: np.ndarray, margin: float):
    """Yields ``(t, where row 1 passes)`` for every progression step t, in
    order, that some direction passes in row 1 (a live step).

    Row 1 is evaluated in blocks of steps: one step at first, twice as many
    after a block of dead steps, up to :func:`_screen_limit`, and one again
    after a block with a live step.
    """
    limit = _screen_limit(spec)
    block, start = 1, 0
    while start < PROGRESSION_STEPS.size:
        ts = PROGRESSION_STEPS[start : start + block]
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

    One sweep serves every length.  At each step the rows ``j a`` (all
    directions at once) are tested for j = 1, 2, ... while some direction
    has passed every row so far; the step is left at the first empty row,
    or at the first row that overflows.  Row 1 comes from
    :func:`_live_steps`, which screens runs of dead steps in one call.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    rays = np.exp(
        2j * np.pi * np.arange(PROGRESSION_DIRECTIONS) / PROGRESSION_DIRECTIONS
    )
    found: dict[int, complex | None] = dict.fromkeys(range(1, m + 1))
    for t, ok in _live_steps(spec, rays, margin):
        for j in range(1, m + 1):
            if j > 1:
                ok = ok & _row_passes(spec, ((j * t) * rays)[None], margin)[0]
            hits = np.nonzero(ok)[0]
            if not hits.size:
                break
            if found[j] is None:
                found[j] = complex(t * rays[hits[0]])
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
        return -cmath.phase(a2) / 2
    thetas = 2 * np.pi * np.arange(4096) / 4096
    m1 = np.real(a1 * np.exp(1j * thetas)) / abs(a1)
    m2 = np.real(a2 * np.exp(2j * thetas)) / abs(a2)
    scores = np.minimum(m1, m2)
    best = int(np.argmax(scores))
    if scores[best] <= 0:
        raise SearchFailureError(
            "no direction satisfied both half-plane constraints"
        )
    return float(thetas[best])


def find_convex_ray(spec: SymbolSpec, w0: complex, delta: float) -> ConvexRay:
    """A short segment out of ``w0`` on which log|phi| is strictly increasing
    and strictly convex (checked on a ``PROFILE_POINTS``-sample grid).

    Requires phi(w0) != 0 and phi''(w0) phi(w0) != phi'(w0)^2 with margin
    ``CURVATURE_MARGIN`` (after normalizing by |phi(w0)|^2).  The segment
    direction comes from :func:`convex_direction` applied to the first two
    nonconstant log-derivative coefficients; its length is halved from
    ``delta / 2`` until the discrete profile validates.  When additionally phi'(w0) != 0
    the validated domain extends through ``w0`` to [-1, 1].
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    w0 = complex(w0)
    coeffs, _ = taylor_coeffs_at(spec, w0, 2)
    phi0, phi1, phi2 = coeffs[0], coeffs[1], 2 * coeffs[2]
    if abs(phi0) < 1e-12:
        raise HypothesisError("symbol vanishes (numerically) at the base point")
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
        w1 = w0 + eta * cmath.exp(1j * theta)
        ts = np.linspace(lo, 1.0, PROFILE_POINTS)
        zs = w0 + np.multiply.outer(ts, w1 - w0)
        mods = np.abs(eval_symbol_array(spec, zs))
        if np.min(mods) >= LOG_FLOOR:
            profile = np.log(mods)
            d1 = np.diff(profile)
            d2 = np.diff(d1)
            if np.all(d1 > 0) and np.all(d2 > 0):
                return ConvexRay(
                    w0=w0,
                    w1=complex(w1),
                    theta=float(theta),
                    eta=float(eta),
                    domain=(lo, 1.0),
                    t_grid=tuple(float(t) for t in ts),
                    profile=tuple(float(v) for v in profile),
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
