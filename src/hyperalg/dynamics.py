"""Applying a symbol's differential operator, exactly and through an oracle.

On an exponential polynomial the operator acts diagonally: the term
``c * exp(l z)`` maps to ``c * phi(l) * exp(l z)``.  The truncated-Taylor
path applies ``sum a_n D^n`` to coefficient lists instead and knows nothing
about that diagonal structure, which makes it a genuinely independent check.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationRangeError, OracleInputError
from .exppoly import (
    EXP_GUARD,
    DiskGrid,
    ExpPoly,
    TaylorPoly,
    mul_exppoly,
    pow_exppoly,
)
from .symbols import SymbolSpec, eval_symbol, to_taylor

#: Guard band: Taylor inputs must extend this many coefficients past the
#: requested output cap (high coefficients feed low ones under D^n).
TAYLOR_GUARD = 20


def apply_symbol(spec: SymbolSpec, f: ExpPoly) -> ExpPoly:
    """Diagonal action: each term (c, l) becomes (c * phi(l), l)."""
    return ExpPoly.of([(c * eval_symbol(spec, l), l) for c, l in f.terms])


def apply_symbol_power(spec: SymbolSpec, f: ExpPoly, q: int) -> ExpPoly:
    """Diagonal action of the q-th operator power.

    The eigenvalue power ``phi(l)**q`` is computed in polar form,
    ``exp(q log|phi(l)|) * exp(i q arg phi(l))``, which stays accurate for q
    up to 2**20 where repeated multiplication would drift.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    out = []
    for c, l in f.terms:
        val = eval_symbol(spec, l)
        if val == 0:
            if q > 0:
                continue
            factor = 1 + 0j
        else:
            log_mag = q * math.log(abs(val))
            if log_mag > EXP_GUARD:
                raise EvaluationRangeError(
                    f"|phi({l})|^{q} overflows double precision", z=l
                )
            factor = cmath.exp(complex(log_mag, q * cmath.phase(val)))
        out.append((c * factor, l))
    return ExpPoly.of(out)


def taylor_mul_trunc(a: TaylorPoly, b: TaylorPoly, cap: int) -> TaylorPoly:
    coeffs = [0j] * (cap + 1)
    for i, ca in enumerate(a.coeffs):
        if i > cap:
            break
        for j, cb in enumerate(b.coeffs):
            if i + j > cap:
                break
            coeffs[i + j] += ca * cb
    return TaylorPoly(tuple(coeffs), cap)


def taylor_pow_trunc(a: TaylorPoly, n: int, cap: int) -> TaylorPoly:
    """Truncated power by binary exponentiation (truncation is stable: the
    first ``cap + 1`` output coefficients never depend on discarded ones)."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    result = TaylorPoly.of([1 + 0j], cap)
    base = TaylorPoly(a.coeffs[: cap + 1], cap)
    while n:
        if n & 1:
            result = taylor_mul_trunc(result, base, cap)
        n >>= 1
        if n:
            base = taylor_mul_trunc(base, base, cap)
    return result


def apply_symbol_taylor(
    phi_taylor: TaylorPoly, f_taylor: TaylorPoly, K: int
) -> TaylorPoly:
    """Coefficient-space action ``sum_n a_n D^n``: output coefficient k is
    ``sum_n a_n * (k+n)! / k! * f_{k+n}``, truncated at K.

    ``f_taylor`` must carry at least ``K + TAYLOR_GUARD`` coefficients; the
    guard band absorbs the downward coefficient flow so the first K+1
    outputs are trustworthy (for inputs whose tails are already negligible
    there).
    """
    need = K + TAYLOR_GUARD
    if f_taylor.cap < need or len(f_taylor.coeffs) < need + 1:
        raise OracleInputError(
            f"f needs >= {need + 1} coefficients, got {len(f_taylor.coeffs)}"
        )
    if len(phi_taylor.coeffs) < 1:
        raise OracleInputError("phi has no coefficients")
    fs = f_taylor.coeffs
    out = []
    for k in range(K + 1):
        total = 0j
        perm = 1.0  # (k+n)! / k!, updated incrementally over n
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


def sup_distance(
    f: Union[ExpPoly, TaylorPoly], g: Union[ExpPoly, TaylorPoly], grid: DiskGrid
) -> float:
    pts = grid.points()
    return float(np.max(np.abs(f.evaluate_array(pts) - g.evaluate_array(pts))))


@dataclass(frozen=True)
class OrbitTrace:
    """Residuals against a fixed target along increasing iterate counts."""

    iterates: tuple[tuple[int, float], ...]
    target_id: str
    grid: DiskGrid

    def __post_init__(self):
        qs = [q for q, _ in self.iterates]
        if qs != sorted(set(qs)):
            raise ValueError("iterate counts must be strictly increasing")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["q", "residual"])
        for q, r in self.iterates:
            writer.writerow([q, repr(r)])
        return buf.getvalue()


#: Iterate count used for the reduced-power oracle cross-check: beyond this,
#: the coefficient-space image of phi^q is not representable in doubles for
#: general targets, while the diagonal path remains exact.
CROSS_CHECK_Q = 32

#: Taylor truncation for cross-checks.
CROSS_CHECK_K = 60


def _powers(f_by_index: list[ExpPoly], alpha) -> ExpPoly:
    out = ExpPoly.one()
    for f, a in zip(f_by_index, alpha):
        if a:
            out = mul_exppoly(out, pow_exppoly(f, int(a)))
    return out


def _cross_check(spec: SymbolSpec, f: ExpPoly, q: int, grid: DiskGrid) -> float:
    """Sup distance between the diagonal and coefficient-space images under a
    reduced operator power.

    The reduced power starts at min(q, CROSS_CHECK_Q) and is halved while
    the coefficient-space sum is ill-conditioned: when the terms
    ``a_n (k+n)!/k! f_{k+n}`` are huge compared with the result, the sum
    loses absolute accuracy to cancellation, which would fail the comparison
    for reasons unrelated to correctness of either path.  The condition
    estimate is the same sum with every factor replaced by its modulus,
    evaluated on the check circle."""
    radius = min(grid.radius, 0.5)
    cap = CROSS_CHECK_K + TAYLOR_GUARD
    # contour radius above the largest frequency of f: the n-th coefficient's
    # roundoff floor gets multiplied by |freq|^n on the way back, so it must
    # decay at least as fast as |freq|^-n
    fmax = max((abs(freq) for _, freq in f.terms), default=0.0)
    phi_t = to_taylor(spec, cap, radius=max(2.0, 1.25 * fmax))
    f_t = TaylorPoly.from_exppoly(f, cap)
    f_abs = TaylorPoly(tuple(abs(c) + 0j for c in f_t.coeffs), f_t.cap)
    q_red = min(q, CROSS_CHECK_Q)
    while True:
        phi_pow = taylor_pow_trunc(phi_t, q_red, cap)
        phi_abs = TaylorPoly(
            tuple(abs(c) + 0j for c in phi_pow.coeffs), phi_pow.cap
        )
        cond_poly = apply_symbol_taylor(phi_abs, f_abs, CROSS_CHECK_K)
        cond = sum(abs(c) * radius**k for k, c in enumerate(cond_poly.coeffs))
        if cond <= 1e4 or q_red == 1:
            break
        q_red //= 2
    oracle = apply_symbol_taylor(phi_pow, f_t, CROSS_CHECK_K)
    diagonal = apply_symbol_power(spec, f, q_red)
    small_grid = DiskGrid(radius, grid.samples, grid.circles)
    return sup_distance(diagonal, oracle, small_grid)


def verify_witness(
    spec: SymbolSpec, report, grid: DiskGrid, epsilon: float
) -> tuple[bool, OrbitTrace]:
    """Re-derives every residual of a witness report from scratch.

    The full-power residuals are recomputed along the diagonal path and must
    all come in at or below ``epsilon``.  Independently, the coefficient-
    space oracle must agree with the diagonal image within 1e-6 at the
    reduced power (full-power coefficient lists overflow doubles for the
    iterate counts real witnesses need; the reduced power still catches any
    bookkeeping error in the diagonal path itself).

    ``report`` is duck-typed: it needs ``generators``, ``q``, ``m`` or
    ``exponents``, and ``targets`` (mapping of power-tuple -> ExpPoly).
    """
    generators: list[ExpPoly] = list(report.generators)
    q = int(report.q)
    if any(g.is_zero for g in generators):
        raise ValueError("generators must be nonzero")

    if getattr(report, "exponents", None) is not None:
        alphas = [tuple(a) for a in report.exponents]
    else:
        m = int(report.m)
        alphas = [(j,) for j in range(1, m + 1)]

    targets = {tuple(k): v for k, v in report.targets.items()}
    passed = True
    worst: list[tuple[int, float]] = []
    check_qs = sorted({max(1, q // 4), max(1, q // 2), q})
    residual_by_q = {cq: 0.0 for cq in check_qs}
    for alpha in alphas:
        power = _powers(generators, alpha)
        target = targets.get(tuple(alpha), ExpPoly.zero())
        for cq in check_qs:
            image = apply_symbol_power(spec, power, cq)
            r = sup_distance(image, target, grid)
            residual_by_q[cq] = max(residual_by_q[cq], r)
        if residual_by_q[q] > epsilon:
            passed = False
        agreement = _cross_check(spec, power, q, grid)
        if agreement > 1e-6:
            passed = False
    worst = [(cq, residual_by_q[cq]) for cq in check_qs]
    trace = OrbitTrace(tuple(worst), target_id="witness-targets", grid=grid)
    return passed, trace
