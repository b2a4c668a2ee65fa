"""Applying a symbol's differential operator, exactly and through an oracle.

On an exponential polynomial the operator acts diagonally: the term
``c * exp(l z)`` maps to ``c * phi(l) * exp(l z)``.  The truncated-Taylor
path applies ``sum a_n D^n`` to coefficient lists instead and knows nothing
about that diagonal structure, which makes it a genuinely independent check.

The coefficient-space kernels are whole-array numpy expressions with no
Python loop over coefficients: a truncated product is one ``np.convolve``,
and ``sum a_n D^n`` is one matrix-vector product against a cached table of
factorial ratios ``(k+n)! / k!``.  The cross-check's modulus copies and its
condition sum are array expressions too.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationRangeError, OracleInputError
from .exppoly import (
    EXP_GUARD,
    DiskGrid,
    ExpPoly,
    TaylorPoly,
    _exp_row,
    mul_exppoly,
)
from .symbols import SymbolSpec, _csv_text, eval_symbol_array, to_taylor

#: Guard band: Taylor inputs must extend this many coefficients past the
#: requested output cap (high coefficients feed low ones under D^n).
TAYLOR_GUARD = 20


def apply_symbol(spec: SymbolSpec, f: ExpPoly) -> ExpPoly:
    """Diagonal action: each term (c, l) becomes (c * phi(l), l)."""
    vals = eval_symbol_array(spec, f.frequencies()).tolist()
    return ExpPoly.of([(c * val, l) for (c, l), val in zip(f.terms, vals)])


def _power_image(f: ExpPoly, vals: list[complex], q: int) -> ExpPoly:
    """Diagonal action of the q-th operator power, given phi at the
    frequencies of ``f``.

    The eigenvalue power ``phi(l)**q`` is computed in polar form,
    ``exp(q log|phi(l)|) * exp(i q arg phi(l))``, which stays accurate for q
    up to 2**20 where repeated multiplication would drift.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    out = []
    for (c, l), val in zip(f.terms, vals):
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
            factor = cmath.exp(complex(log_mag, q * math.atan2(val.imag, val.real)))
        out.append((c * factor, l))
    return ExpPoly.of(out)


def _taylor(coeffs: np.ndarray, cap: int) -> TaylorPoly:
    return TaylorPoly(tuple(coeffs.tolist()), cap)


def taylor_mul_trunc(a: TaylorPoly, b: TaylorPoly, cap: int) -> TaylorPoly:
    """Product truncated at ``cap``: ``np.convolve`` of the first ``cap + 1``
    coefficients of each factor, zero-padded to ``cap + 1`` coefficients
    when the factors are shorter (an empty factor gives all zeros)."""
    out = np.zeros(cap + 1, dtype=complex)
    if a.coeffs and b.coeffs:  # np.convolve rejects empty inputs
        full = np.convolve(a.coeffs[: cap + 1], b.coeffs[: cap + 1])[: cap + 1]
        out[: full.size] = full
    return _taylor(out, cap)


def taylor_pow_trunc(
    a: TaylorPoly, n: int, cap: int, squares: list[TaylorPoly] | None = None
) -> TaylorPoly:
    """Truncated power by binary exponentiation (truncation is stable: the
    first ``cap + 1`` output coefficients never depend on discarded ones).

    ``squares``, when given, holds the squarings ``a, a**2, a**4, ...`` of
    this ``a`` at this ``cap`` across calls: the ones it has are reused and
    the missing ones appended, so :func:`_power_from_squarings` can form
    any smaller power later without squaring again.
    """
    if n < 0:
        raise ValueError("exponent must be non-negative")
    if squares is None:
        squares = []
    if n and not squares:
        squares.append(TaylorPoly(a.coeffs[: cap + 1], cap))
    while len(squares) < n.bit_length():
        squares.append(taylor_mul_trunc(squares[-1], squares[-1], cap))
    return _power_from_squarings(squares, n, cap)


def _power_from_squarings(squares: list[TaylorPoly], n: int, cap: int) -> TaylorPoly:
    """``a**n`` from the squarings ``squares[i] = a**(2**i)``: their product
    over the set bits i of n, lowest bit first, starting from 1."""
    result = TaylorPoly.of([1 + 0j], cap)
    for i in range(n.bit_length()):
        if n >> i & 1:
            result = taylor_mul_trunc(result, squares[i], cap)
    return result


@functools.lru_cache(maxsize=8)
def _perm_table(K: int, length: int) -> np.ndarray:
    """Read-only table of ``(k+n)! / k!`` for k <= K and n < length, as the
    running products ``(k+1)(k+2)...(k+n)``; entries past 1e300 (and all
    after them in their row) are 0, so they drop out of the sum."""
    steps = np.ones((K + 1, length))
    steps[:, 1:] = np.arange(K + 1)[:, None] + np.arange(1, length)
    with np.errstate(over="ignore"):
        perm = np.cumprod(steps, axis=1)
    table = np.where(perm > 1e300, 0.0, perm)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=8)
def _window_index(K: int, length: int) -> np.ndarray:
    """Read-only table of ``k + n`` for k <= K and n < length: row k indexes
    the window ``f_k .. f_{k+length-1}``."""
    index = np.add.outer(np.arange(K + 1), np.arange(length))
    index.flags.writeable = False
    return index


def apply_symbol_taylor(
    phi_taylor: TaylorPoly, f_taylor: TaylorPoly, K: int
) -> TaylorPoly:
    """Coefficient-space action ``sum_n a_n D^n``: output coefficient k is
    ``sum_n a_n * (k+n)! / k! * f_{k+n}``, truncated at K.

    All K+1 outputs come from one matrix-vector product: the table of
    ``(k+n)! / k!`` (see :func:`_perm_table`) times the windows
    ``f_k .. f_{k+n}`` of the zero-padded input, gathered through
    :func:`_window_index`, applied to ``a``.  Terms
    whose factorial ratio passes 1e300 or whose index ``k + n`` lies past
    the end of ``f`` are left out.

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
    a = np.asarray(phi_taylor.coeffs, dtype=complex)
    padded = np.zeros(K + a.size, dtype=complex)
    head = f_taylor.coeffs[: padded.size]
    padded[: len(head)] = head
    windows = padded[_window_index(K, a.size)]
    return _taylor((_perm_table(K, a.size) * windows) @ a, K)


def sup_distance(
    f: ExpPoly | TaylorPoly, g: ExpPoly | TaylorPoly, grid: DiskGrid
) -> float:
    pts = grid.points()
    return float(np.max(np.abs(f.evaluate_array(pts) - g.evaluate_array(pts))))


class _DiagonalResidual:
    """The sup distance on ``grid`` between the q-th operator power of f and
    ``target``, for many ``(f, q)`` whose frequency sets repeat.

    What does not change with q or with the coefficients of ``f`` is kept:
    phi at each frequency tuple of ``f`` from one evaluation, the rows
    ``exp(l z)`` on the grid, and the target on the grid.  The image is
    :func:`_power_image`'s, summed in :meth:`ExpPoly.evaluate_array`'s
    order, so the distance is :func:`sup_distance`'s bit for bit.  A
    frequency set at which phi overflows raises and is not kept.
    :meth:`image` alone reads no target, so ``target`` may then be None.
    """

    def __init__(self, spec: SymbolSpec, target: ExpPoly | TaylorPoly, grid: DiskGrid):
        self.spec, self.target = spec, target
        self.points = grid.points()
        self._phi: dict[tuple[complex, ...], list[complex]] = {}
        self._rows: dict[complex, np.ndarray] = {}
        self._target_values: np.ndarray | None = None

    def image(self, f: ExpPoly, q: int) -> np.ndarray:
        """The q-th operator power of f on the grid."""
        freqs = f.frequencies()
        if freqs not in self._phi:
            self._phi[freqs] = eval_symbol_array(self.spec, freqs).tolist()
        out = np.zeros(self.points.shape, dtype=complex)
        for c, l in _power_image(f, self._phi[freqs], q).terms:
            if l not in self._rows:
                self._rows[l] = _exp_row(l, self.points)
            out += c * self._rows[l]
        return out

    def __call__(self, f: ExpPoly, q: int) -> float:
        out = self.image(f, q)
        if self._target_values is None:
            self._target_values = self.target.evaluate_array(self.points)
        return float(np.max(np.abs(out - self._target_values)))


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
        return _csv_text(["q", "residual"], self.iterates)


#: Iterate count used for the reduced-power oracle cross-check: beyond this,
#: the coefficient-space image of phi^q is not representable in doubles for
#: general targets, while the diagonal path remains exact.
CROSS_CHECK_Q = 32

#: Taylor truncation for cross-checks.
CROSS_CHECK_K = 60


def _monomials(gens: list[ExpPoly], alphas) -> list[ExpPoly]:
    """The monomial ``prod_i f_i**alpha_i`` of each alpha, from its first
    nonzero factor.  Each generator's powers come from one table, with
    ``f**k = f**(k-1) * f``."""
    tables = [[ExpPoly.one(), g] for g in gens]
    out = []
    for alpha in alphas:
        factors = []
        for table, a in zip(tables, map(int, alpha), strict=True):
            if a < 0:
                raise ValueError("exponents must be non-negative")
            while len(table) <= a:
                table.append(mul_exppoly(table[-1], table[1]))
            if a:
                factors.append(table[a])
        out.append(functools.reduce(mul_exppoly, factors) if factors else ExpPoly.one())
    return out


def _abs_taylor(t: TaylorPoly) -> TaylorPoly:
    """The same series with every coefficient replaced by its modulus."""
    return _taylor(np.abs(t.coeffs).astype(complex), t.cap)


class _Oracle:
    """What the cross-checks of one report share, built once per
    :func:`verify_witness` call and dropped with it.

    Per contour radius it keeps phi's Taylor series, its squarings and each
    reduced power with its modulus series (:meth:`power`).  It also keeps
    the check grid, the disk of radius ``min(grid.radius, 0.5)``, with the
    rows ``exp(l z)`` on it, through one :class:`_DiagonalResidual`.
    """

    def __init__(self, spec: SymbolSpec, grid: DiskGrid):
        self.spec = spec
        radius = min(grid.radius, 0.5)
        self.radius_powers = radius ** np.arange(CROSS_CHECK_K + 1)
        self.diagonal = _DiagonalResidual(
            spec, None, DiskGrid(radius, grid.samples, grid.circles)
        )
        self._series: dict[float, tuple[TaylorPoly, list, dict]] = {}

    def power(self, contour: float, n: int) -> tuple[TaylorPoly, TaylorPoly]:
        """``phi**n`` from phi's series on the contour of radius ``contour``,
        and its modulus series.  The first power at a radius squares; the
        others are products of those squarings, bit for bit the fresh
        binary power (:func:`taylor_pow_trunc`)."""
        cap = CROSS_CHECK_K + TAYLOR_GUARD
        if contour not in self._series:
            self._series[contour] = (to_taylor(self.spec, cap, radius=contour), [], {})
        phi_t, squares, powers = self._series[contour]
        if n not in powers:
            if len(squares) >= n.bit_length():
                power = _power_from_squarings(squares, n, cap)
            else:
                power = taylor_pow_trunc(phi_t, n, cap, squares)
            powers[n] = (power, _abs_taylor(power))
        return powers[n]


def _cross_check(
    spec: SymbolSpec, f: ExpPoly, q: int, grid: DiskGrid, oracle: _Oracle | None = None
) -> float:
    """Sup distance between the diagonal and coefficient-space images under a
    reduced operator power, on the check grid of ``oracle`` (a new
    :class:`_Oracle` of ``spec`` and ``grid`` when None).

    The reduced power starts at min(q, CROSS_CHECK_Q) and is halved, while
    it is above 1, as long as the coefficient-space sum is ill-conditioned:
    when the terms ``a_n (k+n)!/k! f_{k+n}`` are huge compared with the
    result, the sum loses absolute accuracy to cancellation, which would
    fail the comparison for reasons unrelated to correctness of either
    path.  The condition estimate is the same sum with every factor
    replaced by its modulus, evaluated on the check circle."""
    if oracle is None:
        oracle = _Oracle(spec, grid)
    cap = CROSS_CHECK_K + TAYLOR_GUARD
    # contour radius above the largest frequency of f: the n-th coefficient's
    # roundoff floor gets multiplied by |freq|^n on the way back, so it must
    # decay at least as fast as |freq|^-n
    fmax = max((abs(freq) for _, freq in f.terms), default=0.0)
    contour = max(2.0, 1.25 * fmax)
    f_t = TaylorPoly.from_exppoly(f, cap)
    f_abs = _abs_taylor(f_t)
    q_red = min(q, CROSS_CHECK_Q)
    while True:
        phi_pow, phi_abs = oracle.power(contour, q_red)
        cond_poly = apply_symbol_taylor(phi_abs, f_abs, CROSS_CHECK_K)
        cond = float(np.abs(cond_poly.coeffs) @ oracle.radius_powers)
        if cond <= 1e4 or q_red <= 1:
            break
        q_red //= 2
    series = apply_symbol_taylor(phi_pow, f_t, CROSS_CHECK_K)
    image = oracle.diagonal.image(f, q_red)
    return float(np.max(np.abs(image - series.evaluate_array(oracle.diagonal.points))))


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

    ``report`` is a :class:`~hyperalg.witness.WitnessReport`.  A zero
    generator, an empty list of monomials or an exponent tuple without one
    non-negative entry per generator raises ValueError.
    """
    generators: list[ExpPoly] = list(report.generators)
    q = int(report.q)
    if any(g.is_zero for g in generators):
        raise ValueError("generators must be nonzero")

    alphas = report.monomials
    if not alphas:
        raise ValueError("the report has no monomial to check")

    passed = True
    oracle = _Oracle(spec, grid)
    check_qs = sorted({max(1, q // 4), max(1, q // 2), q})
    residual_by_q = {cq: 0.0 for cq in check_qs}
    for alpha, power in zip(alphas, _monomials(generators, alphas)):
        target = report.targets.get(alpha, ExpPoly.zero())
        residual = _DiagonalResidual(spec, target, grid)
        for cq in check_qs:
            residual_by_q[cq] = max(residual_by_q[cq], residual(power, cq))
        if residual_by_q[q] > epsilon:
            passed = False
        agreement = _cross_check(spec, power, q, grid, oracle)
        if agreement > 1e-6:
            passed = False
    worst = [(cq, residual_by_q[cq]) for cq in check_qs]
    trace = OrbitTrace(tuple(worst), target_id="witness-targets", grid=grid)
    return passed, trace
