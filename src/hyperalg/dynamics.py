"""Applying a symbol's differential operator, exactly and through an oracle.

On an exponential polynomial the operator acts diagonally: the term
``c * exp(l z)`` maps to ``c * phi(l) * exp(l z)``; :class:`_Diagonal`
takes its powers onto a grid.  The truncated-Taylor path applies ``sum a_n
D^n`` to coefficient lists instead and knows nothing about that diagonal
structure, which makes it a genuinely independent check.

The coefficient-space kernels are whole-array numpy expressions with no
Python loop over coefficients: a truncated product is one ``np.convolve``,
and ``sum a_n D^n`` is one matrix-vector product against a cached table of
factorial ratios ``(k+n)! / k!``.
"""

from __future__ import annotations

import cmath
import functools
import math

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
from .symbols import SymbolSpec, eval_symbol_array, to_taylor

#: Guard band: Taylor inputs must extend this many coefficients past the
#: requested output cap (high coefficients feed low ones under D^n).
TAYLOR_GUARD = 20


def apply_symbol(spec: SymbolSpec, f: ExpPoly) -> ExpPoly:
    """Diagonal action: each term (c, l) becomes (c * phi(l), l)."""
    vals = eval_symbol_array(spec, f.frequencies()).tolist()
    return ExpPoly.of([(c * val, l) for (c, l), val in zip(f.terms, vals)])


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


class _Diagonal:
    """The q-th operator power of exponential sums on one grid, for one
    symbol, and its sup distance to a target there.

    It keeps phi at each frequency tuple from one evaluation (a set at which
    phi overflows raises and is not kept), the rows ``exp(l z)`` on the grid
    and each target's values there.  ``phi(l)**q`` is taken in polar form,
    which stays accurate for q up to 2**20 where repeated multiplication
    would drift; terms are summed in :meth:`ExpPoly.evaluate_array`'s order,
    so :meth:`distance` is :func:`sup_distance` of the power bit for bit.
    A distance that is not finite raises EvaluationRangeError, and no
    numpy warning."""

    def __init__(self, spec: SymbolSpec, grid: DiskGrid):
        self.spec = spec
        self.points = grid.points()
        self._phi: dict[tuple[complex, ...], list[complex]] = {}
        self._rows: dict[complex, np.ndarray] = {}
        self._targets: dict[ExpPoly | TaylorPoly, np.ndarray] = {}

    def image(self, f: ExpPoly, q: int) -> np.ndarray:
        """The q-th operator power of f on the grid."""
        if q < 0:
            raise ValueError("q must be non-negative")
        freqs = f.frequencies()
        if freqs not in self._phi:
            self._phi[freqs] = eval_symbol_array(self.spec, freqs).tolist()
        terms = []
        for (c, l), val in zip(f.terms, self._phi[freqs]):
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
            terms.append((c * factor, l))
        out = np.zeros(self.points.shape, dtype=complex)
        for c, l in terms:
            if c != 0:  # a power that underflows to 0 drops its term
                if l not in self._rows:
                    self._rows[l] = _exp_row(l, self.points)
                out += c * self._rows[l]
        return out

    def distance(self, f: ExpPoly, q: int, target: ExpPoly | TaylorPoly) -> float:
        """sup over the grid of ``|phi(D)**q f - target|``."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.image(f, q)
            if target not in self._targets:
                self._targets[target] = target.evaluate_array(self.points)
            dist = float(np.max(np.abs(out - self._targets[target])))
        if not math.isfinite(dist):  # the image, the target or their difference
            raise EvaluationRangeError(f"|phi(D)^{q} f - target| overflows on the grid")
        return dist


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

    Per contour radius it keeps phi's Taylor series, one list of its
    squarings, and each reduced power with its modulus series
    (:meth:`power`).  Its ``diagonal`` is the :class:`_Diagonal` evaluator
    of the check grid, the disk of radius ``min(grid.radius, 0.5)``.
    """

    def __init__(self, spec: SymbolSpec, grid: DiskGrid):
        self.spec = spec
        radius = min(grid.radius, 0.5)
        self.radius_powers = radius ** np.arange(CROSS_CHECK_K + 1)
        self.diagonal = _Diagonal(spec, DiskGrid(radius, grid.samples, grid.circles))
        self._series: dict[float, tuple[TaylorPoly, list, dict]] = {}

    def power(self, contour: float, n: int) -> tuple[TaylorPoly, TaylorPoly]:
        """``phi**n`` from phi's series on the contour of radius ``contour``,
        and its modulus series, from that radius's one list of squarings
        (:func:`taylor_pow_trunc`)."""
        cap = CROSS_CHECK_K + TAYLOR_GUARD
        if contour not in self._series:
            self._series[contour] = (to_taylor(self.spec, cap, radius=contour), [], {})
        phi_t, squares, powers = self._series[contour]
        if n not in powers:
            power = taylor_pow_trunc(phi_t, n, cap, squares)
            powers[n] = (power, _abs_taylor(power))
        return powers[n]


def _cross_check(oracle: _Oracle, f: ExpPoly, q: int) -> float:
    """Sup distance between the diagonal and coefficient-space images under a
    reduced operator power, on the check grid of ``oracle``.

    The reduced power starts at min(q, CROSS_CHECK_Q) and is halved, while
    it is above 1, as long as the coefficient-space sum is ill-conditioned:
    when the terms ``a_n (k+n)!/k! f_{k+n}`` are huge compared with the
    result, the sum loses absolute accuracy to cancellation, which would
    fail the comparison for reasons unrelated to correctness of either
    path.  The condition estimate is the same sum with every factor
    replaced by its modulus, evaluated on the check circle.  A series that
    overflows gives an infinite or NaN distance, and no warning."""
    cap = CROSS_CHECK_K + TAYLOR_GUARD
    # contour radius above the largest frequency of f: the n-th coefficient's
    # roundoff floor gets multiplied by |freq|^n on the way back, so it must
    # decay at least as fast as |freq|^-n
    fmax = max((abs(freq) for _, freq in f.terms), default=0.0)
    contour = max(2.0, 1.25 * fmax)
    f_t = TaylorPoly.from_exppoly(f, cap)
    f_abs = _abs_taylor(f_t)
    q_red = min(q, CROSS_CHECK_Q)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            phi_pow, phi_abs = oracle.power(contour, q_red)
            cond_poly = apply_symbol_taylor(phi_abs, f_abs, CROSS_CHECK_K)
            cond = float(np.abs(cond_poly.coeffs) @ oracle.radius_powers)
            if cond <= 1e4 or q_red <= 1:
                break
            q_red //= 2
        series = apply_symbol_taylor(phi_pow, f_t, CROSS_CHECK_K)
        image = oracle.diagonal.image(f, q_red)
        values = series.evaluate_array(oracle.diagonal.points)
        return float(np.max(np.abs(image - values)))


def verify_witness(
    spec: SymbolSpec, report, grid: DiskGrid, epsilon: float
) -> tuple[bool, tuple[tuple[int, float], ...]]:
    """Re-derives every residual of a witness report from scratch.

    The full-power residuals are recomputed along the diagonal path and must
    all come in at or below ``epsilon``.  Independently, the coefficient-
    space oracle must agree with the diagonal image within 1e-6 at the
    reduced power (full-power coefficient lists overflow doubles for the
    iterate counts real witnesses need; the reduced power still catches any
    bookkeeping error in the diagonal path itself).  A NaN agreement fails.
    Returns whether the report passed, and the worst residual over the
    monomials at q/4, q/2 and q as ``(q, residual)`` pairs.

    ``report`` is a :class:`~hyperalg.witness.WitnessReport`.  A zero
    generator, an empty list of monomials or an exponent tuple without one
    non-negative entry per generator raises ValueError; a monomial whose
    coefficients or residual are not finite raises EvaluationRangeError.
    """
    generators: list[ExpPoly] = list(report.generators)
    q = int(report.q)
    if any(g.is_zero for g in generators):
        raise ValueError("generators must be nonzero")

    alphas = report.monomials
    if not alphas:
        raise ValueError("the report has no monomial to check")

    passed = True
    diagonal, oracle = _Diagonal(spec, grid), _Oracle(spec, grid)
    check_qs = sorted({max(1, q // 4), max(1, q // 2), q})
    worst = dict.fromkeys(check_qs, 0.0)
    for alpha, power in zip(alphas, _monomials(generators, alphas)):
        target = report.targets.get(alpha, ExpPoly.zero())
        for cq in check_qs:
            worst[cq] = max(worst[cq], diagonal.distance(power, cq, target))
        agreement = _cross_check(oracle, power, q)
        # <=, so that a NaN agreement fails
        passed = passed and worst[q] <= epsilon and agreement <= 1e-6
    return passed, tuple(worst.items())
