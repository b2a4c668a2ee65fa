"""Applying a symbol's differential operator, and checking a witness report.

On an exponential polynomial the operator acts diagonally: the term
``c * exp(l z)`` maps to ``c * phi(l) * exp(l z)``; :class:`_Diagonal`
takes its powers onto a grid, for several sums in one call.
:func:`verify_witness` ties that evaluator
to the operator ``sum a_n D^n`` with two checks: phi's Taylor series
against phi at the report's frequencies, and each power against a
term-by-term sum that shares no code with :class:`_Diagonal`.

The coefficient-space action :func:`apply_symbol_taylor` is one
matrix-vector product against a cached table of factorial ratios
``(k+n)! / k!``.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import EvaluationRangeError, OracleInputError
from .exppoly import EXP_GUARD, DiskGrid, ExpPoly, TaylorPoly, _exp_row, mul_exppoly
from .symbols import SymbolSpec, eval_symbol_array, to_taylor

#: Guard band: Taylor inputs must extend this many coefficients past the
#: requested output cap (high coefficients feed low ones under D^n).
TAYLOR_GUARD = 20


def apply_symbol(spec: SymbolSpec, f: ExpPoly) -> ExpPoly:
    """Diagonal action: each term (c, l) becomes (c * phi(l), l)."""
    vals = eval_symbol_array(spec, f.frequencies()).tolist()
    return ExpPoly.of([(c * val, l) for (c, l), val in zip(f.terms, vals)])


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
    return TaylorPoly(tuple(((_perm_table(K, a.size) * windows) @ a).tolist()), K)


def sup_distance(
    f: ExpPoly | TaylorPoly, g: ExpPoly | TaylorPoly, grid: DiskGrid
) -> float:
    pts = grid.points()
    return float(np.max(np.abs(f.evaluate_array(pts) - g.evaluate_array(pts))))


class _Diagonal:
    """The q-th operator power of exponential sums on one grid, for one
    symbol, and their sup distances to targets there.

    It keeps ``log|phi|`` and ``arg phi`` at each frequency tuple from one
    evaluation (a set at which phi overflows raises and is not kept), one
    stack of the rows ``exp(l z)`` on the grid per tuple of frequency tuples
    (a shorter sum padded with zero coefficients), and the targets' values
    there per tuple of targets.
    ``phi(l)**q`` is taken in polar form, which stays accurate for q up to
    2**20 where repeated multiplication would drift; each sum's terms are
    added in :meth:`ExpPoly.evaluate_array`'s order, so :meth:`distance` is
    :func:`sup_distance` of the power bit for bit.  A distance that is not
    finite raises EvaluationRangeError, and no numpy warning."""

    def __init__(self, spec: SymbolSpec, grid: DiskGrid):
        self.spec = spec
        self.points = grid.points()
        self._polar: dict[tuple[complex, ...], list[tuple[float, float] | None]] = {}
        self._stacks: dict[tuple, tuple[np.ndarray, list[list[int]]]] = {}
        self._targets: dict[tuple[ExpPoly | TaylorPoly, ...], np.ndarray] = {}

    def image(self, fs: list[ExpPoly], q: int) -> np.ndarray:
        """The q-th operator power of each sum of ``fs`` on the grid, one
        row per sum.

        Sum by sum, it raises when phi overflows at the sum's frequencies,
        then when a power overflows, then when a row overflows that the sum
        needs: a term whose power underflows to 0 needs none."""
        if q < 0:
            raise ValueError("q must be non-negative")
        key = tuple(f.frequencies() for f in fs)
        if key not in self._stacks:
            # the row of term t of sum s at [t, s]; a padding row, and a row
            # past _exp_row's guard, is exp(0) under a zero coefficient
            table = np.zeros((max(map(len, key), default=0), len(fs)), dtype=complex)
            for s, freqs in enumerate(key):
                table[: len(freqs), s] = freqs
            w = np.multiply.outer(table, self.points)
            fits = np.max(np.abs(w.real), axis=2) <= EXP_GUARD
            w[~fits] = 0
            overflows = [np.flatnonzero(~column).tolist() for column in fits.T]
            self._stacks[key] = np.exp(w), overflows
        stack, overflows = self._stacks[key]
        coefs = np.zeros(stack.shape[:2], dtype=complex)
        for s, (f, freqs) in enumerate(zip(fs, key)):
            column = []
            if freqs not in self._polar:
                self._polar[freqs] = [
                    (math.log(abs(val)), math.atan2(val.imag, val.real)) if val else None
                    for val in eval_symbol_array(self.spec, freqs).tolist()
                ]
            for (c, l), polar in zip(f.terms, self._polar[freqs]):
                if polar is None:  # phi(l) = 0
                    factor = 0j if q else 1 + 0j
                else:
                    log_mag = q * polar[0]
                    if log_mag > EXP_GUARD:
                        raise EvaluationRangeError(
                            f"|phi({l})|^{q} overflows double precision", z=l
                        )
                    factor = cmath.exp(complex(log_mag, q * polar[1]))
                column.append(c * factor)
            coefs[: len(column), s] = column
            for t in overflows[s]:
                if coefs[t, s] != 0:
                    _exp_row(freqs[t], self.points)  # raises
        out = np.zeros(stack.shape[1:], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            # the coefficient first: numpy's complex multiply is not
            # symmetric in the last bit
            for terms in coefs[:, :, None] * stack:
                out += terms
        return out

    def distances(
        self, fs: list[ExpPoly], q: int, targets: list[ExpPoly | TaylorPoly]
    ) -> tuple[np.ndarray, list[float]]:
        """The images of :meth:`image`, and sup over the grid of
        ``|phi(D)**q f - target|`` for each sum f and its target."""
        images = self.image(fs, q)
        key = tuple(targets)
        with np.errstate(over="ignore", invalid="ignore"):
            if key not in self._targets:
                self._targets[key] = np.array(
                    [target.evaluate_array(self.points) for target in targets]
                )
            dists = np.max(np.abs(images - self._targets[key]), axis=1).tolist()
        for dist in dists:
            if not math.isfinite(dist):  # the image, the target or their difference
                raise EvaluationRangeError(
                    f"|phi(D)^{q} f - target| overflows on the grid"
                )
        return images, dists

    def distance(self, f: ExpPoly, q: int, target: ExpPoly | TaylorPoly) -> float:
        """sup over the grid of ``|phi(D)**q f - target|``."""
        return self.distances([f], q, [target])[1][0]


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


#: Unit roundoff u of a double.
UNIT_ROUNDOFF = 2.0**-53

#: Degree of phi's Taylor series in check (a) of :func:`verify_witness`.
SERIES_DEGREE = 150

#: Tolerance of check (a), in units of ``u * sum |a_n| R**n``.
SERIES_CHECK_C = 1024.0

#: Tolerance of check (b), in units of ``u * sum |c phi(l)**q| max|exp(l z)|``.
POWER_CHECK_C = 4096.0


def _series_check(spec: SymbolSpec, powers: list[ExpPoly]) -> tuple[bool, dict]:
    """Check (a) of :func:`verify_witness`, and phi at each frequency."""
    freqs = list(dict.fromkeys(l for f in powers for l in f.frequencies()))
    phi = eval_symbol_array(spec, freqs)
    radius = max(2.0, 1.25 * max(map(abs, freqs), default=0.0))
    coeffs = np.array(to_taylor(spec, SERIES_DEGREE, radius=radius).coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(coeffs) @ np.vander([radius], coeffs.size, increasing=True)[0]
        series = np.vander(np.array(freqs, dtype=complex), coeffs.size, increasing=True)
        error = np.max(np.abs(series @ coeffs - phi), initial=0.0)
        agrees = bool(error <= SERIES_CHECK_C * UNIT_ROUNDOFF * size < math.inf)
    return agrees, dict(zip(freqs, phi.tolist()))


def _power_check(
    f: ExpPoly, phi: dict, qs: list[int], images: np.ndarray, points: np.ndarray
) -> bool:
    """Check (b) of :func:`verify_witness`, for one monomial: ``images[i]``
    is its diagonal image at ``qs[i]``."""
    coefs = np.array([[c * phi[l] ** q for c, l in f.terms] for q in qs], dtype=complex)
    coefs = coefs.reshape(len(qs), len(f.terms))
    floor = np.finfo(float).tiny * np.abs(f.coefficients())
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.exp(np.multiply.outer(f.frequencies(), points))
        size = np.maximum(np.abs(coefs), floor) @ np.max(np.abs(rows), axis=1)
        error = np.max(np.abs(images - coefs @ rows), axis=1)
        bound = POWER_CHECK_C * UNIT_ROUNDOFF * size
        return bool(np.all((error <= bound) & (bound < math.inf)))


def verify_witness(
    spec: SymbolSpec, report, grid: DiskGrid, epsilon: float
) -> tuple[bool, tuple[tuple[int, float], ...]]:
    """Re-derives every residual of a witness report from scratch, and checks
    the diagonal evaluator they come from.

    The residuals ``sup |phi(D)**q f**alpha - target|`` on the grid are
    recomputed by :class:`_Diagonal` at q/4, q/2 and q, in one kernel call
    for every monomial at each; the one at q must come in at or below
    ``epsilon`` for every monomial.  Then two checks must pass, where u is
    the unit roundoff and a NaN or an overflow fails:

    (a) Once per report: phi's Taylor series of degree SERIES_DEGREE from the
        circle of radius ``R = max(2, 1.25 max|l|)`` must match phi at every
        frequency l of the monomials within ``SERIES_CHECK_C u sum |a_n|
        R**n``.  ``sum a_n l**n`` is the q = 1 image of ``exp(l z)`` under
        ``sum a_n D^n``, whose k-th Taylor coefficient is ``sum_n a_n
        (k+n)!/k! l**(k+n)/(k+n)! = l**k/k! sum_n a_n l**n``, so (a) ties
        the phi the diagonal reads to the operator.  The series is summed
        as one product of the frequencies' Vandermonde matrix (``l**n`` by
        repeated products) with the coefficients, and ``sum |a_n| R**n`` as
        one dot product.  A complex product adds at most ``sqrt(5) u`` of
        relative error (Brent, Percival and Zimmermann, Math. Comp. 76,
        2007), so ``l**n`` carries at most ``sqrt(5) n u <= 336 u`` of
        ``|l|**n``, and the dot product's products and 150 sums add at most
        ``(sqrt(5) + 150) u sum |a_n| |l|**n``; with ``|l| < R`` the two
        stay below ``490 u sum |a_n| R**n``.  At ``|l| <= 0.8 R`` Cauchy's
        estimate puts the terms past degree 150 below ``105 u max|phi|``,
        the trapezoid rule's coefficients carry about ``u max|phi| / R**n``
        each, ``5 u max|phi|`` in the sum (Bornemann, Found. Comput. Math.
        11, 2011), and ``max|phi| <= sum |a_n| R**n``: about 600 u at
        worst, within SERIES_CHECK_C, and 4.3 u on the benchmark's witness
        reports of seeds 1-3 built on exp-quadratic, cos and sinc-pi.
        ``R**150`` must be a finite double (``R < 113``); past that the
        sums overflow and (a) fails.
    (b) Per monomial, at q = 1 and at each checked q: the diagonal image,
        the one its residual reads, must match ``sum c phi(l)**q exp(l
        z)``, taken term by term in Python complex ``**`` and ``np.exp``,
        within ``POWER_CHECK_C u sum |c phi(l)**q| max|exp(l z)|`` (a term
        below the smallest normal double counts as that size).  The sides differ in the order of the
        final sum, a few u per term, and in ``|phi|**q``, ``exp(q
        log|phi|)`` on one side: ``(|q log|phi|| + 2) u`` of a term, with
        ``|q log|phi|| <= 745`` unless it overflows or underflows.  The
        full q alone misses errors in terms that have decayed by then; q = 1
        sees every term.  The benchmark's witness reports stay within 63 u.

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

    powers = _monomials(generators, alphas)
    targets = [report.targets.get(alpha, ExpPoly.zero()) for alpha in alphas]
    diagonal = _Diagonal(spec, grid)
    images, worst = {}, {}
    for n in sorted({max(1, q // 4), max(1, q // 2), q}):
        images[n], residuals = diagonal.distances(powers, n, targets)
        worst[n] = max(residuals)
    passed = worst[q] <= epsilon
    if passed:
        passed, phi = _series_check(spec, powers)
    if passed:
        if 1 not in images:
            images[1] = diagonal.image(powers, 1)
        qs, stacked = list(images), np.array(list(images.values()))
        passed = all(
            _power_check(f, phi, qs, stacked[:, s], diagonal.points)
            for s, f in enumerate(powers)
        )
    return passed, tuple(worst.items())
