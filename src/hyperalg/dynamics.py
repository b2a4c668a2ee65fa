"""The verifier: applying a symbol's differential operator, and checking a
witness report.

On an exponential polynomial the operator acts diagonally: the term
``c * exp(l z)`` maps to ``c * phi(l) * exp(l z)``; :class:`_Diagonal`
takes its powers onto a grid, for several sums at several iterate counts in
one call.  :func:`verify_witness` ties that evaluator to the operator
``sum a_n D^n`` with two checks: phi's Taylor series against phi at the
report's frequencies, and each power against a term-by-term sum that
shares no code with :class:`_Diagonal`.  The witness builder
(:mod:`~hyperalg.expansion`) shares no module with this one.  The action
of ``sum a_n D^n`` on Taylor coefficients is no pipeline's: the tests keep
it as the oracle the diagonal action is held to.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DerivativeConvergenceError, EvaluationRangeError
from .exppoly import EXP_GUARD, DiskGrid, ExpPoly, _exp_row, mul_exppoly
from .symbols import SymbolSpec, eval_symbol_array, to_taylor


class _Diagonal:
    """The q-th operator power of exponential sums on one grid, for one
    symbol, and their sup distances to targets there, for one tuple of sums
    at several iterate counts in one call.  It serves :func:`verify_witness`
    and the tests' sequential reference of the witness builder; the builder
    itself measures from its table of terms.

    It keeps ``log|phi|`` and ``arg phi`` at each frequency tuple from one
    evaluation (a set at which phi overflows raises and is not kept), one
    stack of the rows ``exp(l z)`` on the grid per tuple of frequency tuples
    (a shorter sum padded with zero coefficients), and the targets' values
    there per tuple of targets.
    ``phi(l)**q`` is taken in polar form, which stays accurate for q up to
    2**20 where repeated multiplication would drift; each sum's terms are
    added in :meth:`ExpPoly.evaluate_array`'s order, so each distance of
    :meth:`images` is, bit for bit, the largest ``|image - target|`` of the
    power's and the target's ``evaluate_array`` on the grid.  A distance
    that is not finite raises EvaluationRangeError, and no numpy warning."""

    def __init__(self, spec: SymbolSpec, grid: DiskGrid):
        self.spec = spec
        self.points = grid.points()
        self._polar: dict[tuple[complex, ...], list[tuple[float, float] | None]] = {}
        self._stacks: dict[tuple, tuple[np.ndarray, list[list[int]]]] = {}
        self._targets: dict[tuple[ExpPoly, ...], np.ndarray] = {}

    def _coefficients(self, fs: list[ExpPoly], q: int) -> tuple[tuple, np.ndarray]:
        """The stack key of ``fs`` and the coefficients ``c phi(l)**q`` of
        its sums, one column per sum (a shorter sum padded with zeros).

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
        return key, coefs

    def images(
        self,
        fs: list[ExpPoly],
        qs: list[int],
        targets: list[ExpPoly] | None = None,
    ) -> tuple[np.ndarray, list[list[float]] | None]:
        """The q-th operator power of each sum of ``fs`` on the grid, for
        every q of ``qs``, indexed by q, sum and grid point; with
        ``targets``, one per sum, also the sup distances to them, one row
        per q.

        q by q, it raises the errors of :meth:`_coefficients`; with
        ``targets``, only after the distances at every earlier q are
        checked, as one call per q would.  The temporaries of the sum hold
        one term of every q and sum at each grid point."""
        blocks, failure = [], None  # (stack key, coefficients) per q
        for q in qs:
            try:
                blocks.append(self._coefficients(fs, q))
            except (EvaluationRangeError, ValueError) as exc:
                if targets is None or not blocks:
                    raise
                failure = exc
                break
        coefs = np.array([c for _, c in blocks])  # q, term, sum
        out = np.zeros((len(blocks), len(fs), self.points.size), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for t, rows in enumerate(self._stacks[blocks[0][0]][0]):
                # the coefficient first: numpy's complex multiply is not
                # symmetric in the last bit
                out += coefs[:, t, :, None] * rows
        if targets is None:
            return out, None
        key = tuple(targets)
        with np.errstate(over="ignore", invalid="ignore"):
            if key not in self._targets:
                self._targets[key] = np.array(
                    [target.evaluate_array(self.points) for target in targets]
                )
            dists = np.max(np.abs(out - self._targets[key]), axis=2).tolist()
        for q, row in zip(qs, dists):
            for dist in row:
                if not math.isfinite(dist):  # the image, the target or their difference
                    raise EvaluationRangeError(
                        f"|phi(D)^{q} f - target| overflows on the grid"
                    )
        if failure is not None:
            raise failure
        return out, dists

    def image(self, fs: list[ExpPoly], q: int) -> np.ndarray:
        """:meth:`images` at the one iterate count q: one row per sum."""
        return self.images(fs, [q])[0][0]


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


def _series_check(
    spec: SymbolSpec, powers: list[ExpPoly]
) -> tuple[bool, dict, str | None]:
    """Check (a) of :func:`verify_witness`, phi at each frequency, and why
    the check was skipped (None when it ran): phi's contour coefficients
    that do not converge on the circle leave nothing to check."""
    freqs = list(dict.fromkeys(l for f in powers for l in f.frequencies()))
    phi = eval_symbol_array(spec, freqs)
    radius = max(2.0, 1.25 * max(map(abs, freqs), default=0.0))
    try:
        coeffs = to_taylor(spec, SERIES_DEGREE, radius=radius)
    except DerivativeConvergenceError as exc:
        return False, {}, (
            f"phi's Taylor series of degree {SERIES_DEGREE} on the circle of "
            f"radius {radius:.6g} is not known: {exc}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(coeffs) @ np.vander([radius], coeffs.size, increasing=True)[0]
        series = np.vander(np.array(freqs, dtype=complex), coeffs.size, increasing=True)
        error = np.max(np.abs(series @ coeffs - phi), initial=0.0)
        agrees = bool(error <= SERIES_CHECK_C * UNIT_ROUNDOFF * size < math.inf)
    return agrees, dict(zip(freqs, phi.tolist())), None


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
) -> tuple[bool, tuple[tuple[int, float], ...], dict[str, str]]:
    """Re-derives every residual of a witness report from scratch, and checks
    the diagonal evaluator they come from.

    The residuals ``sup |phi(D)**q f**alpha - target|`` on the grid are
    recomputed by :class:`_Diagonal` at q/4, q/2 and q, in one kernel call
    for every monomial at all three; the one at q must come in at or below
    ``epsilon`` for every monomial.  Check (b) makes one more call, at
    q = 1, when 1 is not one of them.  Then two checks must pass, where u is
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
        estimate puts the terms past degree 150 below ``105 u max|phi|``.
        The coefficients are the trapezoid rule's on 1280 points of the
        circle, taken by one FFT (:func:`~hyperalg.symbols.to_taylor`);
        each carries about ``u max|phi| / R**n`` (Bornemann, Found. Comput.
        Math. 11, 2011; measured at most 3.1 u against the exact series of
        cos and exp-quadratic at R = 2 and 3.23), ``5 u max|phi|`` in the
        sum, and
        ``max|phi| <= sum |a_n| R**n``: about 600 u at worst, within
        SERIES_CHECK_C, and 2.7 u on the benchmark's witness reports of
        seeds 1-3 built on exp-quadratic, cos and sinc-pi.
        ``R**150`` must be a finite double (``R < 113``); past that the
        sums overflow and (a) fails.  When phi's contour coefficients do
        not converge on the circle (a DerivativeConvergenceError, as for
        exp-quadratic's default m = 6 report, at R = 6.35), there is no
        series to check: (a) is skipped and the report fails.
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

    Returns whether the report passed, the worst residual over the
    monomials at q/4, q/2 and q as ``(q, residual)`` pairs, and the reason
    for each check that was skipped, by name ("series" for (a)).  A report
    whose q is below 1 fails before any monomial is multiplied out
    (``phi(D)**0`` is the identity, so any generator would pass with its
    own monomials as targets), with an empty trace and the reason under
    "q".  So does a report whose every target is zero (a monomial missing
    from ``targets`` has target 0): any generator whose images decay would
    pass it.  Its reason is under "target".

    ``report`` is a :class:`~hyperalg.witness.WitnessReport`.  A zero
    generator or an empty list of monomials raises ValueError, and so does
    an exponent tuple without one non-negative entry per generator once the
    q and target checks pass; then a monomial whose coefficients or
    residual are not finite raises EvaluationRangeError.
    """
    generators: list[ExpPoly] = list(report.generators)
    q = int(report.q)
    if any(g.is_zero for g in generators):
        raise ValueError("generators must be nonzero")

    alphas = report.monomials
    if not alphas:
        raise ValueError("the report has no monomial to check")

    if q < 1:
        return False, (), {"q": f"q = {q} is below 1, so no check ran"}
    targets = [report.targets.get(alpha, ExpPoly.zero()) for alpha in alphas]
    if all(t.is_zero for t in targets):
        return False, (), {"target": "every target is zero, so no check ran"}
    powers = _monomials(generators, alphas)
    diagonal = _Diagonal(spec, grid)
    qs = sorted({max(1, q // 4), max(1, q // 2), q})
    images, residuals = diagonal.images(powers, qs, targets)
    trace = tuple((n, max(row)) for n, row in zip(qs, residuals))
    passed, skipped = dict(trace)[q] <= epsilon, {}
    if passed:
        passed, phi, reason = _series_check(spec, powers)
        if reason is not None:
            skipped["series"] = reason
    if passed:
        if 1 not in qs:
            qs = qs + [1]
            images = np.concatenate([images, diagonal.image(powers, 1)[None]])
        passed = all(
            _power_check(f, phi, qs, images[:, s], diagonal.points)
            for s, f in enumerate(powers)
        )
    return passed, trace, skipped
