"""Functions the package no longer exports, kept here as the references and
subjects of the tests that use them.

Among them is the coefficient-space oracle: truncated Taylor series
(:class:`TaylorPoly`) and the action ``sum a_n D^n`` on them
(:func:`apply_symbol_taylor`), against which the tests hold the package's
diagonal action on exponential sums."""

import cmath
import dataclasses
import functools
import math
from typing import Sequence

import numpy as np

from hyperalg import (
    DiskGrid,
    ExpPoly,
    dynamics,
    expansion,
    growth,
    mul_exppoly,
    scan_ray,
    symbols,
)
from hyperalg.errors import EvaluationRangeError, HyperalgError, IterationLimitError

#: Guard band: Taylor inputs must extend this many coefficients past the
#: requested output cap (high coefficients feed low ones under D^n).
TAYLOR_GUARD = 20


class OracleInputError(HyperalgError):
    """A truncated-series input is shorter than the required guard band."""


def evaluate(f: ExpPoly, z) -> complex:
    """``f`` at the one point z, term by term under the overflow guard of
    ``ExpPoly.evaluate_array`` (a NaN argument raises too)."""
    z = complex(z)
    total = 0j
    for c, l in f.terms:
        w = l * z
        if not abs(w.real) <= dynamics.EXP_GUARD:
            raise EvaluationRangeError(
                f"exp argument real part {w.real:.3g} exceeds the overflow guard", z=w
            )
        total += c * cmath.exp(w)
    return total


def sub_exppoly(f: ExpPoly, g: ExpPoly) -> ExpPoly:
    """``f - g``, canonical."""
    return ExpPoly.of(list(f.terms) + [(-c, l) for c, l in g.terms])


@dataclasses.dataclass(frozen=True)
class TaylorPoly:
    """Truncated Taylor series around 0: ``coeffs[k]`` multiplies ``z**k``."""

    coeffs: tuple[complex, ...]
    cap: int

    def __post_init__(self):
        if len(self.coeffs) > self.cap + 1:
            raise ValueError("coefficient list longer than cap+1")

    @staticmethod
    def of(coeffs: Sequence[complex], cap: int | None = None) -> "TaylorPoly":
        coeffs = tuple(complex(c) for c in coeffs)
        if cap is None:
            cap = max(len(coeffs) - 1, 0)
        return TaylorPoly(coeffs, cap)

    @staticmethod
    def from_exppoly(f: ExpPoly, cap: int) -> "TaylorPoly":
        coeffs = [0j] * (cap + 1)
        for c, freq in f.terms:
            power = complex(c)
            for k in range(cap + 1):
                coeffs[k] += power
                power = power * freq / (k + 1)
        return TaylorPoly(tuple(coeffs), cap)

    def evaluate(self, z) -> complex:
        z = complex(z)
        total = 0j
        for c in reversed(self.coeffs):
            total = total * z + c
        return total

    def evaluate_array(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        total = np.zeros(zs.shape, dtype=complex)
        for c in reversed(self.coeffs):
            total = total * zs + c
        return total


def apply_symbol(spec, f: ExpPoly) -> ExpPoly:
    """Diagonal action: each term (c, l) becomes (c * phi(l), l)."""
    vals = dynamics.eval_symbol_array(spec, f.frequencies()).tolist()
    return ExpPoly.of([(c * val, l) for (c, l), val in zip(f.terms, vals)])


def sup_distance(f, g, grid: DiskGrid) -> float:
    """The largest ``|f - g|`` on ``grid``, of anything with ``evaluate_array``."""
    pts = grid.points()
    return float(np.max(np.abs(f.evaluate_array(pts) - g.evaluate_array(pts))))


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


def pow_exppoly(f: ExpPoly, n: int) -> ExpPoly:
    """n-th power as n-1 folds of ``mul_exppoly``; ``f**0`` is the constant 1."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    if n == 0:
        return ExpPoly.one()
    result = f
    for _ in range(n - 1):
        result = mul_exppoly(result, f)
    return result


def power_image(f: ExpPoly, vals: list[complex], q: int) -> ExpPoly:
    """Diagonal action of the q-th operator power, given phi at the
    frequencies of ``f``, as a canonical ``ExpPoly``: each eigenvalue power
    in polar form, ``exp(q log|phi(l)|) * exp(i q arg phi(l))``."""
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
            if log_mag > dynamics.EXP_GUARD:
                raise EvaluationRangeError(
                    f"|phi({l})|^{q} overflows double precision", z=l
                )
            factor = cmath.exp(complex(log_mag, q * math.atan2(val.imag, val.real)))
        out.append((c * factor, l))
    return ExpPoly.of(out)


def apply_symbol_power(spec, f: ExpPoly, q: int) -> ExpPoly:
    """Diagonal action of the q-th operator power: phi at every frequency of
    ``f`` in one evaluation, then the polar-form powers of
    :func:`power_image`."""
    vals = dynamics.eval_symbol_array(spec, f.frequencies()).tolist()
    return power_image(f, vals, q)


def diagonal_image(spec, f: ExpPoly, q: int, grid: DiskGrid) -> np.ndarray:
    """The q-th operator power of ``f`` on ``grid`` for one monomial alone:
    the image of :func:`apply_symbol_power`, summed row by row in term
    order."""
    points = grid.points()
    out = np.zeros(points.shape, dtype=complex)
    for c, l in apply_symbol_power(spec, f, q).terms:
        out += c * dynamics._exp_row(l, points)
    return out


def diagonal_residual(spec, f: ExpPoly, q: int, target, grid: DiskGrid) -> float:
    """The sup distance on ``grid`` between :func:`diagonal_image` and
    ``target``."""
    out = diagonal_image(spec, f, q, grid)
    return float(np.max(np.abs(out - target.evaluate_array(grid.points()))))


def indicator(spec, theta: float, r_grid) -> float:
    """Directional growth rate: max of log|phi(t e^{i theta})| / t over the
    top half of the window."""
    return growth._top_rate(scan_ray(spec, theta, r_grid))


def convex_direction(a1: complex, a2: complex) -> float:
    """``growth.convex_direction`` as it was before its scan's phase tables
    were built once at import: the angles and both phase rows afresh on
    every call."""
    a1, a2 = complex(a1), complex(a2)
    if a2 == 0:
        raise ValueError("a2 must be nonzero")
    if a1 == 0:
        return -math.atan2(a2.imag, a2.real) / 2
    thetas = 2 * np.pi * np.arange(4096) / 4096
    m1 = np.real(a1 * np.exp(1j * thetas)) / abs(a1)
    m2 = np.real(a2 * np.exp(2j * thetas)) / abs(a2)
    scores = np.minimum(m1, m2)
    best = int(np.argmax(scores))
    if scores[best] <= 0:
        raise growth.SearchFailureError(
            "no direction satisfied both half-plane constraints"
        )
    return float(thetas[best])


def catalog_zeros(name: str, count: int) -> tuple[float, ...]:
    """The first ``count`` zeros of catalog cos, ±(k + 1/2)π, or of sinc-pi,
    ±k, nearest first."""
    zeros = []
    for k in range(count):
        z = (k + 0.5) * math.pi if name == "cos" else float(k + 1)
        zeros += [z, -z]
    return tuple(zeros[:count])


def hadamard_trunc(spec, zs) -> np.ndarray:
    """phi of a truncated product as one division per zero and point, the
    kernel the factor table replaced, under the package's overflow guard."""
    zs = np.asarray(zs, dtype=complex)

    def exp(w):
        symbols._guard(w)
        return np.exp(w)

    out = exp(spec.a * zs + spec.b)
    used = np.asarray(spec.zeros[: spec.truncation], dtype=complex)
    if used.size:
        ratios = zs[..., None] / used
        factors = 1 - ratios
        if spec.genus == 1:
            factors = factors * exp(ratios)
        out = out * np.prod(factors, axis=-1)
    return out


def apply_symbol_taylor(a, f_taylor: TaylorPoly, K: int) -> TaylorPoly:
    """Coefficient-space action ``sum_n a_n D^n`` of phi's Taylor
    coefficients ``a`` (as :func:`hyperalg.to_taylor` gives them): output
    coefficient k is ``sum_n a_n * (k+n)! / k! * f_{k+n}``, truncated at K.

    All K+1 outputs come from one matrix-vector product: the table of
    ``(k+n)! / k!`` (see :func:`_perm_table`) times the sliding windows
    ``f_k .. f_{k+n}`` of the zero-padded input, applied to ``a``.  Terms
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
    a = np.asarray(a, dtype=complex)
    if a.size < 1:
        raise OracleInputError("phi has no coefficients")
    padded = np.zeros(K + a.size, dtype=complex)
    head = f_taylor.coeffs[: padded.size]
    padded[: len(head)] = head
    windows = np.lib.stride_tricks.sliding_window_view(padded, a.size)[: K + 1]
    return TaylorPoly(tuple(((_perm_table(K, a.size) * windows) @ a).tolist()), K)


def converged_coeffs(spec, n_max: int, radius: float, samples: int):
    """``symbols._converged_coeffs`` with its two rings evaluated apart: phi
    on ``samples`` points for the coarse estimate, then on ``2 * samples``
    points for the fine one."""

    def contour_coeffs(n):
        angles = 2 * np.pi * np.arange(n) / n
        vals = symbols.eval_symbol_array(spec, radius * np.exp(1j * angles))
        ks = np.arange(n_max + 1)
        return (symbols._dft_phases(n_max, n) @ vals) / n / radius**ks

    coarse = contour_coeffs(samples)
    fine = contour_coeffs(2 * samples)
    errors = np.abs(fine - coarse)
    scale = np.maximum(1.0, np.abs(fine))
    if np.any(errors > symbols.CONTOUR_TOL * scale):
        raise symbols.DerivativeConvergenceError(
            "contour derivative estimates did not converge",
            values=fine,
            errors=errors,
        )
    return fine, errors


def to_taylor(spec, cap: int, radius: float = 2.0) -> np.ndarray:
    """``symbols.to_taylor`` as it was before its estimates came from an
    FFT: both from the dense DFT matrices of ``symbols._dft_phases``, which
    at cap 150 are 151 x 604 and 151 x 1208."""
    samples = max(symbols.CONTOUR_SAMPLES, 4 * (cap + 1))
    coeffs, _ = converged_coeffs(spec, cap, radius, samples)
    return coeffs


def to_json_value(value):
    """``symbols.to_json_value`` as it was before a complex entry of a list
    or tuple was written inline: one recursive call per value."""
    kind = type(value)
    if value is None or kind is str or kind is int or kind is float or kind is bool:
        return value
    if kind is complex:
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {
            ",".join(map(str, k)) if isinstance(k, tuple) else str(k): to_json_value(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [to_json_value(v) for v in value]
    if isinstance(value, np.generic):
        return to_json_value(value.item())
    if isinstance(value, ExpPoly):
        return [to_json_value((complex(c), complex(f))) for c, f in value.terms]
    if isinstance(value, symbols.SymbolSpec):
        if kind is symbols.ExpPolySymbol:
            data = {"terms": value.poly}
        else:
            data = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return {"kind": symbols._KINDS[kind], **to_json_value(data)}
    if dataclasses.is_dataclass(value):
        return to_json_value(vars(value))
    return value


def first_ray_below_one(spec, thetas, t_max: float, r_min: float):
    """``growth.first_ray_below_one`` as it was before its live rays were
    taken in doubling blocks: ``_screen_limit`` rays per evaluation."""
    ts = growth._ray_samples(t_max)
    thetas = [float(theta) for theta in thetas]
    directions = np.asarray([cmath.exp(1j * theta) for theta in thetas])
    live = np.nonzero(
        growth._row_passes(spec, ts[0] * directions, growth.MODULUS_MARGIN)
    )[0]
    limit = growth._screen_limit(spec)
    for start in range(0, live.size, limit):
        block = live[start : start + limit]
        vals, _ = growth.eval_symbol_masked(spec, ts * directions[block, None])
        for i, mods in zip(block, np.abs(vals)):
            r = growth._last_below_one(ts, mods)
            if r is not None and r >= r_min:
                return thetas[i]
    return None


def double_until(
    spec, m, seeds, target, keys, targets, grid, epsilon, n_max,
    perm=(0,), k=(1.0,), K_beta=0,
):
    """``expansion._double_until`` as it was before every N up to the first
    bound sum within epsilon was measured in one kernel call: one N at a
    time, each N's generators and monomials from ``ExpPoly.of`` and
    ``mul_exppoly``, and one kernel call per N.  The survivor values, the
    Theta and bound table and the admission are the engine's own
    ``expansion._Terms``.  ``expansion.solve_coeff`` is looked up on its
    module at each call, so a test can patch it for both drivers."""
    terms = expansion._Terms(spec, m, seeds, target, keys, grid, k, K_beta)
    ns, log_mag, log_bound = terms.admit(epsilon, n_max)
    names = [",".join(map(str, alpha)) for alpha in targets]
    alphas = [tuple(alpha[i] for i in perm) for alpha in targets]
    # phi at a monomial's frequencies does not depend on N: one evaluator,
    # which takes every monomial at each N in one call
    diagonal = dynamics._Diagonal(spec, grid)
    trace: list[tuple[int, float]] = []
    for col, N in enumerate(ns):
        try:
            c = [
                expansion.solve_coeff(bj * N**K_beta, m, pv, N)
                for bj, pv in zip(terms.b, terms.phi_surv)
            ]
        except OverflowError:
            raise IterationLimitError(
                f"survivor coefficients overflow at N = {N}", trace=trace
            ) from None
        gens = [seeds[0] + ExpPoly.of(list(zip(c, terms.gammas)))] + [
            s + ExpPoly.of([(N**-ki, 0j)]) for s, ki in zip(seeds[1:], k[1:])
        ]
        powers = dynamics._monomials(gens, alphas)
        _, (dists,) = diagonal.images(powers, [N], list(targets.values()))
        residuals = dict(zip(names, dists))
        trace.append((N, max(residuals.values())))
        bound_sum = terms.bound_sum(log_bound[:, col])
        if trace[-1][1] <= epsilon and bound_sum <= epsilon:
            break
    else:
        raise IterationLimitError(
            f"residual target {epsilon} not met by N = {n_max}", trace=trace
        )

    survivor_values = [
        cj**m
        * cmath.exp(complex(N * math.log(abs(pv)), N * math.atan2(pv.imag, pv.real)))
        / N**K_beta
        for cj, pv in zip(c, terms.phi_surv)
    ]
    fields = dict(
        generators=tuple(gens[perm.index(i)] for i in range(len(gens))), q=N,
        residuals=residuals, coefficients=tuple(c), trace=tuple(trace),
        theta_table=terms.theta_rows(log_mag[:, col], log_bound[:, col]),
        bound_sum=bound_sum,
    )
    return fields, survivor_values
