"""Functions the package no longer exports, kept here as the references and
subjects of the tests that use them."""

import cmath
import dataclasses
import math

import numpy as np

from hyperalg import (
    DiskGrid,
    ExpPoly,
    TaylorPoly,
    dynamics,
    growth,
    mul_exppoly,
    scan_ray,
    symbols,
)
from hyperalg.errors import EvaluationRangeError


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


def max_modulus(spec, r: float) -> float:
    """Max of |phi| over equispaced points on the circle |z| = r."""
    if r <= 0:
        raise ValueError("radius must be positive")
    return float(np.max(np.abs(growth.eval_symbol_array(spec, r * growth._RING))))


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


def apply_symbol_taylor(phi_taylor, f_taylor, K: int) -> TaylorPoly:
    """``dynamics.apply_symbol_taylor`` with its windows as a sliding-window
    view of the zero-padded input rather than gathered through an index
    table; the guard-band checks are left out."""
    a = np.asarray(phi_taylor.coeffs, dtype=complex)
    padded = np.zeros(K + a.size, dtype=complex)
    head = f_taylor.coeffs[: padded.size]
    padded[: len(head)] = head
    windows = np.lib.stride_tricks.sliding_window_view(padded, a.size)[: K + 1]
    out = (dynamics._perm_table(K, a.size) * windows) @ a
    return TaylorPoly(tuple(out.tolist()), K)


def converged_coeffs(spec, center: complex, n_max: int, radius: float, samples: int):
    """``symbols._converged_coeffs`` with its two rings evaluated apart: phi
    on ``samples`` points for the coarse estimate, then on ``2 * samples``
    points for the fine one."""

    def contour_coeffs(n):
        angles = 2 * np.pi * np.arange(n) / n
        vals = symbols.eval_symbol_array(spec, center + radius * np.exp(1j * angles))
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
