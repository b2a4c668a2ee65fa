"""Symbol specifications: the entire functions that drive the dynamics.

A symbol is described structurally rather than as a black-box callable, so
classification can read off zeros, exponents and polynomial parts.  Four
variants are supported:

* :class:`CatalogSymbol` -- named closed forms (``cos``, ``sin+exp(-z)``,
  ``sinc-pi``, ``exp``, ``exp-poly``, ``exp-quadratic``);
* :class:`ExpPolySymbol` -- an exponential polynomial;
* :class:`PolyTimesExp` -- ``exp(a z + b) * p(z)`` with ``p(0) = 1``;
* :class:`HadamardTrunc` -- ``exp(a z + b)`` times a truncated canonical
  product over a supplied zero list.

All variants evaluate pointwise and on numpy arrays, serialize to a JSON
dict with a ``kind`` discriminator (complex numbers as ``[re, im]`` pairs,
bit-exact round trip), and admit contour-integral derivatives at the origin.
Each kind also gives phi(0), phi'(0) and phi''(0) in closed form
(:func:`_jet_at_zero`), which classify, the progression search and the
multi-generator builder's phi(0) = 1 check read; ``analyze`` and the
convex-ray search of the witness builder keep the contour
(:func:`derivs_at_zero`).
"""

from __future__ import annotations

import cmath
import csv
import functools
import io
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import NoReturn, Sequence, Union

import numpy as np

from .errors import DerivativeConvergenceError, EvaluationRangeError
from .exppoly import (
    EXP_GUARD,
    ExpPoly,
    _NUMBER_TYPES,
    _float_from_json,
    _int_from_json,
    _require_all_finite,
    _require_finite,
)

CATALOG_COS = "cos"
CATALOG_SIN_PLUS_EXP = "sin+exp(-z)"
CATALOG_SINC_PI = "sinc-pi"
CATALOG_EXP = "exp"
CATALOG_EXP_POLY = "exp-poly"
CATALOG_EXP_QUADRATIC = "exp-quadratic"

_CATALOG_NAMES = (
    CATALOG_COS,
    CATALOG_SIN_PLUS_EXP,
    CATALOG_SINC_PI,
    CATALOG_EXP,
    CATALOG_EXP_POLY,
    CATALOG_EXP_QUADRATIC,
)


class SymbolSpec:
    """Marker base class for symbol variants."""


@dataclass(frozen=True)
class CatalogSymbol(SymbolSpec):
    """Named closed form, evaluated at ``scale * z`` (homothety rescaling)."""

    name: str
    a: complex = 1 + 0j
    poly: tuple[complex, ...] = (1 + 0j,)
    scale: complex = 1 + 0j

    def __post_init__(self):
        if self.name not in _CATALOG_NAMES:
            raise ValueError(f"unknown catalog symbol {self.name!r}")
        object.__setattr__(self, "a", _require_finite(self.a, "parameter a"))
        object.__setattr__(self, "scale", _require_finite(self.scale, "scale"))
        object.__setattr__(self, "poly", _require_all_finite(self.poly, "poly coeff"))


@dataclass(frozen=True)
class ExpPolySymbol(SymbolSpec):
    poly: ExpPoly = field(default_factory=ExpPoly.one)


@dataclass(frozen=True)
class PolyTimesExp(SymbolSpec):
    """``exp(a z + b) * p(z)`` with ``p(z) = 1 + a1 z + ... + ar z^r``."""

    poly: tuple[complex, ...]
    a: complex
    b: complex = 0j

    def __post_init__(self):
        poly = _require_all_finite(self.poly, "poly coeff")
        if not poly or poly[0] != 1:
            raise ValueError("polynomial part must have constant term 1")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "a", _require_finite(self.a, "exponent slope"))
        b = _require_finite(self.b, "exponent constant")
        if abs(b.real) > 1e-12:
            raise ValueError("exponent constant must be purely imaginary")
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class HadamardTrunc(SymbolSpec):
    """``exp(a z + b)`` times a truncated canonical product over ``zeros``."""

    a: complex
    b: complex
    zeros: tuple[complex, ...]
    genus: int
    truncation: int

    def __post_init__(self):
        if self.genus not in (0, 1):
            raise ValueError("genus must be 0 or 1")
        zeros = _require_all_finite(self.zeros, "zero")
        if not all(zeros):  # a complex number is false only at 0
            raise ValueError("zeros must be nonzero")
        object.__setattr__(self, "zeros", zeros)
        b = _require_finite(self.b, "exponent constant")
        if abs(b.real) > 1e-12:
            raise ValueError("exponent constant must be purely imaginary")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", _require_finite(self.a, "exponent slope"))
        if not (0 <= self.truncation <= len(zeros)):
            raise ValueError("truncation must lie within the zero list")

    @functools.cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The factor table, built on first use: ``1 / z**2`` for each pair
        (z, -z) among the zeros the product multiplies, whose two factors
        make ``1 - x**2 / z**2``, and the zeros left unpaired, in their order
        (both read-only).  A genus-1 product pairs nothing, and neither does
        a zero whose ``1 / z**2`` is zero or not finite."""
        used = np.asarray(self.zeros[: self.truncation], dtype=complex)
        with np.errstate(all="ignore"):
            inv_squares = 1 / (used * used)
        pairable = np.isfinite(inv_squares) & (inv_squares != 0) & (self.genus == 0)
        waiting: dict[complex, list[int]] = {}
        paired = []
        for i, z in enumerate(used.tolist()):
            if not pairable[i]:
                continue
            if waiting.get(-z):
                paired += [waiting[-z].pop(), i]
            else:
                waiting.setdefault(z, []).append(i)
        table = inv_squares[paired[1::2]], np.delete(used, paired)
        for column in table:
            column.flags.writeable = False
        return table


def _polyval(coeffs: Sequence[complex], z):
    total = 0.0 * z if isinstance(z, np.ndarray) else 0j
    for c in reversed(list(coeffs)):
        total = total * z + c
    return total


def _sinc_pi(w: np.ndarray) -> np.ndarray:
    """sin(pi w) / (pi w), from the series 1 - x^2/6 + x^4/120 where |w| < 1e-5."""
    w = np.asarray(w, dtype=complex)
    x = np.pi * w
    # sin(x) / x may overflow at a subnormal x, which the series replaces
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = np.asarray(np.sin(x) / x)
    small = np.abs(w) < 1e-5
    xs = np.pi * w[small]
    out[small] = 1 - xs * xs / 6 + xs**4 / 120
    return out


def _raise_out_of_range() -> NoReturn:
    raise EvaluationRangeError(
        "exp argument exceeds the overflow guard, or a product is not finite"
    )


def _guard(exponents: np.ndarray) -> None:
    # not <=, so that a NaN argument raises too
    if exponents.size and not np.abs(exponents.real).max() <= EXP_GUARD:
        _raise_out_of_range()


def _multiply_rows(factors: np.ndarray) -> np.ndarray:
    """The product of the rows of the (rows, points) array ``factors``: at
    every point one left fold over the rows, in row order.  Over two or
    more points the leading-axis reduce is that fold.  Over one point the
    reduce runs along a contiguous axis in another order, so a lone point
    takes the fold itself, one allocating multiply per row, and gets the
    bits a batch gives it."""
    if factors.shape[1] == 1:
        return functools.reduce(np.multiply, factors)
    return np.multiply.reduce(factors, axis=0)


def _evaluate(spec: SymbolSpec, zs: np.ndarray, guard) -> np.ndarray:
    """phi on the complex array ``zs``, each array of exp arguments shown to
    ``guard`` first; a truncated product shows it NaN at every point where
    phi is not finite, so a product that overflows is out of range too."""

    def exp(w):
        guard(w)
        return np.exp(w)

    if isinstance(spec, CatalogSymbol):
        w = spec.scale * zs
        if spec.name == CATALOG_COS:
            guard(1j * w)
            return np.cos(w)
        if spec.name == CATALOG_SIN_PLUS_EXP:
            guard(1j * w)
            return np.sin(w) + exp(-w)
        if spec.name == CATALOG_SINC_PI:
            guard(1j * np.pi * w)
            return _sinc_pi(w)
        if spec.name == CATALOG_EXP:
            return exp(spec.a * w)
        if spec.name == CATALOG_EXP_POLY:
            return exp(spec.a * w) * _polyval(spec.poly, w)
        if spec.name == CATALOG_EXP_QUADRATIC:
            return exp(spec.a * w * w)
        raise AssertionError(spec.name)
    if isinstance(spec, ExpPolySymbol):
        # ExpPoly.evaluate_array's sum, under this module's guard
        out = np.zeros(zs.shape, dtype=complex)
        for c, l in spec.poly.terms:
            out += c * exp(l * zs)
        return out
    if isinstance(spec, PolyTimesExp):
        return exp(spec.a * zs + spec.b) * _polyval(spec.poly, zs)
    if isinstance(spec, HadamardTrunc):
        out = exp(spec.a * zs + spec.b)
        inv_squares, lone = spec._factors
        with np.errstate(over="ignore", invalid="ignore"):
            if inv_squares.size:
                factors = np.multiply.outer(inv_squares, (zs * zs).reshape(-1))
                np.subtract(1, factors, out=factors)
                out = out * _multiply_rows(factors).reshape(zs.shape)
            if lone.size:
                ratios = zs[..., None] / lone
                factors = 1 - ratios
                if spec.genus == 1:
                    factors = factors * exp(ratios)
                out = out * np.prod(factors, axis=-1)
        # NaN, which the guard rejects, wherever phi is not finite
        guard(np.where(np.isfinite(out), 0.0, np.nan))
        return out
    raise TypeError(f"not a SymbolSpec: {spec!r}")


def _exp_poly_deviation(slope: float, poly, r: np.ndarray) -> np.ndarray:
    """The majorant of ``e^{a w} p(w) - p(0)`` at |w| = r, for |a| = slope:
    ``e^{slope r} p~(r) - |p(0)|``, with p~ the polynomial of the moduli of
    ``poly``, summed as ``expm1(slope r) p~(r) + (p~(r) - |p(0)|)`` so that
    no two close numbers are subtracted."""
    moduli = [abs(c) for c in poly] or [0.0]
    tail = 0.0 * r  # p~(r) - |p(0)|, by Horner's rule
    for c in reversed(moduli[1:]):
        tail = (tail + c) * r
    return np.expm1(slope * r) * (moduli[0] + tail) + tail


def _modulus_at_zero(spec: SymbolSpec) -> tuple[float, float]:
    """|phi(0)| from the structure (:func:`_jet_at_zero`), and M(0), the
    constant term of phi's majorant series: sum |c| for an exponential sum
    (never below the rounded |phi(0)|), |phi(0)| for every other kind."""
    phi0 = abs(_jet_at_zero(spec)[0])
    if isinstance(spec, ExpPolySymbol):
        return phi0, max(phi0, sum(abs(c) for c, _ in spec.poly.terms))
    return phi0, phi0


def _exp_poly_jet(a: complex, poly) -> tuple[complex, complex, complex]:
    """The value and first two derivatives at 0 of ``p(w) e^{a w}``, with
    the coefficients of p lowest first."""
    p0, p1, p2 = (*poly, 0j, 0j, 0j)[:3]
    return complex(p0), a * p0 + p1, a * a * p0 + 2 * a * p1 + 2 * p2


def _jet_at_zero(spec: SymbolSpec) -> tuple[complex, complex, complex]:
    """phi(0), phi'(0) and phi''(0) from the structure, in closed form for
    each kind: a catalog entry from its formula at w = scale z, an
    exponential sum as sum c l^k, ``p(z) e^{az+b}`` from p and a, and a
    truncated product as e^b (1, l1, l2 + l1^2) from log phi's l1 = a - sum
    1/z_k (genus 0; a at genus 1) and l2 = -sum 1/z_k^2 over the zeros it
    multiplies."""
    if isinstance(spec, CatalogSymbol):
        s = spec.scale
        if spec.name in (CATALOG_EXP, CATALOG_EXP_POLY):
            poly = spec.poly if spec.name == CATALOG_EXP_POLY else (1,)
            phi0, phi1, phi2 = _exp_poly_jet(spec.a, poly)
            return phi0, s * phi1, s * s * phi2
        phi2 = {  # every other entry is 1 + phi''(0) w^2 / 2 + O(w^3)
            CATALOG_COS: -1.0,
            CATALOG_SIN_PLUS_EXP: 1.0,
            CATALOG_SINC_PI: -math.pi**2 / 3,
            CATALOG_EXP_QUADRATIC: 2 * spec.a,
        }[spec.name]
        return 1 + 0j, 0j, phi2 * s * s
    if isinstance(spec, ExpPolySymbol):
        terms = spec.poly.terms
        return (
            complex(sum(c for c, _ in terms)),
            complex(sum(c * l for c, l in terms)),
            complex(sum(c * l * l for c, l in terms)),
        )
    if isinstance(spec, PolyTimesExp):
        e = cmath.exp(spec.b)
        return tuple(e * d for d in _exp_poly_jet(spec.a, spec.poly))
    if isinstance(spec, HadamardTrunc):
        used = spec.zeros[: spec.truncation]
        l1 = spec.a - (0 if spec.genus else sum(1 / z for z in used))
        l2 = -sum(1 / (z * z) for z in used)
        e = cmath.exp(spec.b)
        return e, e * l1, e * (l2 + l1 * l1)
    raise TypeError(f"not a SymbolSpec: {spec!r}")


def _deviation_bound(spec: SymbolSpec, t) -> np.ndarray:
    """D(t) >= sup over |z| = t of |phi(z) - phi(0)|, at each radius of the
    array ``t``: the majorant series sum |a_k| t^k of phi without its
    constant term, in closed form for each kind, except for an exponential
    sum sum c e^{l z}: |sum c l| t + sum |c| (e^{|l| t} - 1 - |l| t), its
    linear term taken whole, so that z terms which cancel (as in
    (e^{iz} + e^{-iz}) / 2 = cos z) add nothing to it.  It grows with t,
    and may be inf where it overflows (and NaN at t = 0 for sinc-pi)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        if isinstance(spec, CatalogSymbol):
            r = abs(spec.scale) * t
            if spec.name == CATALOG_COS:
                return np.cosh(r) - 1
            if spec.name == CATALOG_SIN_PLUS_EXP:
                # phi = 1 + z^2/2 - z^3/3 + ...: the odd terms of sin z and
                # e^{-z} cancel but for -2 z^k/k! at k = 3, 7, 11, ...
                return (np.cosh(r) - 1) + (np.sinh(r) - np.sin(r))
            if spec.name == CATALOG_SINC_PI:
                x = np.pi * r
                return np.sinh(x) / x - 1
            if spec.name == CATALOG_EXP:
                return np.expm1(abs(spec.a) * r)
            if spec.name == CATALOG_EXP_POLY:
                return _exp_poly_deviation(abs(spec.a), spec.poly, r)
            if spec.name == CATALOG_EXP_QUADRATIC:
                return np.expm1(abs(spec.a) * r * r)
            raise AssertionError(spec.name)
        if isinstance(spec, ExpPolySymbol):
            # phi(z) - phi(0) = (sum c l) z + sum c (e^{l z} - 1 - l z), so
            # D = sum |c| expm1(|l| t) - (sum |c l| - |sum c l|) t.  Where
            # t is small the two nearly cancel.  The first is raised by
            # 2**-48 of itself per term, which exceeds the rounding of both
            # sums and of expm1 (a few 2**-53 each) unless |l| t is in the
            # tens, so the cancellation cannot round D below its value.
            terms = spec.poly.terms
            slope = sum(abs(c * l) for c, l in terms)
            slope -= abs(sum(c * l for c, l in terms))
            raised = 1 + len(terms) * 2.0**-48
            out = -slope * t
            for c, l in terms:
                out += abs(c) * raised * np.expm1(abs(l) * t)
            return out
        if isinstance(spec, PolyTimesExp):
            return math.exp(spec.b.real) * _exp_poly_deviation(abs(spec.a), spec.poly, t)
        if isinstance(spec, HadamardTrunc):
            # e^{|a|t} prod(1 + t^2 |1/z^2|) prod(1 + t/|z|) [e^{t/|z|}] - 1,
            # summed as logs
            inv_squares, lone = spec._factors
            inv_lone = 1 / np.abs(lone)
            log_m = (
                abs(spec.a) * t
                + np.log1p(np.multiply.outer(t * t, np.abs(inv_squares))).sum(-1)
                + np.log1p(np.multiply.outer(t, inv_lone)).sum(-1)
            )
            if spec.genus == 1:
                log_m = log_m + t * inv_lone.sum()
            return math.exp(spec.b.real) * np.expm1(log_m)
    raise TypeError(f"not a SymbolSpec: {spec!r}")


def eval_symbol_array(spec: SymbolSpec, zs) -> np.ndarray:
    """Vectorized evaluation; raises :class:`EvaluationRangeError` on overflow."""
    return _evaluate(spec, np.asarray(zs, dtype=complex), _guard)


@functools.lru_cache(maxsize=64)
def _all_in_range(shape: tuple[int, ...]) -> np.ndarray:
    mask = np.ones(shape, dtype=bool)
    mask.flags.writeable = False
    return mask


def eval_symbol_masked(spec: SymbolSpec, zs) -> tuple[np.ndarray, np.ndarray]:
    """phi on ``zs`` and the mask of the points where :func:`eval_symbol_array`
    would not raise (shared and read-only when that is all of them), with NaN
    outside it.  Only when eval_symbol_array raises is the mask built."""
    zs = np.asarray(zs, dtype=complex)
    try:
        return eval_symbol_array(spec, zs), _all_in_range(zs.shape)
    except EvaluationRangeError:
        in_range = np.ones(zs.shape, dtype=bool)

    def mark(exponents):
        over = ~(np.abs(np.real(exponents)) <= EXP_GUARD)
        in_range[over.reshape(*zs.shape, -1).any(axis=-1)] = False

    with np.errstate(all="ignore"):
        values = np.asarray(_evaluate(spec, zs, mark))
    values[~in_range] = np.nan
    return values, in_range


def eval_symbol(spec: SymbolSpec, z: Union[complex, float]) -> complex:
    return complex(eval_symbol_array(spec, np.asarray([complex(z)]))[0])


# ---------------------------------------------------------------------------
# Contour derivatives (trapezoid rule on a circle; spectrally accurate for
# entire functions, with the doubled-sample difference as error estimate).
# ---------------------------------------------------------------------------

#: Contour radius of :func:`derivs_at_zero`, for low-order derivatives.
DERIV_RADIUS = 0.5

#: Fewest trapezoid samples on a contour; more when more coefficients are
#: asked for (two per coefficient for derivatives, four for :func:`to_taylor`).
CONTOUR_SAMPLES = 64

#: Largest relative disagreement between the estimates at ``samples`` and
#: ``2 * samples`` points.
CONTOUR_TOL = 1e-6


def _angles(samples: int) -> np.ndarray:
    return 2 * np.pi * np.arange(samples) / samples


@functools.lru_cache(maxsize=16)
def _unit_ring(samples: int) -> np.ndarray:
    """Read-only ``exp(1j theta_j)`` at the ``samples`` angles of
    :func:`_angles`, built once per sample count."""
    ring = np.exp(1j * _angles(samples))
    ring.flags.writeable = False
    return ring


@functools.lru_cache(maxsize=16)
def _dft_phases(n_max: int, samples: int) -> np.ndarray:
    """Read-only dense DFT matrix ``exp(-1j k theta_j)`` for k <= n_max over
    ``samples`` equispaced angles; built once per shape and reused, in place
    in one complex array."""
    phases = np.empty((n_max + 1, samples), dtype=complex)
    np.multiply.outer(np.arange(n_max + 1), _angles(samples), out=phases)
    phases *= -1j
    np.exp(phases, out=phases)
    phases.flags.writeable = False
    return phases


def _contour_coeffs(vals: np.ndarray, n_max: int, radius: float) -> np.ndarray:
    """Trapezoid-rule Taylor coefficients 0..n_max from ``vals``, phi at the
    equispaced points of a circle of ``radius`` (:func:`_angles`), times the
    cached DFT matrix of :func:`_dft_phases`.

    It serves :func:`derivs_at_zero`, whose values reports carry: analyze's
    derivatives, and the convex ray's ``w_star``, ``w_plus`` and Gamma
    window.  A dense product rather than an FFT, whose different
    summation order would move the last bits of those values; its matrices
    are small at these degrees.
    """
    samples = vals.size
    ks = np.arange(n_max + 1)
    return (_dft_phases(n_max, samples) @ vals) / samples / radius**ks


def _converged(fine: np.ndarray, coarse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fine`` with its distance to ``coarse`` as the error.

    Raises :class:`DerivativeConvergenceError` when the two disagree beyond
    ``CONTOUR_TOL`` (relative to ``max(1, |coeff|)``).
    """
    errors = np.abs(fine - coarse)
    scale = np.maximum(1.0, np.abs(fine))
    if np.any(errors > CONTOUR_TOL * scale):
        raise DerivativeConvergenceError(
            "contour derivative estimates did not converge",
            values=fine,
            errors=errors,
        )
    return fine, errors


def _converged_coeffs(
    spec: SymbolSpec, n_max: int, radius: float, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients at the origin from ``2 * samples`` points of the circle
    of ``radius``, with their distance to the estimate from ``samples``
    points as the error (:func:`_converged`).

    phi is evaluated once, on the ``2 * samples`` ring: the even angles of
    that ring are the ``samples`` angles bit for bit, so its even values
    give the coarse estimate.
    """
    vals = eval_symbol_array(spec, radius * _unit_ring(2 * samples))
    coarse = _contour_coeffs(np.ascontiguousarray(vals[::2]), n_max, radius)
    return _converged(_contour_coeffs(vals, n_max, radius), coarse)


def derivs_at_zero(
    spec: SymbolSpec, n_max: int
) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """Derivatives 0..n_max at the origin with per-entry error estimates,
    from the circle of radius ``DERIV_RADIUS``; raises
    :class:`DerivativeConvergenceError` when the estimates disagree."""
    samples = max(CONTOUR_SAMPLES, 2 * (n_max + 1))
    coeffs, errors = _converged_coeffs(spec, n_max, DERIV_RADIUS, samples)
    facts = np.array([math.factorial(k) for k in range(n_max + 1)], dtype=float)
    return tuple(complex(v) for v in coeffs * facts), tuple(
        float(e) for e in errors * facts
    )


def _fft_size(n: int) -> int:
    """The smallest ``2**j``, ``3 * 2**j`` or ``5 * 2**j`` that is at least
    ``n``: a ring numpy's FFT takes in radix-2 passes and at most one
    radix-3 or radix-5 pass."""
    return min(k << (-(-n // k) - 1).bit_length() for k in (1, 3, 5))


def to_taylor(spec: SymbolSpec, cap: int, radius: float = 2.0) -> np.ndarray:
    """The Taylor coefficients of phi at 0 up to ``z**cap``, as a complex
    array of length ``cap + 1``.

    The default contour radius is 2 rather than the small circle used for
    low-order derivatives: high-order coefficients on a sub-unit circle lose
    one bit of accuracy per order to roundoff amplification ``radius**-n``.

    As :func:`_converged_coeffs`, on ``samples =
    _fft_size(max(CONTOUR_SAMPLES, 4 (cap + 1)))`` points and their doubled
    ring (1280 points at verify's degree 150), with the same convergence
    test, but both estimates come from one ``np.fft.fft`` of the doubled
    ring's N values, with no matrix.  The fine estimate is its first
    coefficients ``F_k / N``.  The coarse one is ``(F_k + F_{k+N/2}) / N``,
    the transform of the even samples (the ``samples`` ring) folded out of
    the same spectrum: the odd samples cancel in the sum.

    Its one caller in the package is verify's check (a).  That series
    reaches no report: the check only compares its error with a roundoff
    bound.  At degree 150 a dense matrix would be 151 rows by 1280 points,
    read back from memory on every call.  The FFT's summation order moves
    the last bits; each coefficient stays within about ``u max|phi| /
    radius**n`` (Bornemann, Found. Comput. Math. 11, 2011).
    """
    samples = _fft_size(max(CONTOUR_SAMPLES, 4 * (cap + 1)))
    vals = eval_symbol_array(spec, radius * _unit_ring(2 * samples))
    spectrum = np.fft.fft(vals)
    head, folded = spectrum[: cap + 1], spectrum[samples : samples + cap + 1]
    scale = vals.size * radius ** np.arange(cap + 1)
    coeffs, _ = _converged(head / scale, (head + folded) / scale)
    return coeffs


# ---------------------------------------------------------------------------
# Serialization: JSON-compatible values, complex numbers as [re, im].
# ---------------------------------------------------------------------------

#: The ``kind`` tag of each symbol variant in its JSON dict.
_KINDS = {
    CatalogSymbol: "catalog",
    ExpPolySymbol: "exppoly",
    PolyTimesExp: "poly-times-exp",
    HadamardTrunc: "hadamard",
}


def complexes_from_json(raw) -> list[complex]:
    """The ``[re, im]`` pairs of ``raw`` as complex numbers, in one pass.  A
    pair is exactly two finite numbers that fit a double, each a number as
    :func:`_float_from_json` reads numbers (a bool or a string is none);
    anything else raises ValueError or TypeError."""
    try:
        values = [
            complex(re, im)
            if type(re) in _NUMBER_TYPES and type(im) in _NUMBER_TYPES
            # one of the two is no number: _float_from_json raises
            else complex(_float_from_json(re), _float_from_json(im))
            for re, im in raw
        ]
    except OverflowError as exc:  # an integer too large for a double
        raise ValueError(str(exc)) from None
    if not all(map(cmath.isfinite, values)):
        raise ValueError("complex values must be finite")
    return values


def complex_from_json(pair) -> complex:
    return complexes_from_json((pair,))[0]


def exppoly_from_json(raw) -> ExpPoly:
    """An :class:`ExpPoly` from its ``[coeff, freq]`` terms, each a pair."""
    flat = complexes_from_json([x for c, f in raw for x in (c, f)])
    return ExpPoly.of(zip(flat[::2], flat[1::2]))


def _json_key(key) -> str:
    return ",".join(map(str, key)) if isinstance(key, tuple) else str(key)


def to_json_value(value):
    """``value`` as JSON data; every report is written through it.

    None, strings, ints and floats (tested first) stay; a complex number
    becomes ``[re, im]``, a numpy scalar its Python value, a tuple a list, a
    tuple dict key its entries joined with commas, an :class:`ExpPoly` its
    terms, a symbol ``{"kind": tag, **fields}`` and a dataclass its fields.
    """
    kind = type(value)
    if value is None or kind is str or kind is int or kind is float or kind is bool:
        return value
    if kind is complex:
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {_json_key(k): to_json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):  # a complex entry inline, as above
        return [
            [v.real, v.imag] if type(v) is complex else to_json_value(v) for v in value
        ]
    if isinstance(value, np.generic):
        return to_json_value(value.item())
    if isinstance(value, ExpPoly):
        return [to_json_value((complex(c), complex(f))) for c, f in value.terms]
    if isinstance(value, SymbolSpec):
        if kind is ExpPolySymbol:
            data = {"terms": value.poly}
        else:  # the fields alone, not the factor table a product caches
            data = {f.name: getattr(value, f.name) for f in fields(value)}
        return {"kind": _KINDS[kind], **to_json_value(data)}
    if is_dataclass(value):
        return to_json_value(vars(value))
    return value


def _csv_text(header, rows) -> str:
    """A CSV table (LF line ends) with every value written as its repr."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(x) for x in row] for row in rows)
    return buf.getvalue()


def symbol_from_dict(d: dict) -> SymbolSpec:
    def opt(key, default):
        value = d.get(key)
        return default if value is None else value

    kind = d.get("kind")
    if kind == "catalog":
        return CatalogSymbol(
            name=d["name"],
            a=complex_from_json(opt("a", [1.0, 0.0])),
            poly=complexes_from_json(opt("poly", [[1.0, 0.0]])),
            scale=complex_from_json(opt("scale", [1.0, 0.0])),
        )
    if kind == "exppoly":
        return ExpPolySymbol(exppoly_from_json(d["terms"]))
    if kind == "poly-times-exp":
        return PolyTimesExp(
            poly=complexes_from_json(d["poly"]),
            a=complex_from_json(d["a"]),
            b=complex_from_json(opt("b", [0.0, 0.0])),
        )
    if kind == "hadamard":
        return HadamardTrunc(
            a=complex_from_json(d["a"]),
            b=complex_from_json(opt("b", [0.0, 0.0])),
            zeros=complexes_from_json(d["zeros"]),
            genus=_int_from_json(d["genus"]),
            truncation=_int_from_json(d["truncation"]),
        )
    raise ValueError(f"unknown symbol kind {kind!r}")
