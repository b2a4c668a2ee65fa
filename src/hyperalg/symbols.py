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
bit-exact round trip), and admit contour-integral derivatives at any point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, NoReturn, Sequence, Union

import numpy as np

from .errors import DerivativeConvergenceError, EvaluationRangeError
from .exppoly import EXP_GUARD, ExpPoly, TaylorPoly, _require_finite

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
        object.__setattr__(
            self, "poly", tuple(_require_finite(c, "poly coeff") for c in self.poly)
        )


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
        poly = tuple(_require_finite(c, "poly coeff") for c in self.poly)
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
        zeros = tuple(_require_finite(z, "zero") for z in self.zeros)
        if any(z == 0 for z in zeros):
            raise ValueError("zeros must be nonzero")
        object.__setattr__(self, "zeros", zeros)
        b = _require_finite(self.b, "exponent constant")
        if abs(b.real) > 1e-12:
            raise ValueError("exponent constant must be purely imaginary")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", _require_finite(self.a, "exponent slope"))
        if not (0 <= self.truncation <= len(zeros)):
            raise ValueError("truncation must lie within the zero list")


def _polyval(coeffs: Sequence[complex], z):
    total = 0.0 * z if isinstance(z, np.ndarray) else 0j
    for c in reversed(list(coeffs)):
        total = total * z + c
    return total


def _sinc_pi(w: np.ndarray) -> np.ndarray:
    """sin(pi w) / (pi w), from the series 1 - x^2/6 + x^4/120 where |w| < 1e-5."""
    w = np.asarray(w, dtype=complex)
    x = np.pi * w
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.asarray(np.sin(x) / x)
    small = np.abs(w) < 1e-5
    xs = np.pi * w[small]
    out[small] = 1 - xs * xs / 6 + xs**4 / 120
    return out


def _raise_out_of_range() -> NoReturn:
    raise EvaluationRangeError("exp argument exceeds the overflow guard")


def _guard(exponents: np.ndarray) -> None:
    if exponents.size and np.abs(exponents.real).max() > EXP_GUARD:
        _raise_out_of_range()


def _evaluate(spec: SymbolSpec, zs: np.ndarray, guard) -> np.ndarray:
    """phi on the complex array ``zs``, each array of exp arguments shown to
    ``guard`` first."""

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
        used = np.asarray(spec.zeros[: spec.truncation], dtype=complex)
        if used.size:
            ratios = zs[..., None] / used
            factors = 1 - ratios
            if spec.genus == 1:
                factors = factors * exp(ratios)
            out = out * np.prod(factors, axis=-1)
        return out
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
        over = np.abs(np.real(exponents)) > EXP_GUARD
        in_range[over.reshape(*zs.shape, -1).any(axis=-1)] = False

    with np.errstate(all="ignore"):
        values = np.asarray(_evaluate(spec, zs, mark))
    values[~in_range] = np.nan
    return values, in_range


def eval_symbol(spec: SymbolSpec, z: Union[complex, float]) -> complex:
    return complex(eval_symbol_array(spec, np.asarray([complex(z)]))[0])


def _in_range_values(values: np.ndarray, in_range: np.ndarray) -> Iterable[complex]:
    """``values`` as Python complex numbers: a list, or when a point is out of
    range, a lazy walk that raises there, as a loop of eval_symbol would."""
    values, in_range = values.tolist(), in_range.tolist()
    if all(in_range):
        return values
    return (v if ok else _raise_out_of_range() for v, ok in zip(values, in_range))


def _symbol_values(spec: SymbolSpec, zs: Sequence[complex]) -> Iterable[complex]:
    """phi at each of ``zs`` from one :func:`eval_symbol_masked` call."""
    return _in_range_values(*eval_symbol_masked(spec, zs))


# ---------------------------------------------------------------------------
# Contour derivatives (trapezoid rule on a circle; spectrally accurate for
# entire functions, with the doubled-sample difference as error estimate).
# ---------------------------------------------------------------------------

#: Contour radius of :func:`taylor_coeffs_at`, for low-order derivatives.
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
def _dft_phases(n_max: int, samples: int) -> np.ndarray:
    """Read-only dense DFT matrix ``exp(-1j k theta_j)`` for k <= n_max over
    ``samples`` equispaced angles; built once per shape and reused."""
    phases = np.exp(-1j * np.outer(np.arange(n_max + 1), _angles(samples)))
    phases.flags.writeable = False
    return phases


def _contour_coeffs(
    spec: SymbolSpec, center: complex, n_max: int, radius: float, samples: int
) -> np.ndarray:
    """Trapezoid-rule Taylor coefficients 0..n_max on the circle of ``radius``
    around ``center``: the symbol's values on the ring times the cached DFT
    matrix of :func:`_dft_phases`.  A dense product rather than an FFT, whose
    different summation order would move the last bits of the results."""
    vals = eval_symbol_array(spec, center + radius * np.exp(1j * _angles(samples)))
    ks = np.arange(n_max + 1)
    return (_dft_phases(n_max, samples) @ vals) / samples / radius**ks


def _converged_coeffs(
    spec: SymbolSpec, center: complex, n_max: int, radius: float, samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients from ``2 * samples`` points, with their distance to the
    estimate from ``samples`` points as the error.

    Raises :class:`DerivativeConvergenceError` when the two disagree beyond
    ``CONTOUR_TOL`` (relative to ``max(1, |coeff|)``).
    """
    coarse = _contour_coeffs(spec, center, n_max, radius, samples)
    fine = _contour_coeffs(spec, center, n_max, radius, 2 * samples)
    errors = np.abs(fine - coarse)
    scale = np.maximum(1.0, np.abs(fine))
    if np.any(errors > CONTOUR_TOL * scale):
        raise DerivativeConvergenceError(
            "contour derivative estimates did not converge",
            values=fine,
            errors=errors,
        )
    return fine, errors


def taylor_coeffs_at(
    spec: SymbolSpec, center: complex, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients of the symbol around ``center`` with error
    estimates, from the circle of radius ``DERIV_RADIUS``; raises
    :class:`DerivativeConvergenceError` when the estimates disagree."""
    samples = max(CONTOUR_SAMPLES, 2 * (n_max + 1))
    return _converged_coeffs(spec, center, n_max, DERIV_RADIUS, samples)


def derivs_at_zero(
    spec: SymbolSpec, n_max: int
) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """Derivatives at the origin with per-entry error estimates."""
    coeffs, errors = taylor_coeffs_at(spec, 0j, n_max)
    facts = np.array([math.factorial(k) for k in range(n_max + 1)], dtype=float)
    return tuple(complex(v) for v in coeffs * facts), tuple(
        float(e) for e in errors * facts
    )


def to_taylor(spec: SymbolSpec, cap: int, radius: float = 2.0) -> TaylorPoly:
    """Truncated Taylor expansion at 0.

    The default contour radius is 2 rather than the small circle used for
    low-order derivatives: high-order coefficients on a sub-unit circle lose
    one bit of accuracy per order to roundoff amplification ``radius**-n``.
    """
    samples = max(CONTOUR_SAMPLES, 4 * (cap + 1))
    coeffs, _ = _converged_coeffs(spec, 0j, cap, radius, samples)
    return TaylorPoly(tuple(complex(c) for c in coeffs), cap)


# ---------------------------------------------------------------------------
# Serialization: JSON-compatible dicts, complex numbers as [re, im].
# ---------------------------------------------------------------------------


def complex_to_json(value: complex) -> list[float]:
    value = complex(value)
    return [value.real, value.imag]


def complex_from_json(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def exppoly_to_json(f: ExpPoly) -> list:
    """Terms as ``[[coeff], [freq]]`` pairs of ``[re, im]``."""
    return [[complex_to_json(c), complex_to_json(freq)] for c, freq in f.terms]


def exppoly_from_json(raw) -> ExpPoly:
    return ExpPoly.of([(complex_from_json(c), complex_from_json(f)) for c, f in raw])


def to_json_value(value):
    """Complex numbers, numpy scalars, tuples and non-string keys of a nested
    structure made JSON-compatible."""
    if isinstance(value, complex):
        return complex_to_json(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): to_json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json_value(v) for v in value]
    return value


def symbol_to_dict(spec: SymbolSpec) -> dict:
    if isinstance(spec, CatalogSymbol):
        return {
            "kind": "catalog",
            "name": spec.name,
            "a": complex_to_json(spec.a),
            "poly": [complex_to_json(c) for c in spec.poly],
            "scale": complex_to_json(spec.scale),
        }
    if isinstance(spec, ExpPolySymbol):
        return {
            "kind": "exppoly",
            "terms": exppoly_to_json(spec.poly),
        }
    if isinstance(spec, PolyTimesExp):
        return {
            "kind": "poly-times-exp",
            "poly": [complex_to_json(c) for c in spec.poly],
            "a": complex_to_json(spec.a),
            "b": complex_to_json(spec.b),
        }
    if isinstance(spec, HadamardTrunc):
        return {
            "kind": "hadamard",
            "a": complex_to_json(spec.a),
            "b": complex_to_json(spec.b),
            "zeros": [complex_to_json(z) for z in spec.zeros],
            "genus": spec.genus,
            "truncation": spec.truncation,
        }
    raise TypeError(f"not a SymbolSpec: {spec!r}")


def symbol_from_dict(d: dict) -> SymbolSpec:
    def opt(key, default):
        value = d.get(key)
        return default if value is None else value

    kind = d.get("kind")
    if kind == "catalog":
        return CatalogSymbol(
            name=d["name"],
            a=complex_from_json(opt("a", [1.0, 0.0])),
            poly=tuple(complex_from_json(c) for c in opt("poly", [[1.0, 0.0]])),
            scale=complex_from_json(opt("scale", [1.0, 0.0])),
        )
    if kind == "exppoly":
        return ExpPolySymbol(exppoly_from_json(d["terms"]))
    if kind == "poly-times-exp":
        return PolyTimesExp(
            poly=tuple(complex_from_json(c) for c in d["poly"]),
            a=complex_from_json(d["a"]),
            b=complex_from_json(opt("b", [0.0, 0.0])),
        )
    if kind == "hadamard":
        return HadamardTrunc(
            a=complex_from_json(d["a"]),
            b=complex_from_json(opt("b", [0.0, 0.0])),
            zeros=tuple(complex_from_json(z) for z in d["zeros"]),
            genus=int(d["genus"]),
            truncation=int(d["truncation"]),
        )
    raise ValueError(f"unknown symbol kind {kind!r}")


# ---------------------------------------------------------------------------
# Known zero sets of the catalog entries (used by the classifier).
# ---------------------------------------------------------------------------


def catalog_zeros(spec: CatalogSymbol, count: int) -> tuple[complex, ...] | None:
    """First ``count`` zeros (by modulus, with multiplicity) of a catalog
    symbol, or None when the symbol is zero-free or has no closed-form list."""
    if spec.name == CATALOG_COS:
        base = []
        k = 0
        while len(base) < count:
            z = (k + 0.5) * math.pi
            base.extend([z, -z])
            k += 1
        return tuple(z / spec.scale for z in base[:count])
    if spec.name == CATALOG_SINC_PI:
        base = []
        k = 1
        while len(base) < count:
            base.extend([k, -k])
            k += 1
        return tuple(z / spec.scale for z in base[:count])
    if spec.name == CATALOG_EXP or spec.name == CATALOG_EXP_QUADRATIC:
        return ()
    if spec.name == CATALOG_EXP_POLY:
        roots = np.roots(list(reversed(spec.poly)))
        return tuple(sorted((complex(r) / spec.scale for r in roots), key=abs))
    return None
