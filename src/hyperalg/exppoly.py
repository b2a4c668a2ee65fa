"""Exponential polynomials and evaluation grids.

An exponential polynomial is a finite sum ``sum_i c_i * exp(l_i * z)`` with
nonzero complex coefficients ``c_i`` and pairwise distinct complex
frequencies ``l_i``.  These are closed under addition, multiplication and
powers, which is what makes them the exact state space for the dynamics in
this package.  A sum is evaluated on an array of points, under one overflow
guard, by :meth:`ExpPoly.evaluate_array`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Union

import numpy as np

from .errors import EvaluationRangeError

#: Frequencies closer than this (absolute) are merged during canonicalization.
FREQ_MERGE_TOL = 1e-12

#: |Re(freq * z)| beyond this raises EvaluationRangeError (double exp limit).
EXP_GUARD = 700.0

#: Radius of the evaluation disk when a pipeline is given none.
GRID_RADIUS = 3.0

ComplexLike = Union[complex, float, int]


def _require_finite(value: complex, what: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _require_all_finite(values, what: str) -> tuple[complex, ...]:
    """``values`` as a tuple of complex numbers, checked in one pass; when
    one is not finite, :func:`_require_finite` names it."""
    out = tuple(map(complex, values))
    if not all(map(cmath.isfinite, out)):
        for value in out:
            _require_finite(value, what)
    return out


def _int_from_json(value) -> int:
    """``value`` when it is a JSON integer; a float or a bool raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


#: The types of the JSON numbers: a bool is none.
_NUMBER_TYPES = frozenset((int, float))


def _float_from_json(value) -> float:
    """``value`` as a float when it is a JSON number; a string or a bool
    raises TypeError."""
    if type(value) not in _NUMBER_TYPES:
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _exp_row(freq: complex, zs: np.ndarray) -> np.ndarray:
    """``exp(freq * zs)`` on an array of points; raises EvaluationRangeError
    when some ``|Re(freq * z)|`` passes EXP_GUARD or is NaN."""
    w = freq * zs
    # not <=, so that a NaN argument raises too
    if w.size and not np.max(np.abs(w.real)) <= EXP_GUARD:
        raise EvaluationRangeError(
            "exp argument exceeds the overflow guard on the grid"
        )
    return np.exp(w)


@dataclass(frozen=True)
class ExpPoly:
    """Canonical exponential polynomial.

    ``terms`` is a tuple of ``(coeff, freq)`` pairs, sorted by
    ``(freq.real, freq.imag)``, with distinct frequencies and nonzero
    coefficients.  The empty tuple is the zero function.  Use
    :meth:`ExpPoly.of` to build one from arbitrary term lists.
    """

    terms: tuple[tuple[complex, complex], ...] = ()

    @staticmethod
    def of(terms: Iterable[tuple[ComplexLike, ComplexLike]]) -> "ExpPoly":
        """Canonicalize: merge near-equal frequencies, drop zero coefficients.

        Every value is checked in one pass; when one is not finite,
        :func:`_require_finite` names the first, coefficient before frequency.
        """
        cleaned = [(complex(c), complex(f)) for c, f in terms]
        if not all(map(cmath.isfinite, itertools.chain.from_iterable(cleaned))):
            for c, f in cleaned:
                _require_finite(c, "coefficient")
                _require_finite(f, "frequency")
        cleaned.sort(key=lambda t: (t[1].real, t[1].imag))
        merged: list[tuple[complex, complex]] = []
        for c, f in cleaned:
            if merged and abs(f - merged[-1][1]) <= FREQ_MERGE_TOL:
                merged[-1] = (merged[-1][0] + c, merged[-1][1])
            else:
                merged.append((c, f))
        merged = [(c, f) for c, f in merged if c != 0]
        return ExpPoly(tuple(merged))

    @staticmethod
    def zero() -> "ExpPoly":
        return ExpPoly(())

    @staticmethod
    def one() -> "ExpPoly":
        return ExpPoly(((1 + 0j, 0j),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self) -> tuple[complex, ...]:
        return tuple(c for c, _ in self.terms)

    def frequencies(self) -> tuple[complex, ...]:
        return tuple(f for _, f in self.terms)

    def evaluate_array(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        out = np.zeros(zs.shape, dtype=complex)
        for c, f in self.terms:
            out += c * _exp_row(f, zs)
        return out

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly.of(list(self.terms) + list(other.terms))


def mul_exppoly(f: ExpPoly, g: ExpPoly) -> ExpPoly:
    """Product; frequencies add pairwise and equal sums merge.  A product
    term that overflows raises EvaluationRangeError."""
    try:
        return ExpPoly.of(
            [(cf * cg, ff + fg) for cf, ff in f.terms for cg, fg in g.terms]
        )
    except ValueError as exc:  # f and g are finite, so a product term overflowed
        raise EvaluationRangeError(f"product overflows: {exc}") from None


@dataclass(frozen=True)
class DiskGrid:
    """Deterministic point set on a closed disk: equispaced circles and angles."""

    radius: float = GRID_RADIUS
    samples: int = 64
    circles: int = 4

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")
        if self.samples < 8:
            raise ValueError("need at least 8 samples per circle")
        if self.circles < 2:
            raise ValueError("need at least 2 circles")

    def points(self) -> np.ndarray:
        """The grid's points (read-only), shared by every grid of the same
        shape."""
        return _grid_points(self.radius, self.samples, self.circles)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "DiskGrid":
        """The grid of ``d``: a JSON number ``radius`` and optional JSON
        integers ``samples`` and ``circles``; a missing radius raises
        KeyError, and another key ValueError."""
        for key in d:
            if key not in ("radius", "samples", "circles"):
                raise ValueError(f"unknown grid key {key!r}")
        return DiskGrid(
            radius=_float_from_json(d["radius"]),
            samples=_int_from_json(d.get("samples", 64)),
            circles=_int_from_json(d.get("circles", 4)),
        )


@functools.lru_cache(maxsize=16)
def _grid_points(radius: float, samples: int, circles: int) -> np.ndarray:
    """The points of :class:`DiskGrid`, built once per shape (read-only)."""
    angles = 2 * np.pi * np.arange(samples) / samples
    ring = np.exp(1j * angles)
    radii = radius * np.arange(1, circles + 1) / circles
    pts = np.concatenate([r * ring for r in radii])
    pts.flags.writeable = False
    return pts
