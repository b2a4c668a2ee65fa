"""Exponential polynomials, truncated Taylor series, and evaluation grids.

An exponential polynomial is a finite sum ``sum_i c_i * exp(l_i * z)`` with
nonzero complex coefficients ``c_i`` and pairwise distinct complex
frequencies ``l_i``.  These are closed under addition, multiplication and
powers, which is what makes them the exact state space for the dynamics in
this package.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import EvaluationRangeError

#: Frequencies closer than this (absolute) are merged during canonicalization.
FREQ_MERGE_TOL = 1e-12

#: |Re(freq * z)| beyond this raises EvaluationRangeError (double exp limit).
EXP_GUARD = 700.0

ComplexLike = Union[complex, float, int]


def _require_finite(value: complex, what: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def _guarded_exp(w: complex) -> complex:
    if abs(w.real) > EXP_GUARD:
        raise EvaluationRangeError(
            f"exp argument real part {w.real:.3g} exceeds the overflow guard", z=w
        )
    return cmath.exp(w)


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
        """Canonicalize: merge near-equal frequencies, drop zero coefficients."""
        cleaned = [
            (_require_finite(c, "coefficient"), _require_finite(f, "frequency"))
            for c, f in terms
        ]
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

    def evaluate(self, z: ComplexLike) -> complex:
        z = complex(z)
        total = 0j
        for c, f in self.terms:
            total += c * _guarded_exp(f * z)
        return total

    def evaluate_array(self, zs: np.ndarray) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        out = np.zeros(zs.shape, dtype=complex)
        for c, f in self.terms:
            w = f * zs
            if w.size and np.max(np.abs(w.real)) > EXP_GUARD:
                raise EvaluationRangeError(
                    "exp argument exceeds the overflow guard on the grid"
                )
            out += c * np.exp(w)
        return out

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly.of(list(self.terms) + list(other.terms))

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return ExpPoly.of(
            list(self.terms) + [(-c, f) for c, f in other.terms]
        )


def mul_exppoly(f: ExpPoly, g: ExpPoly) -> ExpPoly:
    """Product; frequencies add pairwise and equal sums merge."""
    return ExpPoly.of(
        [(cf * cg, ff + fg) for cf, ff in f.terms for cg, fg in g.terms]
    )


def pow_exppoly(f: ExpPoly, n: int) -> ExpPoly:
    """n-th power as n-1 folds of :func:`mul_exppoly`; ``f**0`` is the constant 1."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    result = ExpPoly.one()
    for _ in range(n):
        result = mul_exppoly(result, f)
    return result


@dataclass(frozen=True)
class TaylorPoly:
    """Truncated Taylor series around 0: ``coeffs[k]`` multiplies ``z**k``."""

    coeffs: tuple[complex, ...]
    cap: int

    def __post_init__(self):
        if len(self.coeffs) > self.cap + 1:
            raise ValueError("coefficient list longer than cap+1")

    @staticmethod
    def of(coeffs: Sequence[ComplexLike], cap: int | None = None) -> "TaylorPoly":
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

    def evaluate(self, z: ComplexLike) -> complex:
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


@dataclass(frozen=True)
class DiskGrid:
    """Deterministic point set on a closed disk: equispaced circles and angles."""

    radius: float
    samples: int = 64
    circles: int = 4

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.samples < 8:
            raise ValueError("need at least 8 samples per circle")
        if self.circles < 2:
            raise ValueError("need at least 2 circles")

    @functools.cached_property
    def _points(self) -> np.ndarray:
        angles = 2 * np.pi * np.arange(self.samples) / self.samples
        ring = np.exp(1j * angles)
        radii = self.radius * np.arange(1, self.circles + 1) / self.circles
        pts = np.concatenate([r * ring for r in radii])
        pts.flags.writeable = False
        return pts

    def points(self) -> np.ndarray:
        """The grid's points, computed once per grid (read-only)."""
        return self._points

    def to_dict(self) -> dict:
        return {
            "radius": self.radius,
            "samples": self.samples,
            "circles": self.circles,
        }

    @staticmethod
    def from_dict(d: dict) -> "DiskGrid":
        return DiskGrid(
            radius=float(d["radius"]),
            samples=int(d.get("samples", 64)),
            circles=int(d.get("circles", 4)),
        )
