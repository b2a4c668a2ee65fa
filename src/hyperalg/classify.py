"""Symbol classification: does the operator carry a hypercyclic algebra?

The decision tree runs cheap structural routes first (zero-free, polynomial
times exponential, zero-set sums), then the numerical checkers (curvature
plus arithmetic progressions; ray growth gap).  ``Unknown`` is the fallback,
never a guess: each verdict carries the evidence that produced it and a
``confidence`` tag — ``exact`` for structural routes, ``numerical`` for
anything resting on sampled growth estimates or on a regression fit, such as
the convergence of the zero-set sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError
from .growth import (
    check_Tma_conditions,
    estimate_order_type,
    find_arith_progression,
)
from .symbols import (
    CATALOG_EXP,
    CATALOG_EXP_POLY,
    CatalogSymbol,
    ExpPolySymbol,
    HadamardTrunc,
    PolyTimesExp,
    SymbolSpec,
    catalog_zeros,
    derivs_at_zero,
    eval_symbol,
    to_json_value,
)

#: |sum of squared reciprocal zeros| below this is treated as "could be 0".
ZERO_SUM_MARGIN = 1e-9

#: Numerical-zero threshold for derivative and coefficient comparisons.
COEFF_MARGIN = 1e-9

#: :func:`check_T2` looks for progressions of length m = 2..M_MAX.
M_MAX = 6

#: Radii at which :class:`ZeroSetSummary` counts the zeros inside.
ZERO_COUNT_RADII = (5.0, 10.0, 50.0, 100.0)

HAS_ALGEBRA = "HasAlgebra"
NO_ALGEBRA = "NoAlgebra"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    route: str
    evidence: dict
    confidence: str

    def __post_init__(self):
        if self.outcome not in (HAS_ALGEBRA, NO_ALGEBRA, UNKNOWN):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if self.confidence not in ("exact", "numerical"):
            raise ValueError(f"bad confidence {self.confidence!r}")

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "route": self.route,
            "evidence": to_json_value(self.evidence),
            "confidence": self.confidence,
        }


@dataclass(frozen=True)
class ZeroSetSummary:
    """Partial sums over a (truncated) zero list, plus a convergence guess.

    ``modulus_slope`` is the log-log regression slope of |z_n| against n for
    the moduli in increasing order; the reciprocal-modulus series converges
    iff the true exponent exceeds 1, so the guess thresholds the estimate at
    1 +/- 0.05 (``None`` in the ambiguous band).
    """

    s1: complex
    s2: complex
    sum_abs_inv: float
    genus_guess: int
    modulus_slope: float
    inv_modulus_converges: bool | None
    counts: tuple[tuple[float, int], ...]
    truncation: int

    @staticmethod
    def from_zeros(zeros) -> "ZeroSetSummary":
        zs = [complex(z) for z in zeros]
        if not zs or any(z == 0 for z in zs):
            raise ValueError("need a nonempty list of nonzero zeros")
        mags = sorted(abs(z) for z in zs)
        s1 = sum(1 / z for z in zs)
        s2 = sum(1 / (z * z) for z in zs)
        sum_abs_inv = sum(1 / m for m in mags)
        ns = np.arange(1, len(mags) + 1, dtype=float)
        if len(mags) >= 4:
            half = len(mags) // 2
            slope = float(
                np.polyfit(np.log(ns[half:]), np.log(mags[half:]), 1)[0]
            )
        else:
            slope = float("nan")
        if math.isnan(slope) or abs(slope - 1.0) <= 0.05:
            converges: bool | None = None
        else:
            converges = slope > 1.0
        genus = 0 if converges else 1
        counts = tuple(
            (float(r), sum(1 for m in mags if m <= r)) for r in ZERO_COUNT_RADII
        )
        return ZeroSetSummary(
            s1=s1,
            s2=s2,
            sum_abs_inv=sum_abs_inv,
            genus_guess=genus,
            modulus_slope=slope,
            inv_modulus_converges=converges,
            counts=counts,
            truncation=len(zs),
        )

    def to_dict(self) -> dict:
        return to_json_value(
            {
                "s1": self.s1,
                "s2": self.s2,
                "sum_abs_inv": self.sum_abs_inv,
                "genus_guess": self.genus_guess,
                "modulus_slope": self.modulus_slope,
                "inv_modulus_converges": self.inv_modulus_converges,
                "counts": self.counts,
                "truncation": self.truncation,
            }
        )


def _structural_poly_exp(spec: SymbolSpec) -> PolyTimesExp | None:
    """Closed polynomial-times-exponential form, when one is available."""
    if isinstance(spec, PolyTimesExp):
        return spec
    if isinstance(spec, CatalogSymbol):
        if spec.name == CATALOG_EXP:
            return PolyTimesExp(poly=(1 + 0j,), a=spec.a * spec.scale)
        if spec.name == CATALOG_EXP_POLY and spec.poly[0] == 1:
            return PolyTimesExp(
                poly=tuple(c * spec.scale**k for k, c in enumerate(spec.poly)),
                a=spec.a * spec.scale,
            )
    return None


def _structurally_zero_free(spec: SymbolSpec) -> bool:
    pe = _structural_poly_exp(spec)
    if pe is not None:
        return len(pe.poly) == 1
    if isinstance(spec, ExpPolySymbol):
        return len(spec.poly.terms) == 1
    if isinstance(spec, HadamardTrunc):
        return len(spec.zeros) == 0
    if isinstance(spec, CatalogSymbol):
        return spec.name == "exp-quadratic"
    return False


def _exponent_slope(spec: SymbolSpec) -> complex | None:
    """The linear exponent of the Hadamard form, when structure provides it."""
    if isinstance(spec, HadamardTrunc):
        return spec.a
    pe = _structural_poly_exp(spec)
    if pe is not None:
        return pe.a
    if isinstance(spec, CatalogSymbol) and spec.name in ("cos", "sinc-pi"):
        return 0j  # even functions: no linear exponent in the product form
    return None


def _zero_summary(spec: SymbolSpec, zeros) -> ZeroSetSummary | None:
    if zeros is not None:
        if isinstance(zeros, ZeroSetSummary):
            return zeros
        return ZeroSetSummary.from_zeros(zeros)
    if isinstance(spec, HadamardTrunc) and spec.zeros:
        return ZeroSetSummary.from_zeros(spec.zeros)
    if isinstance(spec, CatalogSymbol):
        known = catalog_zeros(spec, 400)
        if known:
            return ZeroSetSummary.from_zeros(known)
    return None


def check_T2(spec: SymbolSpec) -> dict:
    """Curvature-and-progressions evidence: the second-derivative margin
    |phi''(0) phi(0) - phi'(0)^2| and, per power m, a step ``a`` with
    |phi(j a)| < 1 for j = 1..m."""
    phi0 = eval_symbol(spec, 0)
    if abs(abs(phi0) - 1) > COEFF_MARGIN:
        raise NormalizationError(
            f"|phi(0)| = {abs(phi0):.12f}; must be 1 (up to rotation)"
        )
    derivs, _ = derivs_at_zero(spec, 2)
    margin = abs(derivs[2] * derivs[0] - derivs[1] ** 2)
    steps = find_arith_progression(spec, M_MAX)
    progressions = {m: steps[m] for m in range(2, M_MAX + 1)}
    passed = margin > COEFF_MARGIN and all(
        a is not None for a in progressions.values()
    )
    return {
        "phi0": phi0,
        "derivs": list(derivs),
        "second_deriv_margin": margin,
        "progressions": progressions,
        "m_max": M_MAX,
        "passed": passed,
    }


def _default_r_grid():
    return list(np.geomspace(1.0, 60.0, 16))


def classify(spec: SymbolSpec, zeros=None, r_grid=None) -> Verdict:
    """Runs the decision tree and returns the first verdict it can defend."""
    evidence: dict = {}

    growth = estimate_order_type(spec, r_grid or _default_r_grid())
    evidence["growth"] = {
        "order": growth.order,
        "type": growth.type_,
        "degenerate": growth.degenerate,
        "quality": growth.quality,
        "r_window": list(growth.r_window),
    }
    subexp = growth.degenerate or growth.order < 0.9 or (
        abs(growth.order - 1.0) <= 0.2 and growth.type_ < 0.05
    )
    if subexp:
        return Verdict(HAS_ALGEBRA, "subexponential", evidence, "numerical")
    if growth.order > 1.25:
        return Verdict(UNKNOWN, "growth-beyond-scope", evidence, "numerical")

    phi0 = eval_symbol(spec, 0)
    evidence["phi0"] = phi0
    if abs(abs(phi0) - 1) > COEFF_MARGIN:
        return Verdict(UNKNOWN, "normalization", evidence, "exact")
    if abs(phi0 - 1) > COEFF_MARGIN:
        # rotating the symbol by the unimodular 1/phi(0) changes nothing
        # below (only moduli and the curvature margin are consulted)
        evidence["rotation"] = phi0

    if _structurally_zero_free(spec):
        return Verdict(NO_ALGEBRA, "zero-free", evidence, "exact")

    pe = _structural_poly_exp(spec)
    if pe is not None and len(pe.poly) > 1 and pe.a != 0:
        a1 = pe.poly[1]
        a2 = pe.poly[2] if len(pe.poly) > 2 else 0j
        ratio = a1 / pe.a
        evidence["poly-times-exp"] = {"a": pe.a, "a1": a1, "a2": a2, "a1_over_a": ratio}
        if abs(ratio.imag) > COEFF_MARGIN or abs(2 * a2 - a1 * a1) > COEFF_MARGIN:
            return Verdict(HAS_ALGEBRA, "poly-times-exp", evidence, "exact")

    summary = _zero_summary(spec, zeros)
    slope = _exponent_slope(spec)
    if summary is not None:
        evidence["zeros"] = summary.to_dict()
        if abs(summary.s2) > ZERO_SUM_MARGIN:
            if summary.inv_modulus_converges is True:
                return Verdict(HAS_ALGEBRA, "zeros-summable", evidence, "numerical")
            if (
                summary.inv_modulus_converges is False
                and slope is not None
                and slope != 0
            ):
                return Verdict(
                    HAS_ALGEBRA, "zeros-divergent-nonzero-slope", evidence, "numerical"
                )
        else:
            evidence["zeros"]["square_sum_ambiguous"] = True

    # |phi(0)| = 1 was checked above, so check_T2 cannot raise
    t2 = check_T2(spec)
    evidence["curvature-progression"] = {
        "second_deriv_margin": t2["second_deriv_margin"],
        "progressions": t2["progressions"],
        "passed": t2["passed"],
    }
    if t2["passed"]:
        return Verdict(HAS_ALGEBRA, "curvature-progression", evidence, "numerical")

    for k in range(24):
        theta = 2 * math.pi * k / 24
        pair = check_Tma_conditions(
            spec, theta, t_max=10.0, R_grid=list(np.linspace(1.0, 40.0, 64))
        )
        if pair is not None:
            evidence["ray-growth-gap"] = {"theta": theta, "r": pair[0], "R": pair[1]}
            return Verdict(HAS_ALGEBRA, "ray-growth-gap", evidence, "numerical")

    return Verdict(UNKNOWN, "exhausted", evidence, "numerical")
