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

import bisect
import cmath
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
    CATALOG_COS,
    CATALOG_EXP,
    CATALOG_EXP_POLY,
    CATALOG_SINC_PI,
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

#: Radii of the growth window :func:`classify` reads |phi| on by default.
_DEFAULT_R_GRID = tuple(np.geomspace(1.0, 60.0, 16).tolist())

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


def _zero_list(zeros) -> list[complex]:
    """``zeros`` as complex numbers, when the list is nonempty and every zero
    is finite and nonzero; raises ValueError otherwise."""
    zs = [complex(z) for z in zeros]
    if not zs or not all(map(cmath.isfinite, zs)) or 0 in zs:
        raise ValueError("need a nonempty list of finite, nonzero zeros")
    return zs


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
        zs = _zero_list(zeros)
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
            (float(r), bisect.bisect_right(mags, r)) for r in ZERO_COUNT_RADII
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


def _structural_zeros(spec: SymbolSpec, pe: PolyTimesExp | None):
    """The zeros phi has, as far as its structure tells (``()`` when it is
    zero-free), or None when the structure gives no zero list."""
    if isinstance(spec, HadamardTrunc):
        return spec.zeros[: spec.truncation]  # the factors phi multiplies
    if isinstance(spec, CatalogSymbol):
        return catalog_zeros(spec, 400)
    if (pe is not None and len(pe.poly) == 1) or (
        isinstance(spec, ExpPolySymbol) and len(spec.poly.terms) == 1
    ):
        return ()
    return None


def _exponent_slope(spec: SymbolSpec, pe: PolyTimesExp | None) -> complex | None:
    """The linear exponent of the Hadamard form, when structure provides it."""
    if isinstance(spec, HadamardTrunc):
        return spec.a
    if pe is not None:
        return pe.a
    if isinstance(spec, CatalogSymbol) and spec.name in (CATALOG_COS, CATALOG_SINC_PI):
        return 0j  # even functions: no linear exponent in the product form
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
    passed = margin > COEFF_MARGIN and None not in progressions.values()
    return {
        "second_deriv_margin": margin, "progressions": progressions, "passed": passed
    }


def classify(spec: SymbolSpec, zeros=None, r_grid=None) -> Verdict:
    """Runs the decision tree and returns the first verdict it can defend."""
    evidence: dict = {}

    growth = estimate_order_type(spec, _DEFAULT_R_GRID if r_grid is None else r_grid)
    evidence["growth"] = growth.summary()
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

    pe = _structural_poly_exp(spec)
    structural = _structural_zeros(spec, pe)
    if structural == ():
        return Verdict(NO_ALGEBRA, "zero-free", evidence, "exact")

    if pe is not None and pe.a != 0:
        a1 = pe.poly[1]
        a2 = pe.poly[2] if len(pe.poly) > 2 else 0j
        ratio = a1 / pe.a
        evidence["poly-times-exp"] = {"a": pe.a, "a1": a1, "a2": a2, "a1_over_a": ratio}
        if abs(ratio.imag) > COEFF_MARGIN or abs(2 * a2 - a1 * a1) > COEFF_MARGIN:
            return Verdict(HAS_ALGEBRA, "poly-times-exp", evidence, "exact")

    # a caller's list is checked even when empty: from_zeros rejects that
    listed = structural if zeros is None else zeros
    if listed is not None:
        summary = ZeroSetSummary.from_zeros(listed)
        evidence["zeros"] = to_json_value(summary)
        if abs(summary.s2) > ZERO_SUM_MARGIN:
            if summary.inv_modulus_converges is True:
                return Verdict(HAS_ALGEBRA, "zeros-summable", evidence, "numerical")
            slope = _exponent_slope(spec, pe)
            if summary.inv_modulus_converges is False and slope not in (None, 0):
                return Verdict(
                    HAS_ALGEBRA, "zeros-divergent-nonzero-slope", evidence, "numerical"
                )
        else:
            evidence["zeros"]["square_sum_ambiguous"] = True

    # |phi(0)| = 1 was checked above, so check_T2 cannot raise
    t2 = check_T2(spec)
    evidence["curvature-progression"] = t2
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
