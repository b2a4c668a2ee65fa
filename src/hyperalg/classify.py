"""Symbol classification: does the operator carry a hypercyclic algebra?

Each symbol kind gives its growth class from its structure (order, type, the
degree of a polynomial, a closed polynomial-times-exponential form, its zero
list), read once by :func:`_structure`; no regression decides a route.  The
growth gate answers first: a nonconstant polynomial carries an algebra, and
order 2 lies beyond the paper's scope.  Then the tree runs the structural
routes (zero-free, polynomial times exponential, zero-set sums) and the
numerical checkers (curvature plus arithmetic progressions; ray growth gap).
phi(0), which the tree checks for modulus 1, and phi'(0) and phi''(0), which
give the curvature margin, come in closed form from the structure as well
(:func:`~hyperalg.symbols._jet_at_zero`): classify evaluates phi at no single
point and on no contour.  ``analyze`` and the witness builder's
``find_convex_ray`` still take their derivatives from the contour.
``Unknown`` is the fallback, never a guess: each verdict carries the evidence
that produced it and a ``confidence`` tag -- ``exact`` for the growth gate
and the structural routes, ``numerical`` for anything resting on sampled
values or on a regression fit, such as the convergence of the zero-set sums.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NormalizationError
from .growth import check_Tma_conditions, find_arith_progression
from .symbols import (
    CATALOG_COS,
    CATALOG_EXP,
    CATALOG_EXP_POLY,
    CATALOG_EXP_QUADRATIC,
    CATALOG_SIN_PLUS_EXP,
    CATALOG_SINC_PI,
    CatalogSymbol,
    ExpPolySymbol,
    HadamardTrunc,
    PolyTimesExp,
    SymbolSpec,
    _jet_at_zero,
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


@dataclass(frozen=True)
class Structure:
    """What a symbol's structure says of it.

    ``order`` is 0 for a polynomial (of ``degree``; degree 0 is a constant),
    1 for exponential type ``type`` and 2 for exp-quadratic.  ``poly_exp`` is
    its closed ``p(z) e^{az}`` form, ``zeros`` its zero list (``()`` when it is
    zero-free) and ``slope`` the linear exponent of its product form; each
    None when the structure does not give it.  A report writes it through
    :func:`growth_record`, whose record of a truncated product that
    multiplies a zero has ``zeros`` None: those zeros are
    ``symbol.zeros[:truncation]``, which the symbol's own record holds.
    """

    order: int
    type: float
    degree: int | None = None
    poly_exp: PolyTimesExp | None = None
    zeros: tuple[complex, ...] | None = None
    slope: complex | None = None


#: Type of the catalog entries of exponential type, at scale 1.
_CATALOG_TYPE = {CATALOG_COS: 1.0, CATALOG_SIN_PLUS_EXP: 1.0, CATALOG_SINC_PI: math.pi}

_CONSTANT = Structure(0, 0.0, degree=0, zeros=())


def _poly_times_exp(poly, a: complex, form: PolyTimesExp | None) -> Structure:
    """``p(z) e^{az}``, with the coefficients of p lowest first."""
    degree = max((k for k, c in enumerate(poly) if c != 0), default=0)
    zeros = tuple(sorted((complex(r) for r in np.roots(poly[::-1])), key=abs))
    if a == 0:
        return Structure(0, 0.0, degree, form, zeros, 0j)
    return Structure(1, abs(a), None, form, zeros, a)


def _structure(spec: SymbolSpec) -> Structure:
    """The growth class, closed forms and zeros each symbol kind gives."""
    if isinstance(spec, PolyTimesExp):
        return _poly_times_exp(spec.poly, spec.a, spec)
    if isinstance(spec, CatalogSymbol):
        s = spec.scale
        if spec.name in (CATALOG_EXP, CATALOG_EXP_POLY):
            poly = spec.poly if spec.name == CATALOG_EXP_POLY else (1 + 0j,)
            poly = tuple(c * s**k for k, c in enumerate(poly))
            form = PolyTimesExp(poly, spec.a * s) if poly[0] == 1 else None
            return _poly_times_exp(poly, spec.a * s, form)
        if spec.name == CATALOG_EXP_QUADRATIC:
            growth = Structure(2, abs(spec.a * s * s), zeros=())
        else:  # cos and sinc-pi are even: no linear exponent in the product form
            slope = None if spec.name == CATALOG_SIN_PLUS_EXP else 0j
            growth = Structure(1, _CATALOG_TYPE[spec.name] * abs(s), slope=slope)
        return growth if growth.type else _CONSTANT
    if isinstance(spec, ExpPolySymbol):
        type_ = max((abs(f) for f in spec.poly.frequencies()), default=0.0)
        zeros = () if len(spec.poly.terms) == 1 else None
        return Structure(1, type_, zeros=zeros) if type_ else _CONSTANT
    if isinstance(spec, HadamardTrunc):
        used = spec.zeros[: spec.truncation]  # the factors phi multiplies
        type_ = abs(spec.a + (sum(1 / z for z in used) if spec.genus else 0))
        if type_ <= COEFF_MARGIN:
            return Structure(0, 0.0, len(used), zeros=used, slope=spec.a)
        return Structure(1, type_, zeros=used, slope=spec.a)
    raise TypeError(f"not a SymbolSpec: {spec!r}")


def growth_record(spec: SymbolSpec, structure: Structure) -> Structure:
    """The growth record a report writes for ``spec``, whose structure is
    ``structure``: the structure, with ``zeros`` None for a truncated product
    that multiplies a zero, since the symbol's record already lists them."""
    if isinstance(spec, HadamardTrunc) and spec.truncation:
        return replace(structure, zeros=None)
    return structure


def check_T2(spec: SymbolSpec) -> dict:
    """Curvature-and-progressions evidence: the second-derivative margin
    |phi''(0) phi(0) - phi'(0)^2|, from the structure, and, per power m, a
    step ``a`` with |phi(j a)| < 1 for j = 1..m."""
    phi0, phi1, phi2 = _jet_at_zero(spec)
    if abs(abs(phi0) - 1) > COEFF_MARGIN:
        raise NormalizationError(
            f"|phi(0)| = {abs(phi0):.12f}; must be 1 (up to rotation)"
        )
    margin = abs(phi2 * phi0 - phi1**2)
    steps = find_arith_progression(spec, M_MAX)
    progressions = {m: steps[m] for m in range(2, M_MAX + 1)}
    passed = margin > COEFF_MARGIN and None not in progressions.values()
    return {
        "second_deriv_margin": margin, "progressions": progressions, "passed": passed
    }


def classify(spec: SymbolSpec, zeros=None) -> Verdict:
    """Runs the decision tree and returns the first verdict it can defend."""
    structure = _structure(spec)
    evidence: dict = {"growth": growth_record(spec, structure)}
    if structure.order == 0 and structure.degree > 0:
        return Verdict(HAS_ALGEBRA, "subexponential", evidence, "exact")
    if structure.order == 2:
        return Verdict(UNKNOWN, "growth-beyond-scope", evidence, "exact")

    phi0 = _jet_at_zero(spec)[0]
    evidence["phi0"] = phi0
    if abs(abs(phi0) - 1) > COEFF_MARGIN:
        return Verdict(UNKNOWN, "normalization", evidence, "exact")
    if abs(phi0 - 1) > COEFF_MARGIN:
        # rotating the symbol by the unimodular 1/phi(0) changes nothing
        # below (only moduli and the curvature margin are consulted)
        evidence["rotation"] = phi0

    if structure.zeros == ():
        return Verdict(NO_ALGEBRA, "zero-free", evidence, "exact")

    pe = structure.poly_exp
    if pe is not None and pe.a != 0:
        a1 = pe.poly[1]
        a2 = pe.poly[2] if len(pe.poly) > 2 else 0j
        ratio = a1 / pe.a
        evidence["poly-times-exp"] = {"a": pe.a, "a1": a1, "a2": a2, "a1_over_a": ratio}
        if abs(ratio.imag) > COEFF_MARGIN or abs(2 * a2 - a1 * a1) > COEFF_MARGIN:
            return Verdict(HAS_ALGEBRA, "poly-times-exp", evidence, "exact")

    # a caller's list is checked even when empty: from_zeros rejects that
    listed = structure.zeros if zeros is None else zeros
    if listed is not None:
        summary = ZeroSetSummary.from_zeros(listed)
        evidence["zeros"] = to_json_value(summary)
        if abs(summary.s2) > ZERO_SUM_MARGIN:
            if summary.inv_modulus_converges is True:
                return Verdict(HAS_ALGEBRA, "zeros-summable", evidence, "numerical")
            slope = structure.slope
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
