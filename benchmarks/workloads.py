"""Seeded inputs for the benchmark workloads.

Every input is a plain ``hyperalg.cli.run`` config (or, for ``witness``, a
build config plus the verify that follows it), so the program sees nothing
but configs.  Inputs are drawn by stratified sampling: each kind gets
``STRATA[workload]`` inputs whose parameter ``u`` falls in successive equal
slices of [0, 1).  Different seeds move each input inside its slice, which
keeps the cost mix of a pass, and therefore the medians, steady across
seeds while still varying the inputs.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("classify-closed", "classify-products", "witness")

#: Inputs per kind and pass.
STRATA = {"classify-closed": 32, "classify-products": 6, "witness": 4}

CLOSED_KINDS = (
    "cos",
    "sin+exp(-z)",
    "sinc-pi",
    "exp",
    "exp-poly",
    "poly-times-exp",
    "exppoly-cos",
)

#: Exponent sets of the multi-generator witnesses.  All of them build
#: today; ``{(2,1),(0,1)}`` is one of the two known false rejections of
#: ``verify`` and stays in the mix on purpose.
MULTI_SETS = (
    ((2, 0), (1, 1), (0, 1)),
    ((1, 0), (0, 1)),
    ((2, 0), (0, 2), (1, 1)),
    ((1, 1), (1, 0)),
    ((2,), (1,)),
    ((3,), (1,)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((2, 1), (0, 1)),
)

#: Residual tolerances the builders default to; the verify of a report
#: reuses the tolerance it was built with.
SINGLE_EPSILON = 1e-6
MULTI_EPSILON = 1e-5

#: Length of the zero lists the truncated products draw from.
ZERO_LIST_LENGTH = 202

#: Share of the witness verifies whose report is tampered (``q`` halved).
TAMPER_SHARE = 0.25


@dataclass
class Input:
    """One unit of work: ``config`` is run first; a witness input then runs
    ``verify`` on the report, tampered first when ``tamper`` is set."""

    index: int
    kind: str
    stratum: int
    config: dict
    expect: tuple[str, ...] = ()  # verdicts a classify input may give
    tamper: bool = False
    verify: dict = field(default_factory=dict)


def _cx(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _unimodular(u: float) -> complex:
    return cmath.exp(2j * math.pi * u)


def _closed_symbol(kind: str, u: float, rng: random.Random) -> dict:
    if kind in ("cos", "sin+exp(-z)", "sinc-pi"):
        return {"kind": "catalog", "name": kind, "scale": _cx(0.5 + 1.5 * u)}
    if kind == "exp":
        return {"kind": "catalog", "name": "exp", "a": _cx(_unimodular(u))}
    a1 = rng.uniform(0.3, 1.5) * _unimodular(rng.random())
    if kind == "exp-poly":
        return {
            "kind": "catalog",
            "name": "exp-poly",
            "a": _cx(_unimodular(u)),
            "poly": [_cx(1), _cx(a1)],
        }
    if kind == "poly-times-exp":
        a2 = complex(rng.gauss(0, 0.5), rng.gauss(0, 0.5))
        return {
            "kind": "poly-times-exp",
            "a": _cx(_unimodular(rng.random())),
            "poly": [_cx(1), _cx(a1), _cx(a2)],
        }
    if kind == "exppoly-cos":
        # (1/2 + d) e^{i lam z} + (1/2 - d) e^{-i lam z}: phi(0) = 1
        lam = (0.5 + 1.5 * u) * cmath.exp(1j * rng.uniform(-0.3, 0.3))
        d = rng.uniform(-0.2, 0.2)
        return {
            "kind": "exppoly",
            "terms": [[_cx(0.5 + d), _cx(1j * lam)], [_cx(0.5 - d), _cx(-1j * lam)]],
        }
    raise ValueError(kind)


def zero_list(name: str) -> list[complex]:
    """First ``ZERO_LIST_LENGTH`` zeros of cos (±(k+1/2)π) or sinc-pi (±k)."""
    out: list[complex] = []
    k = 0 if name == "cos" else 1
    while len(out) < ZERO_LIST_LENGTH:
        z = (k + 0.5) * math.pi if name == "cos" else float(k)
        out.extend([z, -z])
        k += 1
    return out[:ZERO_LIST_LENGTH]


def _classify_closed(rng: random.Random, strata: int) -> list[Input]:
    inputs = []
    for kind in CLOSED_KINDS:
        for i in range(strata):
            u = (i + rng.random()) / strata
            inputs.append(
                Input(
                    index=len(inputs),
                    kind=kind,
                    stratum=i,
                    config={"command": "classify", "symbol": _closed_symbol(kind, u, rng)},
                    # c e^{az} with a != 0 is zero-free: no hypercyclic algebra
                    expect=("NoAlgebra",) if kind == "exp" else ("HasAlgebra", "Unknown"),
                )
            )
    return inputs


def _classify_products(rng: random.Random, strata: int) -> list[Input]:
    inputs = []
    for name in ("cos", "sinc-pi"):
        zeros = [_cx(z) for z in zero_list(name)]
        for parity in ("even", "odd"):
            # even truncations keep the product even, odd ones break the
            # symmetry; the cost differs by an order of magnitude, so both
            # parities get the same share of each pass
            for i in range(strata):
                t = 50 + int(150 * (i + rng.random()) / strata)
                t -= t % 2
                if parity == "odd":
                    t = t + 1 if t < 200 else t - 1
                symbol = {
                    "kind": "hadamard",
                    "a": _cx(0),
                    "b": _cx(0),
                    "zeros": zeros,
                    "genus": 0,
                    "truncation": t,
                }
                inputs.append(
                    Input(
                        index=len(inputs),
                        kind=f"{name}-{parity}",
                        stratum=i,
                        config={"command": "classify", "symbol": symbol},
                        expect=("HasAlgebra", "Unknown"),
                    )
                )
    return inputs


def _witness(rng: random.Random, strata: int) -> list[Input]:
    builds = []
    for m in (2, 3, 4):
        builds.append((f"single-m{m}", {"command": "witness", "m": m, "epsilon": SINGLE_EPSILON}))
    for exps in MULTI_SETS:
        kind = "multi-" + "-".join("".join(map(str, a)) for a in exps)
        builds.append(
            (
                kind,
                {
                    "command": "witness-multi",
                    "exponents": [list(a) for a in exps],
                    "epsilon": MULTI_EPSILON,
                },
            )
        )
    inputs = []
    for kind, base in builds:
        for i in range(strata):
            scale = 0.7 + 0.7 * (i + rng.random()) / strata
            symbol = {"kind": "catalog", "name": "exp-quadratic", "scale": _cx(scale)}
            inputs.append(
                Input(
                    index=len(inputs),
                    kind=kind,
                    stratum=i,
                    config={**base, "symbol": symbol},
                    verify={"command": "verify", "symbol": symbol, "epsilon": base["epsilon"]},
                )
            )
    for i in rng.sample(range(len(inputs)), round(TAMPER_SHARE * len(inputs))):
        inputs[i].tamper = True
    return inputs


def make_inputs(workload: str, seed: int) -> list[Input]:
    """The input set of one run, in pass order; the same seed gives the
    same inputs.  The order is shuffled so that the part of a pass cut off
    by the deadline has the same mix as a whole pass."""
    rng = random.Random(f"{workload}:{seed}")
    maker = {
        "classify-closed": _classify_closed,
        "classify-products": _classify_products,
        "witness": _witness,
    }[workload]
    inputs = maker(rng, STRATA[workload])
    rng.shuffle(inputs)
    return inputs


def warmup_inputs(inputs: list[Input]) -> list[Input]:
    """The lowest-stratum input of each kind."""
    return sorted(
        (inp for inp in inputs if inp.stratum == 0), key=lambda inp: inp.index
    )
