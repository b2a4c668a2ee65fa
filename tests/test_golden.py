"""Witness and classify reports against stored fixtures.

The determinism tests compare two runs of the same code; these compare the
reports of today's constructions and verdicts with the JSON in
``tests/data``, written by an earlier version of them, so a refactor that
moves a report fails here.  Structure, integers and strings must match
exactly, floats to a relative 1e-12.

Regenerate the fixtures only for an intended report change:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
from pathlib import Path

import pytest

from hyperalg import (
    CatalogSymbol,
    ExpPoly,
    ExpPolySymbol,
    ExponentSet,
    HadamardTrunc,
    classify,
    construct_witness_T2,
    construct_witness_multi,
    default_multi_targets,
    default_targets_T2,
    derive_multi_params,
    derive_witness_params,
    to_json_value,
)

DATA = Path(__file__).parent / "data"
QUAD = CatalogSymbol("exp-quadratic")


def _single(spec, m):
    params = derive_witness_params(spec, m)
    seed, target = default_targets_T2(params)
    return construct_witness_T2(spec, m, seed, target, params=params)


def _multi(spec, exponents):
    A = ExponentSet.of(exponents)
    params = derive_multi_params(spec, A)
    B, seeds = default_multi_targets(params, A.n_generators)
    return construct_witness_multi(spec, A, B, seeds, params=params)


GOLDEN = {
    "single-m2": lambda: _single(QUAD, 2),
    "single-m3": lambda: _single(QUAD, 3),
    "single-m4-scale1.3": lambda: _single(
        CatalogSymbol("exp-quadratic", scale=1.3), 4
    ),
    "multi-20-11-01": lambda: _multi(QUAD, [(2, 0), (1, 1), (0, 1)]),
    "multi-100-010-001": lambda: _multi(QUAD, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
}

#: Zeros ±(k + 1/2)π of cos, nearest first.
COS_ZEROS = tuple((k + 0.5) * math.pi * s for k in range(40) for s in (1, -1))

#: Symbols whose verdicts rest on the curvature-progression evidence.
CLASSIFY = {
    "cos": CatalogSymbol("cos"),
    "cos-scale0.6": CatalogSymbol("cos", scale=0.6),
    "sin+exp": CatalogSymbol("sin+exp(-z)"),
    "sin+exp-scale0.6": CatalogSymbol("sin+exp(-z)", scale=0.6),
    "sinc-pi": CatalogSymbol("sinc-pi"),
    "sinc-pi-scale0.6": CatalogSymbol("sinc-pi", scale=0.6),
    "hadamard-cos-even": HadamardTrunc(0j, 0j, COS_ZEROS, 0, 60),
    "hadamard-cos-odd": HadamardTrunc(0j, 0j, COS_ZEROS, 0, 61),
    "exppoly-cos": ExpPolySymbol(ExpPoly.of([(0.6, 0.8j), (0.4, -0.8j)])),
}


def _classify_report(name):
    return json.dumps(to_json_value(classify(CLASSIFY[name])), sort_keys=True, indent=2)


def assert_matches(got, want, path="$"):
    assert type(got) is type(want), f"{path}: {type(got)} != {type(want)}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{path}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12), f"{path}: {got} != {want}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_fixture(name):
    want = json.loads((DATA / f"{name}.json").read_text())
    got = json.loads(GOLDEN[name]().to_json())
    assert_matches(got, want)


@pytest.mark.parametrize("name", sorted(CLASSIFY))
def test_classify_matches_fixture(name):
    want = json.loads((DATA / f"classify-{name}.json").read_text())
    got = json.loads(_classify_report(name))
    assert_matches(got, want)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, build in GOLDEN.items():
        (DATA / f"{name}.json").write_text(build().to_json() + "\n")
    for name in CLASSIFY:
        (DATA / f"classify-{name}.json").write_text(_classify_report(name) + "\n")
