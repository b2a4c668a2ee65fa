"""Batch experiment driver.

Reads a JSON experiment config, runs one pipeline (analyze / classify /
witness / witness-multi / verify / catalog), writes a versioned JSON report
plus CSV side files for anything plot-worthy, and exits nonzero on any
hypothesis failure or budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .classify import _structure, _zero_list, classify, growth_record
from .dynamics import verify_witness
from .errors import ConfigError, HyperalgError
from .exppoly import GRID_RADIUS, DiskGrid, _require_finite
from .growth import scan_ray
from .symbols import (
    CatalogSymbol,
    _csv_text,
    complexes_from_json,
    derivs_at_zero,
    exppoly_from_json,
    symbol_from_dict,
    to_json_value,
)
from .witness import (
    DEFAULT_EPSILON,
    N_MAX_DEFAULT,
    ExponentSet,
    WitnessReport,
    construct_witness_T2,
    construct_witness_multi,
    default_multi_targets,
    default_targets_T2,
    derive_multi_params,
    derive_witness_params,
)

REPORT_SCHEMA = "hyperalg-report/1"

#: How a verify warning names each check in ``verify_witness``'s
#: ``skipped``: the q check and then the target check fail before any other
#: runs.
_SKIPPED_CHECKS = {
    "q": "the q check (q >= 1) failed",
    "target": "the target check (some target is nonzero) failed",
    "series": "the series check (a) was skipped",
}

COMMANDS = ("analyze", "classify", "witness", "witness-multi", "verify", "catalog")

_COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}
_TERMS = {
    "type": "array",
    "items": {
        "type": "array",
        "items": _COMPLEX,
        "minItems": 2,
        "maxItems": 2,
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "symbol": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"type": "string"}},
        },
        "seed": {"type": "integer"},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "m": {"type": "integer", "minimum": 2},
        # a 64-bit iterate cap: the doubling grid has one column per power of 2
        "n_max": {"type": "integer", "minimum": 8, "maximum": 2**62},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["radius"],
            "properties": {
                "radius": {"type": "number", "exclusiveMinimum": 0},
                "samples": {"type": "integer", "minimum": 8},
                "circles": {"type": "integer", "minimum": 2},
            },
        },
        "seed_terms": _TERMS,
        "target_terms": _TERMS,
        "seeds_terms": {"type": "array", "items": _TERMS},
        "exponents": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            "minItems": 1,
        },
        "zeros": {"type": "array", "items": _COMPLEX},
        "report_path": {"type": "string"},
        "out": {"type": "string"},
    },
}


def catalog_list() -> list[dict]:
    """Named symbol presets with the verdict the classifier should reach,
    as JSON data."""
    entries = [
        (CatalogSymbol("cos"), "HasAlgebra"),
        (CatalogSymbol("sin+exp(-z)"), "HasAlgebra"),
        (CatalogSymbol("sinc-pi"), "HasAlgebra"),
        (CatalogSymbol("exp", a=1), "NoAlgebra"),
        (CatalogSymbol("exp-poly", a=1, poly=(1, 1j)), "HasAlgebra"),
        # not of exponential type: outside every classification route
        (CatalogSymbol("exp-quadratic", a=1), "Unknown"),
    ]
    return to_json_value(
        [{"symbol": spec, "expected": expected} for spec, expected in entries]
    )


def _load_config(args) -> dict:
    import jsonschema  # here, its only user: it is slow to import

    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    else:
        config = {}
    if args.command:
        config["command"] = args.command
    if args.seed is not None:
        config["seed"] = args.seed
    if args.epsilon is not None:
        config["epsilon"] = args.epsilon
    if args.n_max is not None:
        config["n_max"] = args.n_max
    if args.grid_radius is not None or args.grid_samples is not None:
        grid = dict(config.get("grid", {"radius": GRID_RADIUS}))
        if args.grid_radius is not None:
            grid["radius"] = args.grid_radius
        if args.grid_samples is not None:
            grid["samples"] = args.grid_samples
        config["grid"] = grid
    if args.out is not None:
        config["out"] = args.out
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected: {exc.message}") from exc
    return config


def _read_values(config) -> dict:
    """Each structured config value as the object the pipelines take.  The
    schema admits some values no pipeline can take (a zero exponent tuple, a
    NaN coefficient, a zero at the origin, an integer too large for a
    double): reading one raises KeyError, OverflowError, TypeError or
    ValueError, and that is a config error."""
    readers = {
        "symbol": symbol_from_dict,
        "epsilon": lambda eps: _require_finite(eps, "epsilon").real,
        "grid": DiskGrid.from_dict,
        "zeros": lambda raw: _zero_list(complexes_from_json(raw)),
        "seed_terms": exppoly_from_json,
        "target_terms": exppoly_from_json,
        "seeds_terms": lambda raw: [exppoly_from_json(t) for t in raw],
        "exponents": ExponentSet.of,
    }
    values = {}
    for key, read in readers.items():
        if key in config:
            try:
                values[key] = read(config[key])
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad {key} entry: {exc}") from exc
    return values


def _load_report(path: str) -> WitnessReport:
    """The witness report at ``path``: a ``witness``/``witness-multi`` run
    report or a bare report payload."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from exc
    try:
        payload = raw.get("outcome", {}).get("witness", raw.get("witness", raw))
        return WitnessReport.from_dict(payload)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed witness report: {exc!r}") from exc


def run(config: dict) -> dict:
    """Dispatches one experiment; returns the full report dict (also written
    to disk by :func:`main`)."""
    command = config["command"]
    warnings: list[str] = []
    side_files: dict[str, str] = {}
    started = time.monotonic()
    values = _read_values(config)
    if command != "catalog" and "symbol" not in values:
        raise ConfigError("this command requires a 'symbol' entry")
    spec = values.get("symbol")
    grid = values.get("grid")  # None: the witness builds take DiskGrid()
    n_max = int(config.get("n_max", N_MAX_DEFAULT))

    if command == "catalog":
        outcome = {"catalog": catalog_list()}
    elif command == "classify":
        verdict = classify(spec, zeros=values.get("zeros"))
        if verdict.confidence == "numerical":
            warnings.append(
                "verdict rests on sampled values or a regression fit, not a proof"
            )
        outcome = {"verdict": verdict}
    elif command == "analyze":
        derivs, errs = derivs_at_zero(spec, 6)
        for k in range(8):
            theta = 2 * math.pi * k / 8
            scan = scan_ray(spec, theta, np.linspace(0.25, 8.0, 64))
            side_files[f"ray-{k}.csv"] = scan.to_csv()
        outcome = {
            "growth": growth_record(spec, _structure(spec)),
            "derivatives_at_zero": derivs,
            "derivative_errors": errs,
        }
    elif command == "witness":
        m = int(config.get("m", 2))
        epsilon = values.get("epsilon", DEFAULT_EPSILON["single"])
        params = derive_witness_params(spec, m)
        if "seed_terms" in values or "target_terms" in values:
            if not ("seed_terms" in values and "target_terms" in values):
                raise ConfigError(
                    "seed_terms and target_terms must be given together"
                )
            seed, target = values["seed_terms"], values["target_terms"]
        else:
            seed, target = default_targets_T2(params)
            warnings.append("no targets supplied; using auto-placed defaults")
        report = construct_witness_T2(
            spec, m, seed, target, epsilon, grid, n_max, params=params
        )
        side_files["theta-table.csv"] = "u,v,theta,case,magnitude,bound\n" + "".join(
            f"\"{list(e.u)}\",\"{list(e.v)}\",{e.theta!r},{e.case},"
            f"{e.magnitude!r},{e.bound!r}\n"
            for e in report.theta_table
        )
    elif command == "witness-multi":
        if "exponents" not in values:
            raise ConfigError("witness-multi requires 'exponents'")
        A = values["exponents"]
        epsilon = values.get("epsilon", DEFAULT_EPSILON["multi"])
        params = derive_multi_params(spec, A)
        if "target_terms" in values:
            B = values["target_terms"]
        else:
            B, _ = default_multi_targets(params, A.n_generators)
            warnings.append("no target supplied; using auto-placed default")
        report = construct_witness_multi(
            spec, A, B, values.get("seeds_terms"), epsilon, grid, n_max, params=params
        )
    elif command == "verify":
        if "report_path" not in config:
            raise ConfigError("verify requires 'report_path'")
        report = _load_report(config["report_path"])
        # the default tolerance of the report's kind, never the report's own number
        epsilon = values.get("epsilon", DEFAULT_EPSILON[report.kind])
        passed, trace, skipped = verify_witness(
            spec, report, grid or DiskGrid(), epsilon
        )
        side_files["orbit-trace.csv"] = _csv_text(["q", "residual"], trace)
        outcome = {"verified": passed, "trace": trace}
        if skipped:
            outcome["skipped"] = skipped
            warnings.extend(
                f"verification FAILED: {_SKIPPED_CHECKS[name]}: {reason}"
                for name, reason in skipped.items()
            )
        elif not passed:
            warnings.append(
                "verification FAILED: a residual exceeds epsilon, or the series"
                " check (a) or the power check (b) disagrees"
            )
    else:  # pragma: no cover - schema forbids it
        raise ConfigError(f"unknown command {command!r}")
    if command in ("witness", "witness-multi"):
        side_files["trace.csv"] = _csv_text(["q", "residual"], report.trace)
        outcome = {"witness": report}
    outcome = to_json_value(outcome)

    wall = time.monotonic() - started
    echo = {k: v for k, v in config.items() if k != "out"}
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": echo,
        "outcome": outcome,
        "warnings": warnings,
        "wall_time_s": wall,
        "_side_files": side_files,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperalg",
        description="growth analysis, classification and witness construction "
        "for convolution-operator symbols",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=COMMANDS,
        help="pipeline to run (may also come from the config file)",
    )
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--out", help="output directory for reports and CSVs")
    parser.add_argument("--seed", type=int, help="seed echoed into the report")
    parser.add_argument("--grid-radius", type=float, help="evaluation disk radius")
    parser.add_argument(
        "--grid-samples", type=int, help="points per evaluation circle"
    )
    parser.add_argument("--epsilon", type=float, help="residual tolerance")
    parser.add_argument("--n-max", type=int, help="iterate count cap")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HyperalgError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    side_files = report.pop("_side_files")
    out_dir = Path(config.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{config['command']}-report.json"
    report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    for name, content in side_files.items():
        (out_dir / f"{config['command']}-{name}").write_text(content)
    print(report_path)
    if report["warnings"]:
        for w in report["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
    failed = config["command"] == "verify" and not report["outcome"]["verified"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
