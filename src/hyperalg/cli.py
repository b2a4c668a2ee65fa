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

import jsonschema
import numpy as np

from . import __version__
from .classify import classify
from .dynamics import verify_witness
from .errors import ConfigError, HyperalgError
from .exppoly import DiskGrid
from .growth import estimate_order_type, scan_ray
from .symbols import (
    CatalogSymbol,
    complex_from_json,
    derivs_at_zero,
    exppoly_from_json,
    symbol_from_dict,
    symbol_to_dict,
)
from .witness import (
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
        "command": {
            "enum": [
                "analyze",
                "classify",
                "witness",
                "witness-multi",
                "verify",
                "catalog",
            ]
        },
        "symbol": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"type": "string"}},
        },
        "seed": {"type": "integer"},
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "m": {"type": "integer", "minimum": 2},
        "n_max": {"type": "integer", "minimum": 8},
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
        "r_grid": {"type": "array", "items": {"type": "number"}},
        "report_path": {"type": "string"},
        "out": {"type": "string"},
    },
}


def catalog_list() -> list[dict]:
    """Named symbol presets with the verdict the classifier should reach."""
    entries = [
        (CatalogSymbol("cos"), "HasAlgebra"),
        (CatalogSymbol("sin+exp(-z)"), "HasAlgebra"),
        (CatalogSymbol("sinc-pi"), "HasAlgebra"),
        (CatalogSymbol("exp", a=1), "NoAlgebra"),
        (CatalogSymbol("exp-poly", a=1, poly=(1, 1j)), "HasAlgebra"),
        # not of exponential type: outside every classification route
        (CatalogSymbol("exp-quadratic", a=1), "Unknown"),
    ]
    return [
        {"symbol": symbol_to_dict(spec), "expected": expected}
        for spec, expected in entries
    ]


def _load_config(args) -> dict:
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
        grid = dict(config.get("grid", {"radius": 3.0}))
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


def _grid(config) -> DiskGrid:
    return DiskGrid.from_dict(config.get("grid", {"radius": 3.0}))


def _require_symbol(config):
    if "symbol" not in config:
        raise ConfigError("this command requires a 'symbol' entry")
    try:
        return symbol_from_dict(config["symbol"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad symbol entry: {exc}") from exc


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
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed witness report: {exc!r}") from exc


def run(config: dict) -> dict:
    """Dispatches one experiment; returns the full report dict (also written
    to disk by :func:`main`)."""
    command = config["command"]
    warnings: list[str] = []
    side_files: dict[str, str] = {}
    started = time.monotonic()

    if command == "catalog":
        outcome = {"catalog": catalog_list()}
    elif command == "classify":
        spec = _require_symbol(config)
        zeros = (
            [complex_from_json(z) for z in config["zeros"]]
            if "zeros" in config
            else None
        )
        verdict = classify(spec, zeros=zeros, r_grid=config.get("r_grid"))
        if verdict.confidence == "numerical":
            warnings.append(
                "verdict rests on sampled growth estimates, not a proof"
            )
        outcome = {"verdict": verdict.to_dict()}
    elif command == "analyze":
        spec = _require_symbol(config)
        r_grid = config.get("r_grid") or list(np.geomspace(1.0, 60.0, 16))
        growth = estimate_order_type(spec, r_grid)
        derivs, errs = derivs_at_zero(spec, 6)
        for k in range(8):
            theta = 2 * math.pi * k / 8
            scan = scan_ray(spec, theta, np.linspace(0.25, 8.0, 64))
            side_files[f"ray-{k}.csv"] = scan.to_csv()
        side_files["growth.csv"] = growth.to_csv()
        outcome = {
            "growth": {
                "order": growth.order,
                "type": growth.type_,
                "quality": growth.quality,
                "degenerate": growth.degenerate,
                "r_window": list(growth.r_window),
            },
            "derivatives_at_zero": [[d.real, d.imag] for d in derivs],
            "derivative_errors": list(errs),
        }
    elif command == "witness":
        spec = _require_symbol(config)
        m = int(config.get("m", 2))
        epsilon = float(config.get("epsilon", 1e-6))
        grid = _grid(config)
        n_max = int(config.get("n_max", 2**20))
        params = derive_witness_params(spec, m)
        if "seed_terms" in config or "target_terms" in config:
            if not ("seed_terms" in config and "target_terms" in config):
                raise ConfigError(
                    "seed_terms and target_terms must be given together"
                )
            seed = exppoly_from_json(config["seed_terms"])
            target = exppoly_from_json(config["target_terms"])
        else:
            seed, target = default_targets_T2(params)
            warnings.append("no targets supplied; using auto-placed defaults")
        report = construct_witness_T2(
            spec, m, seed, target, epsilon, grid, n_max, params=params
        )
        side_files["trace.csv"] = "q,residual\n" + "".join(
            f"{q},{r!r}\n" for q, r in report.trace
        )
        side_files["theta-table.csv"] = "u,v,theta,case,magnitude,bound\n" + "".join(
            f"\"{list(e.u)}\",\"{list(e.v)}\",{e.theta!r},{e.case},"
            f"{e.magnitude!r},{e.bound!r}\n"
            for e in report.theta_table
        )
        outcome = {"witness": report.to_dict()}
    elif command == "witness-multi":
        spec = _require_symbol(config)
        if "exponents" not in config:
            raise ConfigError("witness-multi requires 'exponents'")
        A = ExponentSet.of(config["exponents"])
        epsilon = float(config.get("epsilon", 1e-5))
        grid = _grid(config)
        n_max = int(config.get("n_max", 2**20))
        params = derive_multi_params(spec, A)
        if "target_terms" in config:
            B = exppoly_from_json(config["target_terms"])
        else:
            B, _ = default_multi_targets(params, A.n_generators)
            warnings.append("no target supplied; using auto-placed default")
        seeds = (
            [exppoly_from_json(t) for t in config["seeds_terms"]]
            if "seeds_terms" in config
            else None
        )
        report = construct_witness_multi(
            spec, A, B, seeds, epsilon, grid, n_max, params=params
        )
        side_files["trace.csv"] = "q,residual\n" + "".join(
            f"{q},{r!r}\n" for q, r in report.trace
        )
        outcome = {"witness": report.to_dict()}
    elif command == "verify":
        spec = _require_symbol(config)
        if "report_path" not in config:
            raise ConfigError("verify requires 'report_path'")
        report = _load_report(config["report_path"])
        grid = _grid(config)
        epsilon = float(config.get("epsilon", 1e-6))
        passed, trace = verify_witness(spec, report, grid, epsilon)
        side_files["orbit-trace.csv"] = trace.to_csv()
        outcome = {
            "verified": passed,
            "trace": [[q, r] for q, r in trace.iterates],
        }
        if not passed:
            warnings.append("verification FAILED: residuals or oracle disagree")
    else:  # pragma: no cover - schema forbids it
        raise ConfigError(f"unknown command {command!r}")

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
        choices=["analyze", "classify", "witness", "witness-multi", "verify", "catalog"],
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
