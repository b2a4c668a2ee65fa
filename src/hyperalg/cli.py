"""Batch experiment driver.

Reads a JSON experiment config, runs one pipeline (analyze / classify /
witness / witness-multi / verify / catalog), writes a versioned JSON report
plus CSV side files for anything plot-worthy, and exits nonzero on any
hypothesis failure or budget exhaustion.
"""

from __future__ import annotations

import argparse
import functools
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
from .exppoly import DiskGrid, ExpPoly, _float_from_json, _int_from_json
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


def _load_config(args):
    """The config file's JSON value (``{}`` without a file) with the
    positional command laid over it; :func:`_read_values` checks the
    result."""
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
    else:
        config = {}
    if args.command is not None and type(config) is dict:
        config["command"] = args.command
    return config


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string"}


def _json_typed(kind: type, raw):
    """``raw`` when it is a JSON object, array or string (``kind`` dict,
    list or str); anything else raises TypeError."""
    if type(raw) is not kind:
        raise TypeError(f"expected {_JSON_NAMES[kind]}, got {type(raw).__name__}")
    return raw


def _int_between(low: int, high: float):
    """The reader of JSON integers from ``low`` to ``high``."""

    def read(raw) -> int:
        value = _int_from_json(raw)
        if not low <= value <= high:
            raise ValueError(f"expected an integer from {low} to {high}, got {value}")
        return value

    return read


def _positive_float(raw) -> float:
    value = _float_from_json(raw)
    if not 0 < value < math.inf:
        raise ValueError(f"expected a finite positive number, got {value!r}")
    return value


def _terms(raw) -> ExpPoly:
    return exppoly_from_json(_json_typed(list, raw))


#: The reader of each config key but ``command``, the keys of the README's
#: table: the value as the pipelines take it.
_READERS = {
    "symbol": lambda raw: symbol_from_dict(_json_typed(dict, raw)),
    "zeros": lambda raw: _zero_list(complexes_from_json(raw)),
    "m": _int_between(2, math.inf),
    "seed_terms": _terms,
    "target_terms": _terms,
    "exponents": lambda raw: ExponentSet.of(tuple(map(_int_from_json, a)) for a in raw),
    "seeds_terms": lambda raw: [_terms(t) for t in _json_typed(list, raw)],
    "epsilon": _positive_float,
    # a 64-bit iterate cap: the doubling grid has one column per power of 2
    "n_max": _int_between(8, 2**62),
    "grid": lambda raw: DiskGrid.from_dict(_json_typed(dict, raw)),
    "report_path": functools.partial(_json_typed, str),
}


def _read_values(config) -> dict:
    """Each config value as the object the pipelines take, read by the
    reader of its key; the one check of a config, for :func:`main` and
    :func:`run` alike.  A config that is no JSON object, has no ``command``
    of ``COMMANDS`` or has a key of no reader is rejected.  A value its
    reader cannot take raises KeyError, OverflowError, TypeError or
    ValueError, and that is a config error naming the key: every integer is
    read by ``_int_from_json`` (an integral float is none) and every number
    by ``_float_from_json`` (a bool or a string is none)."""
    if type(config) is not dict:
        kind = type(config).__name__
        raise ConfigError(f"config rejected: expected an object, got {kind}")
    if "command" not in config:
        raise ConfigError("config rejected: 'command' is required")
    if config["command"] not in COMMANDS:
        raise ConfigError(f"config rejected: unknown 'command' {config['command']!r}")
    for key in config:
        if key != "command" and key not in _READERS:
            raise ConfigError(f"config rejected: unknown key {key!r}")
    values = {}
    for key, read in _READERS.items():
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
    """Dispatches one experiment, once :func:`_read_values` has read its
    config; returns the full report dict (also written to disk by
    :func:`main`)."""
    warnings: list[str] = []
    side_files: dict[str, str] = {}
    started = time.monotonic()
    values = _read_values(config)
    command = config["command"]
    if command != "catalog" and "symbol" not in values:
        raise ConfigError("this command requires a 'symbol' entry")
    spec = values.get("symbol")
    grid = values.get("grid")  # None: the witness builds take DiskGrid()
    n_max = values.get("n_max", N_MAX_DEFAULT)

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
        m = values.get("m", 2)
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
    else:  # verify
        if "report_path" not in values:
            raise ConfigError("verify requires 'report_path'")
        report = _load_report(values["report_path"])
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
    if command in ("witness", "witness-multi"):
        side_files["trace.csv"] = _csv_text(["q", "residual"], report.trace)
        outcome = {"witness": report}
    outcome = to_json_value(outcome)

    wall = time.monotonic() - started
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": dict(config),
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
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out or ".")
    try:
        if out_dir.exists() and not out_dir.is_dir():  # found before the run
            raise ConfigError(f"cannot write the report: {out_dir} is no directory")
        config = _load_config(args)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HyperalgError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    side_files = report.pop("_side_files")
    command = config["command"]
    report_path = out_dir / f"{command}-report.json"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        for name, content in side_files.items():
            (out_dir / f"{command}-{name}").write_text(content)
    except OSError as exc:
        print(f"config error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    print(report_path)
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    failed = command == "verify" and not report["outcome"]["verified"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
