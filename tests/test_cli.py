"""Config validation, report writing and exit codes of the batch driver."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperalg
from hyperalg import mul_exppoly, symbols
from hyperalg.cli import CONFIG_SCHEMA, REPORT_SCHEMA, catalog_list, main, run
from hyperalg.errors import ConfigError

QUAD = {"kind": "catalog", "name": "exp-quadratic"}
COS = {"kind": "catalog", "name": "cos"}
SINC = {"kind": "catalog", "name": "sinc-pi"}
HADAMARD = {"kind": "hadamard", "a": [0, 0], "genus": 0, "truncation": 1}

#: A well-formed single-generator witness payload (one generator e^{z/2},
#: q = 8); cases override one field to make it unusable.
BARE_REPORT = {
    "kind": "single",
    "generators": [[[[1.0, 0.0], [0.5, 0.0]]]],
    "q": 8,
    "m": 1,
    "residuals": {},
    "theta_table": [],
    "params": {},
    "coefficients": [],
    "trace": [],
    "bound_sum": 0.0,
    "targets": {},
    "exponents": None,
    "weights": None,
    "beta": None,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(tmp_path, command):
    return json.loads((tmp_path / f"{command}-report.json").read_text())


def subprocess_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    ``hyperalg``."""
    src = str(Path(hyperalg.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )}


class TestCatalog:
    def test_lists_six_entries_with_expected_verdicts(self):
        entries = catalog_list()
        assert len(entries) == 6
        expected = {e["expected"] for e in entries}
        assert expected == {"HasAlgebra", "NoAlgebra", "Unknown"}

    def test_command_writes_versioned_report(self, tmp_path):
        assert main(["catalog", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "catalog")
        assert report["schema"] == REPORT_SCHEMA
        assert len(report["outcome"]["catalog"]) == 6


class TestConfigHandling:
    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, {"command": "classify", "bogus": 1})
        assert main(["--config", path]) == 2

    def test_m_max_is_not_a_config_key(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "command": "classify",
                "symbol": {"kind": "catalog", "name": "cos"},
                "m_max": 2,
            },
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 2

    def test_unknown_command_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_missing_symbol_is_a_config_error(self, tmp_path):
        path = write_config(tmp_path, {"command": "classify"})
        assert main(["--config", path, "--out", str(tmp_path)]) == 2

    def test_bad_symbol_is_a_config_error(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "classify", "symbol": {"kind": "catalog", "name": "nope"}},
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 2

    def test_cli_flags_override_config(self, tmp_path):
        path = write_config(
            tmp_path, {"command": "catalog", "seed": 1, "epsilon": 0.5}
        )
        assert main(["--config", path, "--seed", "7", "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "catalog")
        assert report["config"]["seed"] == 7
        assert report["config"]["epsilon"] == 0.5

    @pytest.mark.parametrize("n_max, code", [(2**62, 0), (2**65, 2)])
    def test_n_max_is_capped_at_a_64_bit_count(self, tmp_path, n_max, code):
        path = write_config(
            tmp_path, {"command": "witness", "symbol": QUAD, "m": 2, "n_max": n_max}
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == code

    @pytest.mark.parametrize(
        "extra",
        [
            {"command": "witness-multi", "exponents": [[0, 0], [1, 0]]},
            {"command": "witness-multi", "exponents": [[1], [1, 0]]},
            {
                "command": "witness",
                "seed_terms": [[[float("nan"), 0.0], [0.1, 0.0]]],
                "target_terms": [[[1.0, 0.0], [0.1, 0.0]]],
            },
            {"command": "classify", "zeros": []},
            {"command": "classify", "zeros": [[0.0, 0.0]]},
            # r_grid is no config key: the schema rejects it
            {"command": "classify", "r_grid": [1.0, 2.0, 3.0]},
            {"command": "analyze", "r_grid": [0.0, 1, 2, 3, 4, 5, 6, 7]},
            {"command": "witness", "epsilon": float("nan")},
            {"command": "witness", "grid": {"radius": float("inf")}},
            {"command": "classify", "symbol": {**HADAMARD, "zeros": [[10**400, 0]]}},
            {"command": "classify", "symbol": {**COS, "scale": [1, -(10**400)]}},
            {"command": "witness", "epsilon": 10**400},
            {"command": "classify", "symbol": {**HADAMARD, "zeros": [[1.0]]}},
            {"command": "classify", "symbol": {**COS, "scale": [2.0, 0.0, 5.0]}},
            {"command": "classify", "symbol": {**HADAMARD, "zeros": [["1.5", 0]]}},
        ],
        ids=[
            "zero-exponent-tuple",
            "mixed-exponent-lengths",
            "nan-seed-coefficient",
            "empty-zeros",
            "zero-at-origin",
            "short-r-grid",
            "nonpositive-radius",
            "nan-epsilon",
            "infinite-grid-radius",
            "huge-hadamard-zero",
            "huge-catalog-scale",
            "huge-epsilon",
            "one-entry-zero",
            "three-entry-scale",
            "string-in-zero",
        ],
    )
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, extra):
        symbol = QUAD if extra["command"].startswith("witness") else COS
        path = write_config(tmp_path, {"symbol": symbol, **extra})
        assert main(["--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("pair", [[1.0], [1.0, 0.0, 5.0]], ids=["short", "long"])
    def test_malformed_pair_in_a_report_is_a_config_error(self, tmp_path, capsys, pair):
        data = Path(__file__).parent / "data"
        payload = json.loads((data / "single-m2.json").read_text())
        payload["generators"][0][0][0] = pair
        report_file = tmp_path / "report.json"
        report_file.write_text(json.dumps(payload))
        path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_file)},
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed witness report")

    @pytest.mark.parametrize(
        "name, path",
        [
            ("single-m2", ["bound_sum"]),
            ("single-m2", ["residuals", "1"]),
            ("single-m2", ["trace", 0, 1]),
            ("single-m2", ["theta_table", 0, "theta"]),
            ("multi-20-11-01", ["theta_table", 0, "magnitude"]),
            ("multi-20-11-01", ["theta_table", 0, "bound"]),
            ("multi-20-11-01", ["weights", 1]),
        ],
        ids=["bound-sum", "residual", "trace", "theta", "magnitude", "bound", "weight"],
    )
    def test_numeric_string_in_a_report_is_a_config_error(
        self, tmp_path, capsys, name, path
    ):
        data = Path(__file__).parent / "data"
        payload = json.loads((data / f"{name}.json").read_text())
        holder = payload
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = "1e-7"
        report_file = tmp_path / "report.json"
        report_file.write_text(json.dumps(payload))
        v_path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_file)},
        )
        assert main(["--config", v_path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed witness report")
        assert "expected a number" in err

    @pytest.mark.parametrize("command", ["classify", "analyze"])
    def test_r_grid_is_a_config_error(self, tmp_path, capsys, command):
        # no command reads radii of a growth window: the key is unknown
        r_grid = [float(r) for r in np.geomspace(1.0, 60.0, 16)]
        path = write_config(
            tmp_path, {"command": command, "symbol": COS, "r_grid": r_grid}
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config rejected") and "'r_grid'" in err
        assert not (tmp_path / f"{command}-report.json").exists()

    def test_jsonschema_is_imported_only_to_validate_a_config(self, tmp_path):
        # in a fresh interpreter: importing the CLI leaves jsonschema out, and
        # main still rejects a config that breaks the schema
        path = write_config(tmp_path, {"command": "classify", "bogus": 1})
        code = (
            "import sys\n"
            "import hyperalg.cli\n"
            "assert 'jsonschema' not in sys.modules\n"
            f"sys.exit(hyperalg.cli.main(['--config', {path!r}]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error: config rejected")

    def test_schema_rejects_nonpositive_epsilon(self):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"command": "catalog", "epsilon": 0}, CONFIG_SCHEMA)


class TestPipelines:
    def test_classify_cos(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "classify", "symbol": {"kind": "catalog", "name": "cos"}},
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "classify")
        assert report["outcome"]["verdict"]["outcome"] == "HasAlgebra"

    def test_analyze_writes_ray_csvs(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "analyze", "symbol": {"kind": "catalog", "name": "cos"}},
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 0
        assert not (tmp_path / "analyze-growth.csv").exists()
        assert sorted(p.name for p in tmp_path.glob("analyze-*.csv")) == [
            f"analyze-ray-{k}.csv" for k in range(8)
        ]
        report = read_report(tmp_path, "analyze")
        growth = report["outcome"]["growth"]
        assert (growth["order"], growth["type"]) == (1, 1.0)

    def test_ray_csv_holds_plain_floats(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "analyze", "symbol": {"kind": "catalog", "name": "cos"}},
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "analyze-ray-0.csv").read_text().splitlines()
        assert rows[0] == "t,modulus"
        assert rows[1].startswith("0.25,")  # not np.float64(0.25)

    def test_witness_then_verify_round_trip(self, tmp_path):
        w_path = write_config(
            tmp_path, {"command": "witness", "symbol": QUAD, "m": 2}, "w.json"
        )
        assert main(["--config", w_path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "witness-theta-table.csv").exists()
        assert (tmp_path / "witness-trace.csv").exists()

        v_path = write_config(
            tmp_path,
            {
                "command": "verify",
                "symbol": QUAD,
                "report_path": str(tmp_path / "witness-report.json"),
            },
            "v.json",
        )
        assert main(["--config", v_path, "--out", str(tmp_path)]) == 0
        assert read_report(tmp_path, "verify")["outcome"]["verified"] is True

    def test_verify_fails_on_tampered_report(self, tmp_path):
        w_path = write_config(
            tmp_path, {"command": "witness", "symbol": QUAD, "m": 2}, "w.json"
        )
        assert main(["--config", w_path, "--out", str(tmp_path)]) == 0
        report_file = tmp_path / "witness-report.json"
        payload = json.loads(report_file.read_text())
        payload["outcome"]["witness"]["q"] //= 2
        report_file.write_text(json.dumps(payload))

        v_path = write_config(
            tmp_path,
            {
                "command": "verify",
                "symbol": QUAD,
                "report_path": str(report_file),
            },
            "v.json",
        )
        assert main(["--config", v_path, "--out", str(tmp_path)]) == 1
        assert read_report(tmp_path, "verify")["outcome"]["verified"] is False

    def test_witness_multi(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "command": "witness-multi",
                "symbol": QUAD,
                "exponents": [[2, 0], [1, 1], [0, 1]],
            },
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 0
        report = read_report(tmp_path, "witness-multi")
        witness = report["outcome"]["witness"]
        assert witness["kind"] == "multi"
        assert all(r <= 1e-5 for r in witness["residuals"].values())

    def test_multi_coefficient_overflow_exits_1(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "witness-multi", "symbol": QUAD, "exponents": [[3, 3, 3]]},
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 1

    def test_product_past_the_floating_range_exits_1(self, tmp_path, capsys):
        # zeros +-1e-3 k: the product overflows on the circle of analyze's
        # derivatives at 0 and on its rays (classify reads it as a
        # polynomial, unevaluated)
        zeros = [[s * 1e-3 * k, 0.0] for k in range(1, 200) for s in (1, -1)]
        symbol = {
            "kind": "hadamard", "a": [0, 0], "zeros": zeros,
            "genus": 0, "truncation": 398,
        }
        path = write_config(tmp_path, {"command": "analyze", "symbol": symbol})
        assert main(["--config", path, "--out", str(tmp_path)]) == 1
        assert "EvaluationRangeError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "report",
        [
            None,
            "{}",
            '{"witness": {"q": 8}}',
            "[1]",
            pytest.param(json.dumps({**BARE_REPORT, "q": -1}), id="negative-q"),
            pytest.param(
                json.dumps({**BARE_REPORT, "generators": [[]]}), id="empty-generator"
            ),
            pytest.param(json.dumps({**BARE_REPORT, "m": 0}), id="zero-m"),
            pytest.param(json.dumps({**BARE_REPORT, "m": -1}), id="negative-m"),
            pytest.param(
                json.dumps({**BARE_REPORT, "exponents": []}), id="empty-exponents"
            ),
            # monomials of a second generator the report does not have
            pytest.param(
                json.dumps(
                    {
                        **BARE_REPORT,
                        "exponents": [[1, 5], [2, 7]],
                        "targets": dict.fromkeys(["1,5", "2,7"], []),
                    }
                ),
                id="relabelled-exponents",
            ),
            pytest.param(
                json.dumps({**BARE_REPORT, "exponents": [[-1]]}), id="negative-exponent"
            ),
            # a target that no checked monomial uses
            pytest.param(
                json.dumps({**BARE_REPORT, "targets": {"2": []}}), id="stray-target"
            ),
            # the kind picks verify's default tolerance
            pytest.param(
                json.dumps({**BARE_REPORT, "kind": "bogus"}), id="unknown-kind"
            ),
        ],
    )
    def test_unusable_report_is_a_config_error(self, tmp_path, capsys, report):
        report_path = tmp_path / "report.json"
        if report is not None:
            report_path.write_text(report)
        path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_path)},
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_relabelled_report_is_a_config_error(self, tmp_path, capsys):
        # a one-generator witness relabelled as monomials f1 f2^5, f1^2 f2^7
        w_path = write_config(
            tmp_path, {"command": "witness", "symbol": QUAD, "m": 2}, "w.json"
        )
        assert main(["--config", w_path, "--out", str(tmp_path)]) == 0
        report_file = tmp_path / "witness-report.json"
        payload = json.loads(report_file.read_text())
        witness = payload["outcome"]["witness"]
        witness["exponents"] = [[1, 5], [2, 7]]
        witness["targets"] = {
            "1,5": witness["targets"]["1"], "2,7": witness["targets"]["2"]
        }
        report_file.write_text(json.dumps(payload))
        v_path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_file)},
            "v.json",
        )
        assert main(["--config", v_path, "--out", str(tmp_path)]) == 2
        assert "one entry per generator" in capsys.readouterr().err

    @pytest.mark.parametrize("exponents", [[[1, 0], [0, 1]], [[2], [1]]])
    def test_verify_defaults_to_the_build_tolerance(self, tmp_path, exponents):
        # these witnesses are built to 1e-5, with residuals above 1e-6
        w_path = write_config(
            tmp_path,
            {"command": "witness-multi", "symbol": QUAD, "exponents": exponents},
            "w.json",
        )
        assert main(["--config", w_path, "--out", str(tmp_path)]) == 0
        report_file = tmp_path / "witness-multi-report.json"
        v_path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_file)},
            "v.json",
        )
        assert main(["--config", v_path, "--out", str(tmp_path)]) == 0
        assert read_report(tmp_path, "verify")["outcome"]["verified"] is True

    def test_verify_of_zero_q_report_exits_1(self, tmp_path):
        # with q = 0 every monomial is checked against its target as it
        # stands; verify must return, and reject the report
        path = write_config(
            tmp_path,
            {"command": "witness-multi", "symbol": QUAD, "exponents": [[2, 1], [0, 1]]},
            "w.json",
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 0
        report_file = tmp_path / "witness-multi-report.json"
        payload = json.loads(report_file.read_text())
        payload["outcome"]["witness"]["q"] = 0
        report_file.write_text(json.dumps(payload))
        v_path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_file)},
            "v.json",
        )
        try:
            done = subprocess.run(
                [sys.executable, "-m", "hyperalg.cli", "--config", v_path,
                 "--out", str(tmp_path)],
                env=subprocess_env(), capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("verify of a q = 0 report did not return within 60 s")
        assert done.returncode == 1, done.stderr
        assert read_report(tmp_path, "verify")["outcome"]["verified"] is False

    @pytest.mark.parametrize("symbol", [QUAD, COS])
    def test_verify_of_zero_q_self_target_report_fails_the_q_check(
        self, tmp_path, capsys, symbol
    ):
        # phi(D)**0 is the identity: the test report's generator f with q = 0
        # and targets f and f^2 has residual 0, and must still be rejected
        data = Path(__file__).parent / "data"
        payload = json.loads((data / "single-m2.json").read_text())
        f = symbols.exppoly_from_json(payload["generators"][0])
        payload["q"] = 0
        payload["targets"] = {"1": f, "2": mul_exppoly(f, f)}
        report_file = tmp_path / "q0-report.json"
        report_file.write_text(json.dumps(symbols.to_json_value(payload)))
        v_path = write_config(
            tmp_path,
            {"command": "verify", "symbol": symbol, "report_path": str(report_file)},
            "v.json",
        )
        capsys.readouterr()
        assert main(["--config", v_path, "--out", str(tmp_path)]) == 1
        report = read_report(tmp_path, "verify")
        assert report["outcome"]["verified"] is False
        assert list(report["outcome"]["skipped"]) == ["q"]
        [warning] = report["warnings"]
        assert "the q check (q >= 1) failed" in warning
        assert "q check" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, generators, symbol",
        [
            ("single-m2", [[(1 + 0j, 0.5j)]], QUAD),
            ("multi-20-11-01", [[(1 + 0j, 0.3 + 0j)], [(2 + 0j, 0.3 + 0j)]], COS),
            ("multi-20-11-01", [[(1 + 0j, 0.5 + 0j)], [(2 + 0j, 0.5 + 0j)]], SINC),
        ],
        ids=["exp-quadratic", "cos", "sinc-pi"],
    )
    def test_verify_of_no_target_report_fails_the_target_check(
        self, tmp_path, capsys, name, generators, symbol
    ):
        # with every target zero, generators whose images decay (|phi| < 1
        # at each of their frequencies) have residuals that go to 0
        data = Path(__file__).parent / "data"
        payload = json.loads((data / f"{name}.json").read_text())
        payload["generators"] = generators
        payload["targets"] = {}
        report_file = tmp_path / "no-target-report.json"
        report_file.write_text(json.dumps(symbols.to_json_value(payload)))
        v_path = write_config(
            tmp_path,
            {"command": "verify", "symbol": symbol, "report_path": str(report_file)},
            "v.json",
        )
        capsys.readouterr()
        assert main(["--config", v_path, "--out", str(tmp_path)]) == 1
        report = read_report(tmp_path, "verify")
        assert report["outcome"]["verified"] is False
        assert report["outcome"]["trace"] == []
        assert list(report["outcome"]["skipped"]) == ["target"]
        [warning] = report["warnings"]
        assert "the target check (some target is nonzero) failed" in warning
        err = capsys.readouterr().err
        assert "target check" in err and "Traceback" not in err

    def test_verify_of_default_m6_report_skips_the_series_check(self, tmp_path, capsys):
        # phi's contour coefficients do not converge on the circle of the
        # m = 6 report's frequencies: verify answers false, and says why,
        # instead of exiting on a DerivativeConvergenceError with no report
        path = write_config(tmp_path, {"command": "witness", "symbol": QUAD, "m": 6}, "w.json")
        assert main(["--config", path, "--out", str(tmp_path)]) == 0
        report_file = tmp_path / "witness-report.json"
        v_path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_file)},
            "v.json",
        )
        capsys.readouterr()
        assert main(["--config", v_path, "--out", str(tmp_path)]) == 1
        report = read_report(tmp_path, "verify")
        assert report["outcome"]["verified"] is False
        [reason] = report["outcome"]["skipped"].values()
        assert "radius 6.34825" in reason and "did not converge" in reason
        [warning] = report["warnings"]
        assert "series check (a) was skipped" in warning and reason in warning
        err = capsys.readouterr().err
        assert "series check (a) was skipped" in err and "Traceback" not in err

    def test_non_integer_report_fields_exit_2(self, tmp_path, capsys):
        # a default {(1,0),(0,1)} witness with fractional exponents and q
        w_path = write_config(
            tmp_path,
            {"command": "witness-multi", "symbol": QUAD, "exponents": [[1, 0], [0, 1]]},
            "w.json",
        )
        assert main(["--config", w_path, "--out", str(tmp_path)]) == 0
        report_file = tmp_path / "witness-multi-report.json"
        payload = json.loads(report_file.read_text())
        witness = payload["outcome"]["witness"]
        witness["exponents"] = [[1.9, 0], [0, 1.2]]
        witness["q"] += 0.9
        report_file.write_text(json.dumps(payload))
        v_path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_file)},
            "v.json",
        )
        assert main(["--config", v_path, "--out", str(tmp_path)]) == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_non_integer_symbol_fields_exit_2(self, tmp_path, capsys):
        symbol = {
            "kind": "hadamard",
            "a": [0.0, 0.0],
            "zeros": [[1.5, 0.0], [-1.5, 0.0], [0.0, 2.5], [0.0, -2.5]],
            "genus": 0.5,
            "truncation": 3.7,
        }
        path = write_config(tmp_path, {"command": "classify", "symbol": symbol})
        assert main(["--config", path, "--out", str(tmp_path)]) == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_witness_trace_csv_bytes(self, tmp_path):
        # LF line ends, each residual as its repr
        path = write_config(tmp_path, {"command": "witness", "symbol": QUAD, "m": 2})
        assert main(["--config", path, "--out", str(tmp_path)]) == 0
        trace = read_report(tmp_path, "witness")["outcome"]["witness"]["trace"]
        want = "q,residual\n" + "".join(f"{q},{r!r}\n" for q, r in trace)
        assert (tmp_path / "witness-trace.csv").read_bytes() == want.encode()
        assert [q for q, _ in trace] == [2**k for k in range(3, 3 + len(trace))]

    def test_verify_orbit_trace_csv_bytes(self, tmp_path):
        # LF line ends, each residual as its repr, at q/4, q/2 and q
        report_path = Path(__file__).parent / "data" / "single-m2.json"
        path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_path)},
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 0
        trace = read_report(tmp_path, "verify")["outcome"]["trace"]
        q = json.loads(report_path.read_text())["q"]
        assert [row[0] for row in trace] == [q // 4, q // 2, q]
        want = "q,residual\n" + "".join(f"{q},{r!r}\n" for q, r in trace)
        assert (tmp_path / "verify-orbit-trace.csv").read_bytes() == want.encode()

    def test_verify_of_forged_report_exits_1(self, tmp_path, capsys):
        # two huge terms on generator 1 whose images overflow to inf - inf
        # on the grid: a NaN residual must not pass as a small one
        w_path = write_config(
            tmp_path,
            {"command": "witness-multi", "symbol": COS, "exponents": [[1, 0], [0, 1]]},
            "w.json",
        )
        assert main(["--config", w_path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report_file = tmp_path / "witness-multi-report.json"
        payload = json.loads(report_file.read_text())
        payload["outcome"]["witness"]["generators"][0] += [
            [[1e300, 0.0], [3 * math.pi, 0.0]],
            [[-1e300, 0.0], [3 * math.pi + 1e-3, 0.0]],
        ]
        report_file.write_text(json.dumps(payload))
        v_path = write_config(
            tmp_path,
            {"command": "verify", "symbol": COS, "report_path": str(report_file)},
        )
        assert main(["--config", v_path, "--out", str(tmp_path / "v")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("EvaluationRangeError: ") and err.count("\n") == 1
        assert not (tmp_path / "v" / "verify-report.json").exists()

    def test_verify_of_overflowing_product_exits_1(self, tmp_path, capsys):
        # f**2 of a generator with a coefficient of 1e200 overflows
        data = Path(__file__).parent / "data"
        payload = json.loads((data / "single-m2.json").read_text())
        payload["generators"][0][0][0] = [1e200, 0.0]
        report_file = tmp_path / "report.json"
        report_file.write_text(json.dumps(payload))
        path = write_config(
            tmp_path,
            {"command": "verify", "symbol": QUAD, "report_path": str(report_file)},
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("EvaluationRangeError: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_zero_multi_target_exits_1(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "command": "witness-multi",
                "symbol": QUAD,
                "exponents": [[1, 0], [0, 1]],
                "target_terms": [],
            },
        )
        assert main(["--config", path, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("TargetPlacementError:")

    def test_run_requires_exponents_for_multi(self):
        with pytest.raises(ConfigError):
            run({"command": "witness-multi", "symbol": QUAD})


class TestDeterminism:
    def test_witness_reports_byte_identical_across_runs(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            path = write_config(
                tmp_path,
                {"command": "witness", "symbol": QUAD, "m": 2, "seed": 11},
                f"w-{sub}.json",
            )
            assert main(["--config", path, "--out", str(out)]) == 0
            payload = json.loads((out / "witness-report.json").read_text())
            del payload["wall_time_s"]
            del payload["config"]
            blobs.append(json.dumps(payload, sort_keys=True))
        assert blobs[0] == blobs[1]
