"""Config validation, report writing and exit codes of the batch driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperalg
from hyperalg.cli import CONFIG_SCHEMA, REPORT_SCHEMA, catalog_list, main, run
from hyperalg.errors import ConfigError

QUAD = {"kind": "catalog", "name": "exp-quadratic"}

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
        assert (tmp_path / "analyze-growth.csv").exists()
        assert (tmp_path / "analyze-ray-0.csv").exists()
        report = read_report(tmp_path, "analyze")
        assert report["outcome"]["growth"]["order"] == pytest.approx(1.0, abs=0.05)

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

    def test_verify_of_zero_q_report_exits_1(self, tmp_path):
        # generator coefficients reach 8e4, so the oracle's condition sum
        # stays above 1e4 at every reduced power; with q = 0 the reduced
        # power cannot halve, and verify must still return
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
        src = str(Path(hyperalg.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "hyperalg.cli", "--config", v_path,
                 "--out", str(tmp_path)],
                env=env, capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("verify of a q = 0 report did not return within 60 s")
        assert done.returncode == 1, done.stderr
        assert read_report(tmp_path, "verify")["outcome"]["verified"] is False

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
