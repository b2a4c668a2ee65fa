"""Smoke self-test of the benchmark.

Run from the repository root: ``python3 benchmarks/selftest.py``.  It runs
every workload briefly (one pass) with and without tracing and checks that

* every metric named in ``BENCHMARK.json`` is emitted, with its unit, and
  the end-to-end ones are positive;
* every tampered witness report is rejected, and some were sent;
* runs with the same seed produce the same report digest, and two traced
  runs the same call and work counts;
* without the program sources next to it, the benchmark exits nonzero
  and prints no result.

Exits 1 and lists the failed checks when any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
COUNT_UNITS = ("count", "bytes")

failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail_line)["detail"], json.loads(result_line)


def check_metrics(label: str, result: dict, expected: list[dict], positive: bool) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(result["correct"] is True, f"{label}: correct")
    check(result["attempted"] >= 1, f"{label}: attempted >= 1")
    metrics = result["metrics"]
    check(list(metrics) == [m["name"] for m in expected], f"{label}: every metric emitted")
    for m in expected:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
              f"{label}: {m['name']} has its unit and a number")
        if positive:
            check(got.get("value", 0) > 0, f"{label}: {m['name']} > 0")


def main() -> int:
    for workload in (w["name"] for w in SPEC["workloads"]):
        detail0, result0 = run(workload, 0)
        check_metrics(f"{workload} trace 0", result0, SPEC["end_to_end"], positive=True)
        detail1, result1 = run(workload, 1)
        check_metrics(f"{workload} trace 1", result1, SPEC["per_layer"], positive=False)
        check(detail0["report_digest"] == detail1["report_digest"],
              f"{workload}: same report digest in two runs of seed {SEED}")
        if workload == "witness":
            check(detail0["tampered"] > 0, "witness: tampered reports were sent")
            check(detail0["tampered_rejected"] == detail0["tampered"],
                  "witness: every tampered report was rejected")
            _, again = run(workload, 1)
            counts = {k: v["value"] for k, v in result1["metrics"].items() if v["unit"] in COUNT_UNITS}
            counts_again = {k: v["value"] for k, v in again["metrics"].items() if v["unit"] in COUNT_UNITS}
            check(counts == counts_again, "witness: counts repeat across two traced runs")

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", "witness", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              "without program sources: nonzero exit and no result")

    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
