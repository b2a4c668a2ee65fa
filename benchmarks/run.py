"""Benchmark of the hyperalg pipelines, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload witness --seed 1 --seconds 30 --trace 0

Every op is one call of ``hyperalg.cli.run(config)``, the function behind
each CLI command, made in a closed loop by one client in one process.  The
seeded input set of the workload (see ``workloads.py``) is run in passes
until ``--seconds`` have elapsed; the first pass always completes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced loop, then one more pass with every public function of the traced
modules wrapped (see ``tracing.py``), and prints the per-layer metrics.
The metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the result object; the line before it holds the details
(environment stamp, tail percentiles, failure tallies, report digest), which
are also written to ``benchmarks/out/``.
"""

from __future__ import annotations

import os

# one process and no BLAS threads; must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

_STARTED = perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

from tracing import WORK, Tracer  # noqa: E402
from workloads import WORKLOADS, Input, make_inputs, warmup_inputs  # noqa: E402

#: Fresh processes timed from start to ready; ``setup_s`` is their median.
SETUP_PROBES = 7

#: Time of the reference kernel on the host the benchmark was tuned on.
#: Every latency and ``setup_s`` are scaled by ``REFERENCE_MS`` over the
#: kernel's time in the run, which takes out the host's speed of the moment
#: (README, "Measuring on a shared host").
REFERENCE_MS = 4.0

#: Slots of the reference kernel in each pass, spread evenly over it.  Each
#: slot keeps its best time over the passes, as an input does, and the
#: kernel's time in the run is the median of the slots' best times.
REFERENCE_SLOTS = 16

_REFERENCE_Z = np.linspace(0.0, 3.0, 257) * (0.3 + 1.0j)

#: Verdict routes of ``classify``; each gets a ``classify.route.<route>`` count.
ROUTES = (
    "subexponential",
    "growth-beyond-scope",
    "normalization",
    "zero-free",
    "poly-times-exp",
    "zeros-summable",
    "zeros-divergent-nonzero-slope",
    "curvature-progression",
    "ray-growth-gap",
    "exhausted",
)


def _import_program():
    """Imports ``hyperalg`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "hyperalg" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hyperalg.cli
    from hyperalg.errors import HyperalgError

    if SRC not in Path(hyperalg.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported hyperalg from {hyperalg.__file__}")
    return hyperalg.cli, HyperalgError


class Stats:
    """Latencies and output-check tallies of a set of ops.

    An op is one input: a classify call, or a witness build followed by the
    verify of its report.  Latencies are kept as each input's best (lowest)
    time per command over the passes of a run, and an op's latency is the
    sum of its commands' best times: on a shared host, neighbours slow a
    process by up to two thirds for stretches of a few milliseconds to
    several seconds, and the best of several calls spread over the run is
    the figure they disturb least."""

    def __init__(self):
        self.best_ms: dict[str, dict[int, float]] = {
            group: {} for group in ("classify", "build", "verify")
        }
        self.attempted = 0
        self.failed = 0  # ops with at least one failure
        self.op_failures: list[str] = []  # failed checks of the current op
        self.failures: Counter = Counter()  # by error type or failed check
        self.unsound: Counter = Counter()  # failures that make the run incorrect
        self.routes: Counter = Counter()
        self.built = 0
        self.doubling_steps = 0
        self.report_bytes = 0
        self.tampered = 0
        self.tampered_rejected = 0

    def record(self, group: str, index: int, ms: float) -> None:
        best = self.best_ms[group]
        best[index] = min(ms, best.get(index, ms))

    def op_best_ms(self) -> dict[int, float]:
        ops: dict[int, float] = {}
        for best in self.best_ms.values():
            for index, ms in best.items():
                ops[index] = ops.get(index, 0.0) + ms
        return ops

    def latency(self, group: str, scale: float = 1.0) -> dict:
        best = self.op_best_ms() if group == "op" else self.best_ms[group]
        return _latency_stats([ms * scale for ms in best.values()])

    def fail(self, name: str, unsound: bool = False) -> None:
        self.op_failures.append(name)
        self.failures[name] += 1
        if unsound:
            self.unsound[name] += 1


def _report_text(report: dict) -> str:
    """The report as ``hyperalg`` writes it, without the timing field."""
    body = {k: v for k, v in report.items() if k not in ("wall_time_s", "_side_files")}
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


class Runner:
    """Runs inputs through ``cli.run`` and checks every output."""

    def __init__(self, cli, error_type, workdir: Path):
        self.cli = cli
        self.error_type = error_type
        self.workdir = workdir
        self.hashes: dict[int, str] = {}
        self.outcomes: dict[int, list[str]] = {}

    def run(self, inp: Input, stats: Stats) -> None:
        """Runs one op and records the time each of its commands spent in
        ``cli.run``.  An input must fail the same checks on every pass."""
        stats.op_failures = []
        self._op(inp, stats)
        if self.outcomes.setdefault(inp.index, stats.op_failures) != stats.op_failures:
            stats.fail("nondeterministic-outcome", unsound=True)
        stats.attempted += 1
        stats.failed += bool(stats.op_failures)

    def _call(self, config: dict, group: str, inp: Input, stats: Stats) -> dict | None:
        t0 = perf_counter()
        try:
            # looked up on the module each time, so a traced pass sees the wrapper
            report = self.cli.run(config)
        except self.error_type as exc:
            stats.fail(type(exc).__name__)
            stats.doubling_steps += len(getattr(exc, "trace", None) or ())
            report = None
        except Exception as exc:  # an op must not stop the run; record it
            traceback.print_exc(file=sys.stderr)
            stats.fail(type(exc).__name__, unsound=True)
            report = None
        stats.record(group, inp.index, (perf_counter() - t0) * 1e3)
        return report

    def _check_hash(self, inp: Input, report: dict, text: str, stats: Stats) -> None:
        digest = hashlib.sha256(text.encode())
        for name in sorted(report["_side_files"]):
            digest.update(name.encode() + b"\0" + report["_side_files"][name].encode())
        h = digest.hexdigest()
        if self.hashes.setdefault(inp.index, h) != h:
            stats.fail("nondeterministic-report", unsound=True)

    def _op(self, inp: Input, stats: Stats) -> None:
        classify = inp.config["command"] == "classify"
        report = self._call(inp.config, "classify" if classify else "build", inp, stats)
        if report is None:
            return
        text = _report_text(report)
        self._check_hash(inp, report, text, stats)
        if classify:
            verdict = report["outcome"]["verdict"]
            stats.routes[verdict["route"]] += 1
            if verdict["outcome"] not in inp.expect:
                stats.fail("classify-contradicts-known-class", unsound=True)
            return
        self._verify(inp, report, text, stats)

    def _verify(self, inp: Input, report: dict, text: str, stats: Stats) -> None:
        """Checks a built witness, then verifies its report from a file,
        tampered first when the input says so."""
        witness = report["outcome"]["witness"]
        epsilon = inp.config["epsilon"]
        stats.built += 1
        stats.doubling_steps += len(witness["trace"])
        stats.report_bytes += len(text.encode())
        if max(witness["residuals"].values()) > epsilon or witness["bound_sum"] > epsilon:
            stats.fail("residual-above-epsilon", unsound=True)
        path = self.workdir / f"report-{inp.index}.json"
        if inp.tamper:
            outcome = {"witness": {**witness, "q": witness["q"] // 2}}
            text = _report_text({**report, "outcome": outcome})
        path.write_text(text)
        verified = self._call({**inp.verify, "report_path": str(path)}, "verify", inp, stats)
        if verified is None:
            return
        accepted = verified["outcome"]["verified"]
        if inp.tamper:
            stats.tampered += 1
            if accepted:
                stats.fail("verify-accepted-tampered", unsound=True)
            else:
                stats.tampered_rejected += 1
        elif not accepted:
            stats.fail("verify-rejected-valid")

    def digest(self) -> str:
        """One hash over the report hashes of all inputs, in input order."""
        joined = "\n".join(self.hashes[i] for i in sorted(self.hashes))
        return hashlib.sha256(joined.encode()).hexdigest()


def reference_ms() -> float:
    """Times one run of a fixed kernel that shares no code with the
    program: complex numpy exponentials over a small array and a
    pure-Python complex loop, the two kinds of work ``hyperalg`` does."""
    t0 = perf_counter()
    acc = 0j
    for k in range(120):
        acc += np.exp(_REFERENCE_Z * (1.0 + k / 120)).sum()
    z = 0.3 + 0.7j
    for k in range(18000):
        acc = acc * 0.5 + z * k
    return (perf_counter() - t0) * 1e3


class Loop(NamedTuple):
    wall_s: float
    pass_walls: list[float]  # seconds of each full pass
    ops: int
    reference_ms: float  # median over the slots of the kernel's best time


def timed_loop(runner: Runner, inputs: list[Input], seconds: float, first: Stats, seed: int) -> Loop:
    """Passes over the inputs until ``seconds`` are up (first pass always
    completes, and is the only one whose ops and failures ``first``
    counts).  Each later pass runs the inputs in a new seeded order, so
    that no input meets the same moment of a periodic disturbance on every
    pass.  The reference kernel runs in ``REFERENCE_SLOTS`` slots of each
    pass, between ops."""
    order = random.Random(f"passes:{seed}")
    inputs = list(inputs)
    every = -(-len(inputs) // REFERENCE_SLOTS)
    slot_best = [float("inf")] * REFERENCE_SLOTS

    def done() -> Loop:
        reference = statistics.median(b for b in slot_best if b < float("inf"))
        return Loop(perf_counter() - start, pass_walls, ops, reference)

    start = perf_counter()
    deadline = start + seconds
    pass_walls: list[float] = []
    stats = first
    ops = 0
    while True:
        t0 = perf_counter()
        for i, inp in enumerate(inputs):
            if pass_walls and perf_counter() >= deadline:
                return done()
            if i % every == 0:
                slot = i // every
                slot_best[slot] = min(slot_best[slot], reference_ms())
            runner.run(inp, stats)
            ops += 1
        pass_walls.append(perf_counter() - t0)
        if stats is first:
            # later passes add latencies and unsound outputs only: their
            # number depends on the host's speed, the inputs of a pass do not
            stats = Stats()
            stats.best_ms, stats.unsound = first.best_ms, first.unsound
        order.shuffle(inputs)
        if perf_counter() >= deadline:
            return done()


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to ready (imports, inputs, warm-up) of
    fresh setup-only processes."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=170)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(elapsed)
    return times


def environment(seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def _latency_stats(values: list[float]) -> dict:
    """Median and tail.  The tail is the highest percentile with at least
    ten samples beyond it (nearest rank), or the maximum when there are ten
    samples or fewer."""
    if not values:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_percentile": None, "samples": 0}
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return {
        "p50_ms": statistics.median(ordered),
        "tail_ms": ordered[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "samples": n,
    }


def per_layer_values(tracer: Tracer, stats: Stats, loop: Stats, overhead: float, scale: float) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` that is not a plain
    ``<span>.calls`` / ``<span>.self_ms`` of a traced function."""
    layers, children = tracer.layers()
    pow_calls = layers.get("dynamics.taylor_pow_trunc", {}).get("calls", 0)
    values = {
        "growth.find_arith_progression.eval_calls": children.get(
            ("growth.find_arith_progression", "symbols.eval_symbol_array"), 0
        ),
        "dynamics.oracle_power_useful_ratio": (
            tracer.counts["dynamics._cross_check"] / pow_calls if pow_calls else 0.0
        ),
        "witness.doubling_steps": stats.doubling_steps,
        "witness.doubling_useful_ratio": (
            stats.built / stats.doubling_steps if stats.doubling_steps else 0.0
        ),
        "cli.report_bytes": stats.report_bytes,
        "trace_overhead_frac": overhead,
        "failed_frac": loop.failed / loop.attempted,
        **{f"{name}.{unit}": 0 for name, (unit, _) in WORK.items()},
        **tracer.work,
    }
    for route in ROUTES:
        values[f"classify.route.{route}"] = stats.routes[route]
    for group in ("classify", "build", "verify"):
        lat = loop.latency(group, scale)
        values[f"{group}_p50_ms"] = lat["p50_ms"]
        values[f"{group}_tail_ms"] = lat["tail_ms"]
    for name, entry in layers.items():
        values[f"{name}.calls"] = entry["calls"]
        values[f"{name}.self_ms"] = entry["self_ms"]
    return values


def _layer_value(values: dict, name: str):
    """A traced function that no longer exists made no calls and took no
    time; any other name missing from ``values`` is an error."""
    if name not in values and name.endswith((".calls", ".self_ms")):
        return 0
    return values[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli, error_type = _import_program()
    inputs = make_inputs(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        runner = Runner(cli, error_type, Path(workdir))
        if args.setup_probe:
            for inp in warmup_inputs(inputs):
                runner.run(inp, Stats())
            print("ready", flush=True)
            return 0

        setup_times = measure_setup(args.workload, args.seed)
        loop = Stats()
        for inp in warmup_inputs(inputs):
            runner.run(inp, Stats())
        own_setup_s = perf_counter() - _STARTED
        run = timed_loop(runner, inputs, args.seconds, loop, args.seed)
        scale = REFERENCE_MS / run.reference_ms

        traced = None
        if args.trace:
            traced = Stats()
            tracer = Tracer()
            try:
                tracer.install()
                for inp in inputs:
                    tracer.current_op = inp.index
                    runner.run(inp, traced)
            finally:
                tracer.uninstall()
            # untraced over traced ops per second, each as inputs over the
            # summed op latencies; the untraced side has its best times
            overhead = sum(traced.op_best_ms().values()) / sum(loop.op_best_ms().values()) - 1.0
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    all_ops = [loop] + ([traced] if traced else [])
    attempted = sum(s.attempted for s in all_ops)
    failed = sum(s.failed for s in all_ops)
    unsound = sum((s.unsound for s in all_ops), Counter())
    op_lat = loop.latency("op", scale)

    if args.trace:
        values = per_layer_values(tracer, traced, loop, overhead, scale)
        metrics = {
            m["name"]: {"value": _layer_value(values, m["name"]), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = {
            "op_p50_ms": op_lat["p50_ms"],
            "op_tail_ms": op_lat["tail_ms"],
            "ops_per_s": len(inputs) / (scale * sum(loop.op_best_ms().values()) / 1e3),
            "setup_s": scale * statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }

    detail = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "inputs": len(inputs),
        "passes": len(run.pass_walls),
        "pass_wall_s": run.pass_walls,
        "setup_probe_s": setup_times,
        "own_setup_s": own_setup_s,
        "reference_best_ms": run.reference_ms,
        "time_scale": scale,
        "loop_ops_per_s": run.ops / run.wall_s,
        "fastest_pass_ops_per_s": len(inputs) / min(run.pass_walls),
        "raw_latency": {g: loop.latency(g) for g in ("op", *loop.best_ms)},
        "failures": dict(sum((s.failures for s in all_ops), Counter())),
        "unsound": dict(unsound),
        "tampered": sum(s.tampered for s in all_ops),
        "tampered_rejected": sum(s.tampered_rejected for s in all_ops),
        "routes": dict(loop.routes),
        "report_digest": runner.digest(),
    }
    if args.trace:
        detail["layers"] = values
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics}, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not unsound,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
