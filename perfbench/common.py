"""Shared pieces of the benchmark: inputs, digests, statistics, stamps.

Every workload draws its inputs from a fixed pool of input seeds, so
each input has an expected result digest committed in
``expected.json``; the workload seed (``--seed``) picks which pool
inputs a run uses and in what order. Regenerate the digests with
``python3 perfbench/expected.py`` after a change that is meant to
alter exploration results.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
#: Scratch space for cache directories, logs and span dumps. It lies
#: inside the checkout, which is the only place the benchmark writes.
OUT_DIR = BENCH_DIR / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

COLD_COMPRESS_SCALE = 0.05
WARM_SPMV_SCALE = 0.2
#: service-repeat: the repeated (cache-hit) job and the cache-miss job.
#: ``workers`` sizes the pool these jobs dispatch to: under ``--backend
#: pool`` the daemon's own ``--workers`` sizes only its runners' private
#: runtimes, which a pool-backend job never uses.
HIT_SPEC = {"kind": "apex", "workload": "vocoder", "scale": 0.2, "workers": 2}
MISS_SPEC = {"kind": "apex", "workload": "compress", "scale": 0.1, "workers": 2}
#: One job in this many is a cache miss.
MISS_EVERY = 10

#: Input-seed pools. A run never reuses a miss seed; a run that uses up
#: the miss pool before its time is over counts a failed op, so the
#: pool holds several times the misses a run makes today.
INPUT_POOLS = {
    "cold-compress": list(range(3)),
    # One input: a warm op's cost depends on the spmv input (input 6
    # ran about 1.4x slower than input 0), and a set-up can afford to
    # fill the cache for one input only.
    "warm-spmv": [0],
    "service-hit": list(range(8)),
    "service-miss": list(range(1000, 1120)),
}

#: A workload seed kept out of tuning and of the steadiness runs, for
#: checking a later performance claim on inputs in an order not seen
#: while the change was written.
HELD_OUT_SEED = 7777


END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_min": "1/min",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "workloads.trace_s": "s",
    "apex.explore_self_s": "s",
    "apex.candidates": "count",
    "sim.evaluate_group_s": "s",
    "sim.trace_plan_s": "s",
    "sim.build_group_plan_s": "s",
    "sim.groups": "count",
    "exec.simulate_batch_s": "s",
    "exec.simulations": "count",
    "exec.cache_hit_ratio": "ratio",
    "exec.cache_get_s": "s",
    "exec.cache_put_s": "s",
    "exec.cache_disk_writes": "count",
    "exec.backend_bytes": "bytes",
    "exec.retries": "count",
    "conex.build_brg_s": "s",
    "conex.plan_assignments_s": "s",
    "conex.estimate_plan_s": "s",
    "conex.phase1_self_s": "s",
    "conex.estimated": "count",
    "conex.carried": "count",
    "pareto.front_s": "s",
    "pareto.points_in": "count",
    "pareto.kept_ratio": "ratio",
    "service.submit_s_p50": "s",
    "service.queue_wait_s_p50": "s",
    "service.run_s_p50": "s",
    "service.overhead_s_p50": "s",
    "service.requests_per_job": "count",
    "service.result_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.uncovered_pct": "%",
}
#: The whole run, set-ups included, ends well inside the 180 s limit.
RUN_BUDGET_S = 170.0


class Watchdog:
    """Kills a child process that outlives the run's budget."""

    def __init__(self, process: subprocess.Popen, deadline: float) -> None:
        self._timer = threading.Timer(
            max(0.0, deadline - time.monotonic()), process.kill
        )
        self._timer.daemon = True
        self._timer.start()

    def cancel(self) -> None:
        self._timer.cancel()


def layer_medians(layers: list[dict]) -> dict:
    """Median of each per-layer metric over the traced ops."""
    if not layers:
        return {}
    return {
        name: statistics.median(layer[name] for layer in layers)
        for name in layers[0]
        if name != "index"
    }


def per_layer_metrics(layers: list[dict], traced: list[float], untraced: list[float]) -> dict:
    """Every ``PER_LAYER`` metric from the traced ops' layer records.

    ``traced`` and ``untraced`` are the seconds of the successful ops
    of each kind in the same run; a metric no traced op recorded is 0.
    """
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        {k: v for k, v in layer_medians(layers).items() if k in PER_LAYER}
    )
    if traced and untraced:
        metrics["trace.overhead_pct"] = (
            statistics.median(traced) / statistics.median(untraced) - 1
        ) * 100
    if layers:
        metrics["trace.uncovered_pct"] = 100 * statistics.median(
            layer["uncovered_s"] / layer["op_s"] for layer in layers
        )
    return metrics


def source_root() -> pathlib.Path:
    """The checkout's ``src`` directory; exits 2 when it is missing.

    The benchmark measures the program in the directory it is run
    from and never falls back to an installed copy.
    """
    src = pathlib.Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {src}/repro; run from the "
            "root of a checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    return src


def child_env() -> dict:
    """Environment for the program's processes: the checkout's source
    on ``PYTHONPATH``, no inherited ``REPRO_*`` knob, and a fixed string
    hash seed so set and dict layouts do not vary from run to run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(source_root())
    env["PYTHONHASHSEED"] = "0"
    return env


def input_order(pool: str, seed: int) -> list[int]:
    """The pool's input seeds in the order workload ``seed`` visits them."""
    return random.Random(seed).sample(INPUT_POOLS[pool], len(INPUT_POOLS[pool]))


def digest(rows: list) -> str:
    """Order-independent digest of result rows (label plus floats).

    ``json`` writes floats with ``repr``, which round-trips exactly, so
    equal digests mean bit-identical objectives.
    """
    blob = json.dumps(sorted(rows), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def memorex_rows(result) -> list:
    """Digest rows of a ``run_memorex`` result: its selected designs."""
    return [
        [point.label(), *point.simulated_objectives]
        for point in result.selected_points
    ]


def apex_rows(result: dict) -> list:
    """Digest rows of a service ``apex`` job result."""
    return [
        [row["name"], row["cost_gates"], row["miss_ratio"], row["avg_latency"]]
        for row in result["architectures"]
    ]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> dict:
    """Median and quartiles, with the sample count behind them."""
    if len(values) < 2:
        value = values[0] if values else None
        return {"n": len(values), "q1": value, "median": value, "q3": value}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def p90(values: list[float]) -> float | None:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = pathlib.Path.cwd() / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(workload: str, seed: int, trace: bool) -> dict:
    """Fields every output record carries."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "held_out_seed": HELD_OUT_SEED,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(record: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the stamped record, then the result as the last line."""
    print(json.dumps({"record": record}, default=str))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
