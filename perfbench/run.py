"""Benchmark entry point; see README.md in this directory.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-compress --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line
before it is the stamped record behind those numbers (samples,
quartiles, result quality, host and version).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import common
from common import PER_LAYER, RUN_BUDGET_S, Watchdog, layer_medians

WORKLOADS = ("cold-compress", "warm-spmv", "service-repeat")


def run_inproc(args) -> tuple[dict, dict, list]:
    """Run cold-compress or warm-spmv; returns (record, metrics, ops)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setup_samples = []
    payload = None
    # Traced runs report no set-up time, so they set up once.
    repeats = 1 if args.trace else common.SETUP_REPEATS
    for repeat in range(repeats):
        measuring = repeat == repeats - 1
        command = [
            sys.executable, str(common.BENCH_DIR / "inproc.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if not measuring:
            command.append("--setup-only")
        began = time.perf_counter()
        child = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=common.child_env()
        )
        watchdog = Watchdog(child, deadline)
        try:
            if child.stdout.readline().strip() != "READY":
                raise RuntimeError("set-up did not finish")
            setup_samples.append(time.perf_counter() - began)
            out, _ = child.communicate()
        finally:
            watchdog.cancel()
            if child.poll() is None:
                child.kill()
            child.wait()
        if child.returncode != 0:
            raise RuntimeError(f"inproc.py exited {child.returncode}")
        if measuring:
            for line in out.splitlines():
                if line.startswith("RESULT "):
                    payload = json.loads(line[len("RESULT "):])
    if payload is None:
        raise RuntimeError("measuring process printed no result")

    ops = payload["ops"]
    ok = [op for op in ops if op["ok"]]
    # Failed ops' times stand in only when no op succeeded.
    untraced = [op["seconds"] for op in (ok or ops) if not op["traced"]]
    record = {
        "setup_s": common.quartiles(setup_samples),
        "setup_samples": setup_samples,
        "op_s": common.quartiles(untraced),
        "op_s_p90": common.p90(untraced),
        "peak_rss_mb": payload["peak_rss_mb"],
        "quality_by_input_seed": payload["quality"],
        "ops": ops,
    }
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "op_s_p50": statistics.median(untraced),
            "ops_per_min": 60.0 * len(ok) / sum(op["seconds"] for op in ops),
            "peak_rss_mb": payload["peak_rss_mb"],
        }
        return record, metrics, ops

    layers = payload["layers"]
    record["spans_path"] = payload["spans_path"]
    record["layers_by_op"] = layers
    if layers:
        record["sim_exec_share"] = layer_medians(layers)["sim_exec_share"]
    traced = [op["seconds"] for op in ok if op["traced"]]
    return record, common.per_layer_metrics(layers, traced, untraced), ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.source_root()

    if args.workload == "service-repeat":
        import service

        record, metrics, ops = service.run(args)
    else:
        record, metrics, ops = run_inproc(args)
    units = PER_LAYER if args.trace else common.END_TO_END
    failed = sum(1 for op in ops if not op["ok"])
    record.update(common.stamp(args.workload, args.seed, bool(args.trace)))
    common.emit(
        record,
        correct=failed == 0,
        attempted=len(ops),
        failed=failed,
        metrics={name: common.metric(metrics[name], unit) for name, unit in units.items()},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
