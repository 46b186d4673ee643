"""One process of the in-process workloads (cold-compress, warm-spmv).

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.
It sets up, prints ``READY``, and with ``--setup-only`` exits there;
otherwise it runs ``run_memorex`` ops in a closed loop for
``--seconds`` and prints ``RESULT`` with a JSON payload.

* cold-compress: every op explores compress with a fresh
  ``SimulationCache`` and an empty plan registry, as a CLI user pays
  on every run. The op's input seed walks the pool.
* warm-spmv: set-up explores spmv once to fill a cache; every op then
  repeats that exploration and must be served entirely from the cache.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import common


def explore(workload: str, input_seed: int, cache):
    from repro import run_memorex
    from repro.workloads import get_workload

    name, scale = (
        ("compress", common.COLD_COMPRESS_SCALE)
        if workload == "cold-compress"
        else ("spmv", common.WARM_SPMV_SCALE)
    )
    return run_memorex(
        get_workload(name, scale=scale, seed=input_seed), workers=1, cache=cache
    )


def quality_inputs(result) -> dict:
    """What :func:`phase1_quality` needs from one exploration."""
    points = result.conex.simulated
    return {
        "estimated": [p.estimate.avg_latency for p in points],
        "simulated": [p.simulation.avg_latency for p in points],
        "pareto_designs": len(result.selected_points),
        "best_design_cycles": min(
            p.simulation.total_cycles for p in result.selected_points
        ),
    }


def phase1_quality(inputs: dict) -> dict:
    """How Phase I estimates compare with Phase II simulation.

    Over the carried candidates: Spearman correlation and median
    absolute percentage error of estimated against simulated average
    latency. The simulation is the more detailed model; neither is
    validated against hardware.
    """
    from scipy.stats import spearmanr

    estimated, simulated = inputs["estimated"], inputs["simulated"]
    return {
        "phase1_rank_corr": float(spearmanr(estimated, simulated).statistic),
        "phase1_latency_err_pct": statistics.median(
            abs(e - s) / s * 100 for e, s in zip(estimated, simulated)
        ),
        "pareto_designs": inputs["pareto_designs"],
        "best_design_cycles": inputs["best_design_cycles"],
    }


def run_op(workload, input_seed, warm_cache, index, tracer, expected, quality) -> dict:
    """One timed, checked exploration; failures are recorded, not raised."""
    from repro.exec.cache import SimulationCache
    from repro.sim.batch import clear_plan_registry

    if warm_cache is None:
        cache = SimulationCache()
        clear_plan_registry()
    else:
        cache = warm_cache
    # Traced runs alternate traced and untraced ops, so the two sides
    # see the same host conditions.
    traced = tracer is not None and index % 2 == 0
    if traced:
        import tracing

        patched = tracing.install(tracer)
    hits, misses = cache.hits, cache.misses
    op = {"index": index, "input_seed": input_seed, "traced": traced}
    gc.collect()
    began = time.perf_counter()
    try:
        if traced:
            with tracer.op(str(index)):
                result = explore(workload, input_seed, cache)
        else:
            result = explore(workload, input_seed, cache)
        op["seconds"] = time.perf_counter() - began
        got = common.digest(common.memorex_rows(result))
        want = expected[str(input_seed)]
        if got != want:
            raise AssertionError(f"digest {got} != expected {want}")
        if warm_cache is not None and (cache.misses != misses or cache.hits == hits):
            raise AssertionError(
                f"cache hit ratio below 1: {cache.hits - hits} hits, "
                f"{cache.misses - misses} misses"
            )
        op["ok"] = True
        if input_seed not in quality:
            quality[input_seed] = quality_inputs(result)
    except Exception as error:  # a failed op is counted, not fatal
        op.setdefault("seconds", time.perf_counter() - began)
        op["ok"] = False
        op["error"] = f"{type(error).__name__}: {error}"
    finally:
        if traced:
            tracing.uninstall(patched)
    return op


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = args.workload

    from repro.exec.cache import SimulationCache

    expected = common.load_expected()[workload]
    pool = "cold-compress" if workload == "cold-compress" else "warm-spmv"
    order = common.input_order(pool, args.seed)

    if workload == "cold-compress":
        # Warm-up: one small exploration loads every lazily imported
        # module; the timed ops all start from empty caches anyway.
        from repro import run_memorex
        from repro.workloads import get_workload

        run_memorex(get_workload("dct", scale=0.02), workers=1,
                    cache=SimulationCache())
        warm_cache = None
    else:
        # Cache fill, which is also the warm-up op.
        warm_cache = SimulationCache()
        explore(workload, order[0], warm_cache)
    print("READY", flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    ops = []  # dicts: seconds, traced, ok, error
    quality = {}  # input seed -> quality_inputs
    # Whole rounds over the inputs, so every run times the same mix.
    round_inputs = order if workload == "cold-compress" else order[:1]
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for input_seed in round_inputs:
            ops.append(
                run_op(workload, input_seed, warm_cache, len(ops), tracer, expected, quality)
            )

    # Peak memory first: the quality check below imports scipy.
    payload = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality": {seed: phase1_quality(q) for seed, q in quality.items()},
    }
    if tracer is not None:
        common.OUT_DIR.mkdir(exist_ok=True)
        spans_path = common.OUT_DIR / f"spans-{workload}-{args.seed}.json"
        tracer.dump(spans_path)
        payload["spans_path"] = str(spans_path)
        payload["layers"] = [
            dict(
                tracing.op_layers(
                    tracer.spans, tracer.counts[str(op["index"])], str(op["index"])
                ),
                index=op["index"],
            )
            for op in ops
            if op["traced"] and op["ok"]
        ]
    print("RESULT " + json.dumps(payload), flush=True)


if __name__ == "__main__":
    sys.exit(main())
