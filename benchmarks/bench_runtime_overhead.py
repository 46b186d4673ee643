"""perf3 — persistent-runtime dispatch overhead + columnar Phase I.

Two measurements of what this iteration of the execution layer saves:

* **Batch dispatch** — an exploration session issues many small
  ``simulate_batch`` batches. The cold-pool mode gives every batch a
  fresh :class:`repro.exec.ExecutionRuntime`, so each one pays pool
  start-up and the shared-memory trace export; the persistent mode
  threads one runtime through every batch, building the pool and
  exporting the trace once. Both parallel
  modes run the same batches over a compress trace (about a million
  accesses at full scale) with aggressive sampling, so per-batch
  *work* is small and the per-batch *setup* dominates — exactly the
  regime the runtime targets. The serial wall time is measured too and
  subtracted from each parallel mode, isolating the dispatch overhead;
  the acceptance bar is the cold-pool overhead being >= 3x the
  persistent-pool overhead.

* **Crash recovery** — the fault-tolerant dispatcher's overhead when a
  worker is SIGKILLed mid-batch (injected via ``REPRO_FAULT_INJECT``):
  the same batch is timed clean and with one induced crash, asserting
  bit-identical results and at least one pool rebuild. The recovery
  cost — tearing down the broken pool, rebuilding it, re-dispatching
  the unfinished jobs — is reported as seconds over the clean run.

* **Columnar Phase I** — the scalar estimation path materializes every
  candidate ``ConnectivityArchitecture`` and calls
  :func:`estimate_design` per candidate; the columnar
  :func:`estimate_plan` scores a whole assignment plan as NumPy folds.
  Both are timed over the full candidate sets of the compress APEX
  selections at ``max_assignments_per_level=1024``, asserting
  bit-identical estimates and a >= 5x speedup.

``REPRO_BENCH_SMOKE=1`` shrinks the trace and batch count for CI; the
threshold assertions only fire on full runs. Records land in
``benchmarks/out/BENCH_runtime.json``.
"""

import gc
import os
import tempfile
import time

import common
from common import SMOKE
from repro.conex.allocation import plan_assignments
from repro.conex.brg import build_brg
from repro.conex.clustering import clustering_levels
from repro.conex.estimator import estimate_design, estimate_plan
from repro.conex.explorer import ConExConfig
from repro.exec import NullCache, PoolBackend, SimulationJob, simulate_batch
from repro.exec.runtime import FAULT_INJECT_ENV, ExecutionRuntime
from repro.sim.sampling import SamplingConfig
from repro.workloads import get_workload

#: Full scale exceeds one million accesses (the kernel benchmark's
#: acceptance trace); smoke stays CI-sized.
TRACE_SCALE = 0.4 if SMOKE else 25.0

#: Small batches, many of them: the per-batch setup regime.
N_BATCHES = 6 if SMOKE else 24
WORKERS = 2

#: Aggressive sampling keeps per-simulation work tiny so the timing
#: contrasts dispatch overhead, not simulation throughput.
SAMPLING = SamplingConfig(on_window=500, off_ratio=49, warmup=100)

#: Phase-I candidate thinning bound named by the acceptance criterion.
MAX_ASSIGNMENTS = 1024

#: Floor on a measured overhead: a persistent-pool run can time at or
#: below the serial run on a noisy machine, and the ratio needs a
#: positive denominator.
MIN_OVERHEAD = 1e-4


def _batches(trace):
    presets = ("cache_8k_32b_2w", "cache_16k_32b_2w")
    jobs = []
    for index, preset in enumerate(presets):
        cache = common.MEMORY_LIBRARY.get(preset).instantiate("cache")
        dram = common.MEMORY_LIBRARY.get("dram").instantiate()
        from repro.apex.architectures import MemoryArchitecture

        memory = MemoryArchitecture(
            f"bench_{preset}", [cache], dram, {}, "cache"
        )
        jobs.append(SimulationJob(memory=memory, sampling=SAMPLING))
    return [list(jobs) for _ in range(N_BATCHES)]


def _time_batches(batches, run):
    start = time.perf_counter()
    outcomes = [run(batch).results for batch in batches]
    return time.perf_counter() - start, outcomes


def _cold_pool_batch(trace, batch):
    """One batch on a fresh runtime: pool start-up and export per batch."""
    with ExecutionRuntime(workers=WORKERS) as runtime:
        return simulate_batch(
            trace, batch, cache=NullCache(), backend=PoolBackend(runtime)
        )


def _dispatch_overhead(trace):
    batches = _batches(trace)
    serial_seconds, serial_results = _time_batches(
        batches,
        lambda batch: simulate_batch(
            trace, batch, workers=1, cache=NullCache()
        ),
    )

    # Cold-pool mode: a fresh runtime (pool + trace export) per batch.
    cold_seconds, cold_results = _time_batches(
        batches, lambda batch: _cold_pool_batch(trace, batch)
    )

    # Persistent mode: one pool, one shared-memory trace export. Pool
    # construction is paid inside the timing, on the first batch.
    with ExecutionRuntime(workers=WORKERS) as runtime:
        persistent_seconds, persistent_results = _time_batches(
            batches,
            lambda batch: simulate_batch(
                trace, batch, cache=NullCache(), backend=PoolBackend(runtime)
            ),
        )

    assert cold_results == serial_results, "cold-pool results diverged"
    assert persistent_results == serial_results, "runtime results diverged"

    cold_overhead = max(cold_seconds - serial_seconds, MIN_OVERHEAD)
    persistent_overhead = max(
        persistent_seconds - serial_seconds, MIN_OVERHEAD
    )
    return common.record_runtime_timing(
        "batch_dispatch",
        accesses=len(trace),
        batches=N_BATCHES,
        jobs_per_batch=len(batches[0]),
        workers=WORKERS,
        serial_seconds=round(serial_seconds, 4),
        cold_pool_seconds=round(cold_seconds, 4),
        persistent_seconds=round(persistent_seconds, 4),
        cold_overhead_seconds=round(cold_overhead, 4),
        persistent_overhead_seconds=round(persistent_overhead, 4),
        overhead_ratio=round(cold_overhead / persistent_overhead, 3),
    )


def _crash_recovery(trace):
    """Time one batch clean vs with a SIGKILLed worker mid-batch."""
    jobs = _batches(trace)[0] * 4  # enough jobs for several chunks

    with ExecutionRuntime(workers=WORKERS) as runtime:
        start = time.perf_counter()
        clean = simulate_batch(
            trace, jobs, cache=NullCache(), backend=PoolBackend(runtime)
        )
        clean_seconds = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        os.environ[FAULT_INJECT_ENV] = f"once:{os.path.join(tmp, 'crash')}"
        try:
            with ExecutionRuntime(workers=WORKERS) as runtime:
                start = time.perf_counter()
                faulted = simulate_batch(
                    trace, jobs, cache=NullCache(),
                    backend=PoolBackend(runtime),
                )
                faulted_seconds = time.perf_counter() - start
        finally:
            os.environ.pop(FAULT_INJECT_ENV, None)

    assert faulted.results == clean.results, "recovered results diverged"
    assert faulted.pool_rebuilds >= 1, "no crash was injected"
    recovery = max(faulted_seconds - clean_seconds, 0.0)
    return common.record_runtime_timing(
        "crash_recovery",
        accesses=len(trace),
        jobs=len(jobs),
        workers=WORKERS,
        clean_seconds=round(clean_seconds, 4),
        faulted_seconds=round(faulted_seconds, 4),
        recovery_seconds=round(recovery, 4),
        pool_rebuilds=faulted.pool_rebuilds,
    )


def _columnar_phase1():
    conex = ConExConfig(max_assignments_per_level=MAX_ASSIGNMENTS)
    apex = common.apex_result("compress")
    library = common.CONNECTIVITY_LIBRARY

    plans = []
    for memory_eval in apex.selected:
        memory = memory_eval.architecture
        profile = memory_eval.result
        brg = build_brg(memory, profile)
        for level in clustering_levels(brg):
            if not (
                conex.min_logical_connections
                <= level.size
                <= conex.max_logical_connections
            ):
                continue
            plans.append(
                (
                    memory,
                    profile,
                    plan_assignments(
                        level,
                        library,
                        name_prefix=memory.name,
                        max_assignments=MAX_ASSIGNMENTS,
                    ),
                )
            )

    # Warm both paths on the smallest plan (first-call overhead —
    # allocator, NumPy dispatch — is not what this measures).
    memory, profile, plan = min(plans, key=lambda entry: len(entry[2]))
    estimate_design(memory, plan.materialize(0), profile)
    estimate_plan(memory, plan, profile, [0])

    # The dispatch stage leaves a large uncollected heap behind;
    # without a collection here its gen-2 passes fire inside the short
    # columnar window and dominate the measurement.
    gc.collect()
    start = time.perf_counter()
    scalar = [
        [
            estimate_design(memory, plan.materialize(index), profile)
            for index in range(len(plan))
        ]
        for memory, profile, plan in plans
    ]
    scalar_seconds = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    columnar = [
        estimate_plan(memory, plan, profile)
        for memory, profile, plan in plans
    ]
    columnar_seconds = time.perf_counter() - start

    assert columnar == scalar, "columnar estimates diverged from scalar"
    candidates = sum(len(plan) for _, _, plan in plans)
    return common.record_runtime_timing(
        "columnar_phase1",
        candidates=candidates,
        plans=len(plans),
        scalar_seconds=round(scalar_seconds, 4),
        columnar_seconds=round(columnar_seconds, 4),
        speedup=round(scalar_seconds / columnar_seconds, 3)
        if columnar_seconds > 0
        else None,
    )


def regenerate() -> str:
    trace = get_workload("compress", scale=TRACE_SCALE, seed=1).trace()
    dispatch = _dispatch_overhead(trace)
    recovery = _crash_recovery(trace)
    columnar = _columnar_phase1()
    regenerate.records = (dispatch, recovery, columnar)
    return (
        f"batch dispatch ({dispatch['batches']} batches x "
        f"{dispatch['jobs_per_batch']} jobs, {dispatch['accesses']} "
        f"accesses): serial {dispatch['serial_seconds']:.2f}s, "
        f"cold pools {dispatch['cold_pool_seconds']:.2f}s, "
        f"persistent {dispatch['persistent_seconds']:.2f}s "
        f"(overhead ratio {dispatch['overhead_ratio']}x)\n"
        f"crash recovery ({recovery['jobs']} jobs, 1 worker SIGKILL): "
        f"clean {recovery['clean_seconds']:.2f}s, "
        f"faulted {recovery['faulted_seconds']:.2f}s "
        f"(+{recovery['recovery_seconds']:.2f}s, "
        f"{recovery['pool_rebuilds']} rebuild(s), identical results)\n"
        f"columnar Phase I ({columnar['candidates']} candidates): "
        f"scalar {columnar['scalar_seconds']:.2f}s -> "
        f"columnar {columnar['columnar_seconds']:.2f}s "
        f"({columnar['speedup']}x)"
    )


def test_runtime_overhead(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("runtime_overhead", text)
    dispatch, recovery, columnar = regenerate.records
    if SMOKE:
        return
    assert dispatch["overhead_ratio"] >= 3.0, dispatch
    assert columnar["speedup"] >= 5.0, columnar
