"""perf1/perf6 — Full-strategy engine timing: parallel and batch.

Two comparisons over the same Full-strategy design grid (the largest
simulation batch in the library), both with the result cache disabled
so each run measures real simulation work:

* **per-run vs batch (serial)** — the Phase II candidate list evaluated
  as independent :func:`repro.sim.simulator.simulate` calls (one per
  distinct candidate — duplicates are dropped by
  :func:`repro.exec.simulation_key` as the engine does — each with its
  own private trace plan) and through :func:`repro.exec.simulate_batch`
  (candidates grouped by memory signature, sharing trace plans and
  module columns). Interleaved
  rounds; each leg records its minimum (the least-noise estimator).
  Single-process on both sides, so the speedup is real on any machine
  and the ≥5x assertion always fires.
* **serial vs parallel** — the whole Full strategy run serially and
  over four worker processes. Process pools cannot beat a serial loop
  without cores to run on, so on machines with fewer than two CPUs the
  parallel leg is **skipped** and recorded as such (a "0.7x speedup"
  row from a starved container reads like an engine regression when it
  is only a hardware fact); the ≥2x assertion needs at least four.

Every row lands in ``benchmarks/out/BENCH_parallel.json`` tagged with
the machine's ``cpu_count``; determinism (identical results whatever
the dispatch) is asserted on every leg that runs.

A third comparison, **serial vs distributed**, runs the same batch
grid against two loopback ``repro worker`` processes through a
:class:`~repro.exec.ShardedBackend` and lands in
``benchmarks/out/BENCH_distributed.json``. Bit-identity of the sharded
merge is asserted on every round, and a fault leg kills one worker
before dispatch and asserts the run still completes bit-identically
via re-dispatch to the survivor; the ≥1.5x speedup floor fires only
with two real CPUs to run the workers on.

``REPRO_BENCH_SMOKE=1`` shrinks the trace to CI size and skips the
whole-strategy serial-vs-parallel legs (determinism, the batch speedup
floor, and the distributed identity/fault legs are still asserted; the
batch floor drops to 3x because plan builds amortize over less
simulation work on the short trace).
"""

import gc
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import common
from common import SMOKE
import repro
from repro.apex.explorer import ApexConfig, explore_memory_architectures
from repro.conex.explorer import ConExConfig, connectivity_exploration
from repro.core.strategies import run_full
from repro.exec import (
    NullCache,
    RemoteBackend,
    ShardedBackend,
    SimulationJob,
    simulate_batch,
    simulation_key,
)
from repro.sim.batch import clear_plan_registry
from repro.sim.simulator import simulate
from repro.workloads import get_workload

WORKERS = 4

#: Minimum cross-candidate speedup of the batch evaluator over per-run
#: dispatch on this grid (single process, both sides).
MIN_BATCH_SPEEDUP = 3.0 if SMOKE else 5.0

#: Compress-trace scale: CI smoke shrinks the trace, not the grid, so
#: the smoke run still covers every group shape of the full grid.
TRACE_SCALE = 0.04 if SMOKE else 0.15

REDUCED_APEX = ApexConfig(
    cache_options=(None, "cache_4k_16b_1w", "cache_16k_32b_2w"),
    stream_buffer_options=(None, "stream_buffer_4"),
    dma_options=(None, "si_dma_32"),
    map_indexed_to_sram=(False,),
    select_count=5,
)

REDUCED_CONEX = ConExConfig(
    max_logical_connections=3,
    max_assignments_per_level=48,
    phase1_keep=12,
)


@contextmanager
def _timing_region():
    """Collector-quiesced timing (applied identically to every leg).

    Cycle-collector pauses scale with the volume of live container
    objects, not with the work under test, so they add noise that can
    swamp a short leg; every timed region below runs with the collector
    off, as pytest-benchmark's calibrated mode does.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _full_grid_jobs(trace, hints):
    """The Full strategy's simulation job list (every design point)."""
    apex = explore_memory_architectures(
        trace, common.MEMORY_LIBRARY, REDUCED_APEX, hints=hints,
        workers=1, cache=NullCache(),
    )
    jobs = []
    for memory_eval in apex.evaluated:
        _, points = connectivity_exploration(
            trace, memory_eval, common.CONNECTIVITY_LIBRARY, REDUCED_CONEX,
        )
        jobs.extend(
            SimulationJob(
                memory=point.memory_eval.architecture,
                connectivity=point.connectivity,
            )
            for point in points
        )
    return jobs


def _run_each(trace, jobs):
    """One independent ``simulate()`` call per distinct job.

    Jobs are deduplicated by :func:`repro.exec.simulation_key`, as the
    engine does, so this leg runs the same simulations as the batch
    leg. Returns the index of each job run and its result.
    """
    seen = set()
    indices = []
    results = []
    for index, job in enumerate(jobs):
        key = simulation_key(
            trace, job.memory, job.connectivity, job.sampling,
            job.posted_writes,
        )
        if key in seen:
            continue
        seen.add(key)
        indices.append(index)
        results.append(
            simulate(
                trace,
                job.memory,
                job.connectivity,
                sampling=job.sampling,
                posted_writes=job.posted_writes,
            )
        )
    return indices, results


def regenerate() -> str:
    cpu_count = os.cpu_count() or 1
    workload = get_workload("compress", scale=TRACE_SCALE, seed=1)
    trace = workload.trace()
    hints = dict(workload.pattern_hints)
    lines = []

    # -- per-run vs batch, single process --------------------------------
    # Interleaved rounds: each round times both legs back to back, and
    # each leg's recorded time is its *minimum* across rounds — the
    # standard least-noise estimator (pytest-benchmark's Min column),
    # because external interference on a shared box only ever inflates
    # a leg, never deflates it. A single-round ratio swings tens of
    # percent on machine phase alone; the per-round times land in the
    # JSON so the spread stays visible. The plan registry is cleared
    # once, before the first round, so round one pays the cold plan
    # builds and later rounds measure the warm steady state — the
    # deployment shape, where apex, conex, and the strategy comparisons
    # all hit the same trace's plans repeatedly. Bit-identity is
    # asserted on every round, not just the recorded one.
    jobs = _full_grid_jobs(trace, hints)
    rounds = 1 if SMOKE else 5
    clear_plan_registry()
    per_run_times = []
    batch_times = []
    for _ in range(rounds):
        with _timing_region():
            start = time.perf_counter()
            distinct, per_run = _run_each(trace, jobs)
            per_run_times.append(time.perf_counter() - start)

        with _timing_region():
            start = time.perf_counter()
            batched = simulate_batch(trace, jobs, workers=1, cache=NullCache())
            batch_times.append(time.perf_counter() - start)

        # Bit-identical, job-keyed.
        assert [batched.results[i] for i in distinct] == per_run
    per_run_seconds = min(per_run_times)
    batch_seconds = min(batch_times)
    batch_record = common.record_parallel_timing(
        "full_strategy_batch",
        per_run_seconds,
        batch_seconds,
        1,
        simulated=len(jobs),
        rounds=rounds,
        per_run_rounds=[round(t, 3) for t in per_run_times],
        batch_rounds=[round(t, 3) for t in batch_times],
        batch_groups=batched.batch_groups,
        delta_pass_candidates=batched.delta_pass_candidates,
    )
    regenerate.batch_record = batch_record
    lines.append(
        f"Batch evaluator, {len(jobs)} candidates in "
        f"{batched.batch_groups} memory-signature groups: "
        f"per-run {per_run_seconds:.1f}s, batch {batch_seconds:.1f}s "
        f"(speedup {batch_record['speedup']}x, single process)"
    )

    if SMOKE:
        regenerate.outcomes = (None, None)
        regenerate.record = None
        lines.append(
            "Whole-strategy serial/parallel legs SKIPPED (smoke mode)"
        )
        return "\n".join(lines)

    # -- serial vs parallel, whole strategy ------------------------------
    args = (
        trace,
        common.MEMORY_LIBRARY,
        common.CONNECTIVITY_LIBRARY,
        REDUCED_APEX,
        REDUCED_CONEX,
    )
    with _timing_region():
        start = time.perf_counter()
        serial = run_full(*args, hints=hints, workers=1, cache=NullCache())
        serial_seconds = time.perf_counter() - start

    if cpu_count < 2:
        # A pool on one core only adds overhead; a timing row from that
        # configuration would misread as an engine regression.
        common.record_parallel_timing(
            "full_strategy",
            serial_seconds,
            0.0,
            WORKERS,
            simulated=len(serial.simulated),
            skipped="single-core machine: parallel leg not comparable",
        )
        regenerate.outcomes = (serial, None)
        regenerate.record = None
        lines.append(
            f"Full strategy, {len(serial.simulated)} designs simulated: "
            f"serial {serial_seconds:.1f}s; parallel comparison SKIPPED "
            f"(cpu_count={cpu_count} < 2)"
        )
        return "\n".join(lines)

    with _timing_region():
        start = time.perf_counter()
        parallel = run_full(
            *args, hints=hints, workers=WORKERS, cache=NullCache()
        )
        parallel_seconds = time.perf_counter() - start

    record = common.record_parallel_timing(
        "full_strategy",
        serial_seconds,
        parallel_seconds,
        WORKERS,
        simulated=len(serial.simulated),
    )
    regenerate.outcomes = (serial, parallel)
    regenerate.record = record
    expectation = (
        "full speedup expected"
        if cpu_count >= WORKERS
        else f"underprovisioned: {cpu_count} CPUs for {WORKERS} workers"
    )
    lines.append(
        f"Full strategy, {len(serial.simulated)} designs simulated: "
        f"serial {serial_seconds:.1f}s, "
        f"workers={WORKERS} {parallel_seconds:.1f}s "
        f"(speedup {record['speedup']}x on {cpu_count} CPUs, {expectation})"
    )
    return "\n".join(lines)


DISTRIBUTED_WORKERS = 2

#: Minimum speedup of two loopback socket workers over the serial
#: batch evaluator on this grid — asserted only with the CPUs to
#: actually run them (see test_engine_distributed).
MIN_DISTRIBUTED_SPEEDUP = 1.5


def _spawn_workers(count: int):
    """Launch ``count`` loopback ``repro worker`` processes.

    Returns (processes, addresses); each worker binds port 0 and
    reports the chosen port on its first stdout line.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    processes = []
    addresses = []
    for _ in range(count):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        processes.append(process)
        line = process.stdout.readline().strip()
        if not line.startswith("listening on "):
            raise RuntimeError(f"worker failed to start: {line!r}")
        addresses.append(line.removeprefix("listening on "))
    return processes, addresses


def _stop_workers(processes) -> None:
    for process in processes:
        if process.poll() is None:
            process.terminate()
    for process in processes:
        process.wait(timeout=30)


def regenerate_distributed() -> str:
    cpu_count = os.cpu_count() or 1
    workload = get_workload("compress", scale=TRACE_SCALE, seed=1)
    trace = workload.trace()
    hints = dict(workload.pattern_hints)
    jobs = _full_grid_jobs(trace, hints)
    clear_plan_registry()
    lines = []

    processes, addresses = _spawn_workers(DISTRIBUTED_WORKERS)
    try:
        backend = ShardedBackend(
            [RemoteBackend(address) for address in addresses]
        )
        # Interleaved min-of-rounds, like the batch leg. Round one pays
        # the one-time costs on both sides — cold trace plans serially,
        # the trace push (once per worker, never again) remotely — so
        # later rounds measure the steady state.
        rounds = 1 if SMOKE else 3
        serial_times = []
        distributed_times = []
        identical = True
        for _ in range(rounds):
            with _timing_region():
                start = time.perf_counter()
                serial = simulate_batch(
                    trace, jobs, workers=1, cache=NullCache()
                )
                serial_times.append(time.perf_counter() - start)

            with _timing_region():
                start = time.perf_counter()
                distributed = simulate_batch(
                    trace, jobs, cache=NullCache(), backend=backend
                )
                distributed_times.append(time.perf_counter() - start)

            identical = identical and (
                distributed.results == serial.results
            )
        serial_seconds = min(serial_times)
        distributed_seconds = min(distributed_times)
        backend.close()

        # Fault leg: one worker dies before the batch is dispatched;
        # the sharded backend must detect the dead socket, re-dispatch
        # its groups to the survivor, and still merge bit-identically.
        fault_backend = ShardedBackend(
            [RemoteBackend(address) for address in addresses]
        )
        processes[-1].terminate()
        processes[-1].wait(timeout=30)
        fault = simulate_batch(
            trace, jobs, cache=NullCache(), backend=fault_backend
        )
        fault_backend.close()
        fault_identical = fault.results == serial.results

        record = common.record_distributed_timing(
            "full_strategy_distributed",
            serial_seconds,
            distributed_seconds,
            DISTRIBUTED_WORKERS,
            simulated=len(jobs),
            rounds=rounds,
            serial_rounds=[round(t, 3) for t in serial_times],
            distributed_rounds=[round(t, 3) for t in distributed_times],
            bytes_sent=distributed.bytes_sent,
            bytes_received=distributed.bytes_received,
            identical=identical,
            fault_identical=fault_identical,
            fault_retries=fault.retries,
            fault_degraded=fault.degraded,
        )
        regenerate_distributed.record = record
        regenerate_distributed.identical = identical
        regenerate_distributed.fault = fault
        regenerate_distributed.fault_identical = fault_identical
        expectation = (
            "full speedup expected"
            if cpu_count > DISTRIBUTED_WORKERS
            else f"{cpu_count} CPUs for {DISTRIBUTED_WORKERS} workers"
        )
        lines.append(
            f"Distributed batch, {len(jobs)} candidates over "
            f"{DISTRIBUTED_WORKERS} loopback workers: "
            f"serial {serial_seconds:.1f}s, "
            f"distributed {distributed_seconds:.1f}s "
            f"(speedup {record['speedup']}x on {cpu_count} CPUs, "
            f"{expectation}); "
            f"kill-one-worker run: retries={fault.retries}, "
            f"bit-identical={fault_identical}"
        )
    finally:
        _stop_workers(processes)
    return "\n".join(lines)


def test_engine_parallel(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("engine_parallel", text)

    # The batch evaluator's cross-candidate sharing is single-process:
    # its speedup floor holds regardless of the machine's core count.
    batch_record = regenerate.batch_record
    assert batch_record["speedup"] >= MIN_BATCH_SPEEDUP, batch_record

    serial, parallel = regenerate.outcomes
    if serial is not None and parallel is not None:
        # Determinism contract: the pareto set is workers-invariant.
        assert parallel.pareto_vectors() == serial.pareto_vectors()
        assert len(parallel.simulated) == len(serial.simulated)
        assert parallel.workers == WORKERS
    # Pool speedup is only measurable with real cores to run on.
    if (os.cpu_count() or 1) >= WORKERS:
        record = regenerate.record
        assert record["speedup"] >= 2.0, record


def test_engine_distributed(benchmark):
    text = benchmark.pedantic(
        regenerate_distributed, rounds=1, iterations=1
    )
    common.write_output("engine_distributed", text)

    # Determinism and fault recovery hold on any machine.
    assert regenerate_distributed.identical
    fault = regenerate_distributed.fault
    assert regenerate_distributed.fault_identical
    assert fault.retries >= 1 or fault.degraded
    # Two worker processes cannot beat a serial loop without at least
    # two cores to run on.
    if (os.cpu_count() or 1) >= 2:
        record = regenerate_distributed.record
        assert record["speedup"] >= MIN_DISTRIBUTED_SPEEDUP, record
