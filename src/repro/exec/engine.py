"""Parallel evaluation engine: simulate/estimate many design points.

The exploration algorithms spend essentially all their wall time in
:func:`repro.sim.simulator.simulate` — one call per candidate design,
every call independent of every other. This module turns those serial
loops into batch jobs:

* :func:`simulate_many` — run a list of :class:`SimulationJob` specs
  over one trace, against the content-addressed result cache, with the
  cache misses dispatched to a ``ProcessPoolExecutor`` when more than
  one worker is requested.
* :func:`estimate_many` — the Phase-I analogue for
  :func:`repro.conex.estimator.estimate_design`.

Determinism contract: results are returned **keyed by job index**,
never by completion order — ``simulate_many(trace, jobs)[i]`` always
corresponds to ``jobs[i]``, and the simulator itself is deterministic,
so a parallel run is bit-identical to a serial run of the same job
list. ``workers=1`` (or ``REPRO_WORKERS=1``, the default) short-circuits
to a plain in-process loop with no executor, no pickling, and no
subprocesses — exactly the code path the pre-engine explorers ran.

Job specs are plain picklable dataclasses. Parallel batches dispatch
through the persistent :class:`repro.exec.runtime.ExecutionRuntime` by
default: the worker pool is built once per runtime and the trace is
exported once per (runtime, trace-fingerprint) to shared memory, so a
batch moves only the (small) architecture descriptions. Pass
``runtime=`` for an explicit handle, or set
``REPRO_PERSISTENT_RUNTIME=0`` to fall back to the legacy per-batch
pool whose initializer ships the trace to each worker.

Each simulation call runs the simulation engine
(:mod:`repro.sim.batch`) by default, in workers and in-process alike.
The engine is bit-identical to the scalar reference loop, so path
selection needs no cache-key component: cached results mix freely
across paths and across ``REPRO_REFERENCE_SIM`` settings (the opt-out
env var propagates to pool workers like any other).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Sequence

from repro import obs
from repro.apex.architectures import MemoryArchitecture
from repro.conex.estimator import ConnectivityEstimate, estimate_design
from repro.connectivity.architecture import ConnectivityArchitecture
from repro.errors import ExecutionError, ExplorationError
from repro.exec.backend import ExecutionBackend, resolve_backend
from repro.exec.cache import SimulationCache, default_cache, simulation_key
from repro.exec.runtime import (
    WORKERS_ENV,
    ExecutionRuntime,
    default_runtime,
    dispatch_chunksize,
    effective_pool_workers,
    persistent_runtime_enabled,
    resolve_workers,
)
from repro.sim import batch as sim_batch
from repro.sim.metrics import SimulationResult
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import simulate
from repro.stats import BatchStats, StatsReport
from repro.trace.events import Trace

#: Below this many pending estimate jobs a pool costs more than it
#: saves (estimates are microseconds each; pickling is not).
_MIN_PARALLEL_ESTIMATES = 64


@dataclass(frozen=True)
class SimulationJob:
    """One picklable simulation work item (the trace travels separately)."""

    memory: MemoryArchitecture
    connectivity: ConnectivityArchitecture | None = None
    sampling: SamplingConfig | None = None
    posted_writes: bool = False


@dataclass(frozen=True)
class EstimateJob:
    """One picklable Phase-I estimation work item."""

    memory: MemoryArchitecture
    connectivity: ConnectivityArchitecture
    profile: SimulationResult


@dataclass(frozen=True)
class EngineReport(StatsReport):
    """What one batch produced and what it cost.

    ``results[i]`` always corresponds to ``jobs[i]`` of the submitted
    list. ``cache_hits + cache_misses + deduplicated + uncached ==
    len(results)``: simulation batches split into hits (served from
    the cache), misses (actually simulated), and in-batch duplicates
    (relabelled copies of a miss simulated once — *not* extra
    simulations); estimates never consult the cache (they are cheaper
    than a lookup is interesting) and count as ``uncached``, so
    summing reports across simulate and estimate batches keeps the
    aggregate hit rate honest.

    ``retries`` / ``pool_rebuilds`` / ``degraded`` surface the fault
    tolerance of the dispatch (see :class:`repro.exec.runtime.DispatchStats`):
    how many recovery rounds re-dispatched unfinished jobs, how many
    worker pools were rebuilt, and whether the batch finished on the
    serial degraded path after the rebuild budget ran out. All zero /
    ``False`` on an undisturbed batch.

    ``batch_groups`` / ``delta_pass_candidates`` are filled only by
    :func:`simulate_batch`: how many same-memory-signature groups the
    simulated misses were partitioned into, and how many of those
    candidates ran the shared-column delta pass (as opposed to falling
    back to independent full runs).

    ``backend`` names what dispatched the misses — ``"local"`` for the
    classic serial/runtime/legacy-pool paths, else the
    :attr:`~repro.exec.backend.ExecutionBackend.name` of the backend
    used — and ``bytes_sent`` / ``bytes_received`` count its wire
    traffic (zero for local backends). ``cache_memory_hits`` /
    ``cache_disk_hits`` / ``cache_net_hits`` split ``cache_hits`` by
    the :class:`~repro.exec.cache.SimulationCache` layer that served
    each hit (all three stay zero for cache objects that predate the
    layering).
    """

    results: tuple
    workers: int
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0
    uncached: int = 0
    seconds: float = 0.0
    retries: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    batch_groups: int = 0
    delta_pass_candidates: int = 0
    backend: str = "local"
    bytes_sent: int = 0
    bytes_received: int = 0
    cache_memory_hits: int = 0
    cache_disk_hits: int = 0
    cache_net_hits: int = 0

    #: ``as_dict()`` exports the accounting, not the payload.
    _STATS_EXCLUDE = ("results",)

    @property
    def stats(self) -> BatchStats:
        """The batch accounting as the unified :class:`BatchStats` shape."""
        return BatchStats(
            workers=self.workers,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            deduplicated=self.deduplicated,
            uncached=self.uncached,
            seconds=self.seconds,
            retries=self.retries,
            pool_rebuilds=self.pool_rebuilds,
            degraded=self.degraded,
        )


# -- worker-process plumbing ------------------------------------------------

_WORKER_TRACE: Trace | None = None


def _init_worker(trace: Trace) -> None:
    """Pool initializer: install the shared trace in this worker."""
    global _WORKER_TRACE
    _WORKER_TRACE = trace


def _run_simulation(job: SimulationJob) -> SimulationResult:
    """Execute one job against the worker's installed trace."""
    assert _WORKER_TRACE is not None, "worker used before initialization"
    return simulate(
        _WORKER_TRACE,
        job.memory,
        job.connectivity,
        sampling=job.sampling,
        posted_writes=job.posted_writes,
    )


def _run_group(
    jobs: "tuple[SimulationJob, ...]",
) -> "tuple[list[SimulationResult], int]":
    """Legacy-pool twin of the runtime's group worker."""
    assert _WORKER_TRACE is not None, "worker used before initialization"
    return sim_batch.evaluate_group(_WORKER_TRACE, jobs)


def _run_estimate(job: EstimateJob) -> ConnectivityEstimate:
    return estimate_design(job.memory, job.connectivity, job.profile)


#: Backwards-compatible alias; the helper moved to the runtime module.
_chunksize = dispatch_chunksize


def _relabel(result: SimulationResult, job: SimulationJob) -> SimulationResult:
    """Stamp a shared result with the requesting job's design names.

    Cache keys are content-addressed (names excluded), so a hit may
    come from an identically-configured architecture under another
    name. Downstream consumers (e.g. the BRG builder) check result
    ownership by name, so shared results are relabelled on retrieval.
    """
    memory_name = job.memory.name
    connectivity_name = (
        job.connectivity.name
        if job.connectivity is not None
        else result.connectivity_name
    )
    if (
        result.memory_name == memory_name
        and result.connectivity_name == connectivity_name
    ):
        return result
    return replace(
        result,
        memory_name=memory_name,
        connectivity_name=connectivity_name,
    )


# -- public entry points ----------------------------------------------------

def _record_batch(report: EngineReport) -> None:
    """Fold one batch's accounting into the obs counters.

    Every key is registered even when its value is zero, so a metrics
    export from an undisturbed serial run still shows the full
    ``exec.*`` / ``runtime.*`` counter surface.
    """
    obs.incr("exec.jobs", len(report.results))
    obs.incr("exec.cache_hits", report.cache_hits)
    obs.incr("exec.cache_misses", report.cache_misses)
    obs.incr("exec.deduplicated", report.deduplicated)
    obs.incr("exec.uncached", report.uncached)
    obs.incr("exec.batch_groups", report.batch_groups)
    obs.incr("exec.delta_pass_candidates", report.delta_pass_candidates)
    obs.incr("exec.cache_memory_hits", report.cache_memory_hits)
    obs.incr("exec.cache_disk_hits", report.cache_disk_hits)
    obs.incr("exec.cache_net_hits", report.cache_net_hits)
    obs.incr("backend.bytes_sent", report.bytes_sent)
    obs.incr("backend.bytes_received", report.bytes_received)
    obs.incr("runtime.retries", report.retries)
    obs.incr("runtime.pool_rebuilds", report.pool_rebuilds)
    obs.incr("runtime.degraded_batches", int(report.degraded))


def _cache_layers(cache: SimulationCache) -> tuple[int, int, int]:
    """Per-layer hit counters, zero for pre-layering cache objects."""
    return (
        getattr(cache, "memory_hits", 0),
        getattr(cache, "disk_hits", 0),
        getattr(cache, "net_hits", 0),
    )


def _backend_traffic(backend: ExecutionBackend) -> tuple[int, int]:
    return (backend.bytes_sent, backend.bytes_received)


def simulate_many(
    trace: Trace,
    jobs: Sequence[SimulationJob],
    workers: int | None = None,
    cache: SimulationCache | None = None,
    runtime: ExecutionRuntime | None = None,
    backend: "ExecutionBackend | str | None" = None,
) -> EngineReport:
    """Simulate every job over ``trace``; results ordered like ``jobs``.

    Args:
        trace: the shared access trace (exported to the workers once
            per runtime).
        jobs: picklable job specs; duplicates are simulated once and
            share the cached result.
        workers: process count; ``None`` consults the ``runtime`` (when
            given), else ``REPRO_WORKERS``, and falls back to 1
            (serial, in-process).
        cache: result cache; ``None`` selects the process-wide default
            (:func:`repro.exec.cache.default_cache`). Pass
            :data:`repro.exec.cache.NULL_CACHE` to force fresh runs.
        runtime: persistent execution runtime to dispatch through;
            ``None`` uses the process-wide default
            (:func:`repro.exec.runtime.default_runtime`) unless
            ``REPRO_PERSISTENT_RUNTIME=0`` reverts to per-batch pools.
        backend: an :class:`~repro.exec.backend.ExecutionBackend`
            instance or name (``"serial"``/``"pool"``/``"remote"``)
            that dispatches the cache misses instead of the classic
            paths; ``None`` consults ``REPRO_BACKEND`` (unset: the
            classic workers/runtime dispatch above).
    """
    with obs.span("exec.simulate_many"):
        report = _simulate_many(trace, jobs, workers, cache, runtime, backend)
    if obs.enabled():
        _record_batch(report)
    return report


def _simulate_many(
    trace: Trace,
    jobs: Sequence[SimulationJob],
    workers: int | None,
    cache: SimulationCache | None,
    runtime: ExecutionRuntime | None,
    backend: "ExecutionBackend | str | None" = None,
) -> EngineReport:
    start = time.perf_counter()
    if runtime is not None and runtime.closed:
        # Fail eagerly, before cache lookups or pool dispatch: a batch
        # must never get half-served by a dead runtime.
        raise ExecutionError(
            "cannot dispatch simulate_many through a closed runtime"
        )
    if workers is None and runtime is not None:
        workers = runtime.workers
    workers = resolve_workers(workers)
    active_backend = resolve_backend(backend, workers)
    cache = cache if cache is not None else default_cache()
    layers_before = _cache_layers(cache)
    results: list[SimulationResult | None] = [None] * len(jobs)
    pending: list[int] = []
    keys: list[tuple] = []
    for index, job in enumerate(jobs):
        key = simulation_key(
            trace, job.memory, job.connectivity, job.sampling,
            job.posted_writes,
        )
        keys.append(key)
        cached = cache.get(key)
        if cached is None:
            pending.append(index)
        else:
            results[index] = _relabel(cached, job)
    hits = len(jobs) - len(pending)
    memory_hits, disk_hits, net_hits = (
        after - before
        for after, before in zip(_cache_layers(cache), layers_before)
    )
    simulated = 0
    retries = pool_rebuilds = 0
    degraded = False
    bytes_sent = bytes_received = 0

    if pending:
        # Duplicate keys inside one batch run once; later copies reuse.
        first_of: dict[tuple, int] = {}
        unique: list[int] = []
        for index in pending:
            if keys[index] in first_of:
                continue
            first_of[keys[index]] = index
            unique.append(index)
        simulated = len(unique)

        if active_backend is not None:
            traffic_before = _backend_traffic(active_backend)
            outcomes = active_backend.run_simulations(
                trace, [jobs[i] for i in unique]
            )
            dispatch = active_backend.last_dispatch
            if dispatch is not None:
                retries = dispatch.retries
                pool_rebuilds = dispatch.pool_rebuilds
                degraded = dispatch.degraded
            traffic_after = _backend_traffic(active_backend)
            bytes_sent = traffic_after[0] - traffic_before[0]
            bytes_received = traffic_after[1] - traffic_before[1]
            for index, result in zip(unique, outcomes):
                results[index] = result
        elif workers <= 1 or len(unique) <= 1:
            for index in unique:
                results[index] = _execute_inline(trace, jobs[index])
        else:
            job_list = [jobs[i] for i in unique]
            if runtime is not None or persistent_runtime_enabled():
                active = runtime or default_runtime(workers)
                outcomes = active.map_simulations(trace, job_list)
                dispatch = active.last_dispatch
                if dispatch is not None:
                    retries = dispatch.retries
                    pool_rebuilds = dispatch.pool_rebuilds
                    degraded = dispatch.degraded
            else:
                # Legacy path: a fresh pool per batch, the trace shipped
                # through the initializer. No rebuild machinery here —
                # a broken pool degrades straight to the serial path.
                try:
                    with ProcessPoolExecutor(
                        max_workers=min(
                            effective_pool_workers(workers), len(unique)
                        ),
                        initializer=_init_worker,
                        initargs=(trace,),
                    ) as pool:
                        outcomes = list(
                            pool.map(
                                _run_simulation,
                                job_list,
                                chunksize=dispatch_chunksize(
                                    len(unique), workers
                                ),
                            )
                        )
                except BrokenProcessPool:
                    outcomes = [
                        _execute_inline(trace, job) for job in job_list
                    ]
                    retries = 1
                    degraded = True
            for index, result in zip(unique, outcomes):
                results[index] = result
        for index in unique:
            cache.put(keys[index], results[index])
        for index in pending:
            if results[index] is None:
                results[index] = _relabel(
                    results[first_of[keys[index]]], jobs[index]
                )

    return EngineReport(
        results=tuple(results),
        workers=workers,
        cache_hits=hits,
        cache_misses=simulated,
        deduplicated=len(pending) - simulated,
        seconds=time.perf_counter() - start,
        retries=retries,
        pool_rebuilds=pool_rebuilds,
        degraded=degraded,
        backend="local" if active_backend is None else active_backend.name,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
        cache_memory_hits=memory_hits,
        cache_disk_hits=disk_hits,
        cache_net_hits=net_hits,
    )


def simulate_batch(
    trace: Trace,
    jobs: Sequence[SimulationJob],
    workers: int | None = None,
    cache: SimulationCache | None = None,
    runtime: ExecutionRuntime | None = None,
    backend: "ExecutionBackend | str | None" = None,
) -> EngineReport:
    """Simulate every job over ``trace`` with cross-candidate sharing.

    The drop-in batch-evaluating sibling of :func:`simulate_many`:
    identical signature, identical determinism contract (``results[i]``
    corresponds to ``jobs[i]``, bit-identical to independent
    :func:`~repro.sim.simulator.simulate` calls), identical cache and
    dedup behaviour. The difference is *how* the cache misses run:
    they are partitioned into same-memory-signature groups and each
    group is evaluated through :func:`repro.sim.batch.evaluate_group`,
    which shares the trace plan, module outcome columns, and the merged
    DRAM open-row pass across the group's candidates so each candidate
    pays only its connectivity/sampling delta pass. Parallel dispatch
    ships whole groups to workers (a group is never split — splitting
    would forfeit the sharing); a ``backend`` (or ``REPRO_BACKEND``)
    receives the same whole groups, which makes the memory-signature
    group the unit of distribution for :class:`~repro.exec.backend.ShardedBackend`.
    """
    with obs.span("exec.simulate_batch"):
        report = _simulate_batch(trace, jobs, workers, cache, runtime, backend)
    if obs.enabled():
        _record_batch(report)
    return report


def _simulate_batch(
    trace: Trace,
    jobs: Sequence[SimulationJob],
    workers: int | None,
    cache: SimulationCache | None,
    runtime: ExecutionRuntime | None,
    backend: "ExecutionBackend | str | None" = None,
) -> EngineReport:
    start = time.perf_counter()
    if runtime is not None and runtime.closed:
        raise ExecutionError(
            "cannot dispatch simulate_batch through a closed runtime"
        )
    if workers is None and runtime is not None:
        workers = runtime.workers
    workers = resolve_workers(workers)
    active_backend = resolve_backend(backend, workers)
    cache = cache if cache is not None else default_cache()
    layers_before = _cache_layers(cache)
    results: list[SimulationResult | None] = [None] * len(jobs)
    pending: list[int] = []
    keys: list[tuple] = []
    for index, job in enumerate(jobs):
        key = simulation_key(
            trace, job.memory, job.connectivity, job.sampling,
            job.posted_writes,
        )
        keys.append(key)
        cached = cache.get(key)
        if cached is None:
            pending.append(index)
        else:
            results[index] = _relabel(cached, job)
    hits = len(jobs) - len(pending)
    memory_hits, disk_hits, net_hits = (
        after - before
        for after, before in zip(_cache_layers(cache), layers_before)
    )
    simulated = 0
    retries = pool_rebuilds = 0
    degraded = False
    batch_groups = 0
    delta_candidates = 0
    bytes_sent = bytes_received = 0

    if pending:
        first_of: dict[tuple, int] = {}
        unique: list[int] = []
        for index in pending:
            if keys[index] in first_of:
                continue
            first_of[keys[index]] = index
            unique.append(index)
        simulated = len(unique)

        # Partition the misses by memory-architecture signature — the
        # grouping under which module columns are shareable — keeping
        # first-appearance order for deterministic dispatch.
        group_of: dict = {}
        groups: list[list[int]] = []
        for index in unique:
            signature = keys[index][1]
            slot = group_of.get(signature)
            if slot is None:
                group_of[signature] = len(groups)
                groups.append([index])
            else:
                groups[slot].append(index)
        batch_groups = len(groups)
        group_jobs = [[jobs[i] for i in group] for group in groups]

        if active_backend is not None:
            traffic_before = _backend_traffic(active_backend)
            outcomes = active_backend.run_groups(trace, group_jobs)
            dispatch = active_backend.last_dispatch
            if dispatch is not None:
                retries = dispatch.retries
                pool_rebuilds = dispatch.pool_rebuilds
                degraded = dispatch.degraded
            traffic_after = _backend_traffic(active_backend)
            bytes_sent = traffic_after[0] - traffic_before[0]
            bytes_received = traffic_after[1] - traffic_before[1]
        elif workers <= 1 or len(groups) <= 1:
            plan = sim_batch.trace_plan(trace)
            outcomes = [
                sim_batch.evaluate_group(trace, members, plan)
                for members in group_jobs
            ]
        elif runtime is not None or persistent_runtime_enabled():
            active = runtime or default_runtime(workers)
            outcomes = active.map_simulation_groups(trace, group_jobs)
            dispatch = active.last_dispatch
            if dispatch is not None:
                retries = dispatch.retries
                pool_rebuilds = dispatch.pool_rebuilds
                degraded = dispatch.degraded
        else:
            # Legacy path: fresh pool, trace via initializer, whole
            # groups as map items. A broken pool degrades to serial.
            try:
                with ProcessPoolExecutor(
                    max_workers=min(
                        effective_pool_workers(workers), len(groups)
                    ),
                    initializer=_init_worker,
                    initargs=(trace,),
                ) as pool:
                    outcomes = list(
                        pool.map(
                            _run_group,
                            [tuple(members) for members in group_jobs],
                            chunksize=dispatch_chunksize(
                                len(groups), workers
                            ),
                        )
                    )
            except BrokenProcessPool:
                plan = sim_batch.trace_plan(trace)
                outcomes = [
                    sim_batch.evaluate_group(trace, members, plan)
                    for members in group_jobs
                ]
                retries = 1
                degraded = True
        for group, (group_results, delta) in zip(groups, outcomes):
            delta_candidates += delta
            for index, result in zip(group, group_results):
                results[index] = result
        for index in unique:
            cache.put(keys[index], results[index])
        for index in pending:
            if results[index] is None:
                results[index] = _relabel(
                    results[first_of[keys[index]]], jobs[index]
                )

    return EngineReport(
        results=tuple(results),
        workers=workers,
        cache_hits=hits,
        cache_misses=simulated,
        deduplicated=len(pending) - simulated,
        seconds=time.perf_counter() - start,
        retries=retries,
        pool_rebuilds=pool_rebuilds,
        degraded=degraded,
        batch_groups=batch_groups,
        delta_pass_candidates=delta_candidates,
        backend="local" if active_backend is None else active_backend.name,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
        cache_memory_hits=memory_hits,
        cache_disk_hits=disk_hits,
        cache_net_hits=net_hits,
    )


def _execute_inline(trace: Trace, job: SimulationJob) -> SimulationResult:
    """Serial fallback: run one job in-process (no pickling)."""
    return simulate(
        trace,
        job.memory,
        job.connectivity,
        sampling=job.sampling,
        posted_writes=job.posted_writes,
    )


def estimate_many(
    jobs: Sequence[EstimateJob],
    workers: int | None = None,
    runtime: ExecutionRuntime | None = None,
    backend: "ExecutionBackend | str | None" = None,
) -> EngineReport:
    """Run Phase-I estimates for every job; results ordered like ``jobs``.

    Estimates are analytic (microseconds each), so the pool only engages
    for batches large enough to amortize job pickling; smaller batches —
    and ``workers=1`` — run serially in-process (an explicit ``backend``
    obeys the same size floor: shipping microsecond jobs over a socket
    is never a win). Estimates never touch the result cache: the report
    counts them as ``uncached``, not as hits or misses.
    """
    with obs.span("exec.estimate_many"):
        report = _estimate_many(jobs, workers, runtime, backend)
    if obs.enabled():
        _record_batch(report)
    return report


def _estimate_many(
    jobs: Sequence[EstimateJob],
    workers: int | None,
    runtime: ExecutionRuntime | None,
    backend: "ExecutionBackend | str | None" = None,
) -> EngineReport:
    start = time.perf_counter()
    if runtime is not None and runtime.closed:
        raise ExecutionError(
            "cannot dispatch estimate_many through a closed runtime"
        )
    if workers is None and runtime is not None:
        workers = runtime.workers
    workers = resolve_workers(workers)
    active_backend = resolve_backend(backend, workers)
    retries = pool_rebuilds = 0
    degraded = False
    bytes_sent = bytes_received = 0
    backend_name = "local"
    if active_backend is not None and len(jobs) >= _MIN_PARALLEL_ESTIMATES:
        backend_name = active_backend.name
        traffic_before = _backend_traffic(active_backend)
        results = tuple(active_backend.run_estimates(jobs))
        dispatch = active_backend.last_dispatch
        if dispatch is not None:
            retries = dispatch.retries
            pool_rebuilds = dispatch.pool_rebuilds
            degraded = dispatch.degraded
        traffic_after = _backend_traffic(active_backend)
        bytes_sent = traffic_after[0] - traffic_before[0]
        bytes_received = traffic_after[1] - traffic_before[1]
    elif workers <= 1 or len(jobs) < _MIN_PARALLEL_ESTIMATES:
        results = tuple(
            estimate_design(job.memory, job.connectivity, job.profile)
            for job in jobs
        )
    elif runtime is not None or persistent_runtime_enabled():
        active = runtime or default_runtime(workers)
        results = tuple(active.map_estimates(jobs))
        dispatch = active.last_dispatch
        if dispatch is not None:
            retries = dispatch.retries
            pool_rebuilds = dispatch.pool_rebuilds
            degraded = dispatch.degraded
    else:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = tuple(
                    pool.map(
                        _run_estimate,
                        jobs,
                        chunksize=dispatch_chunksize(len(jobs), workers),
                    )
                )
        except BrokenProcessPool:
            results = tuple(
                estimate_design(job.memory, job.connectivity, job.profile)
                for job in jobs
            )
            retries = 1
            degraded = True
    return EngineReport(
        results=results,
        workers=workers,
        uncached=len(jobs),
        seconds=time.perf_counter() - start,
        retries=retries,
        pool_rebuilds=pool_rebuilds,
        degraded=degraded,
        backend=backend_name,
        bytes_sent=bytes_sent,
        bytes_received=bytes_received,
    )
