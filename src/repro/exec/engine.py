"""Batch evaluation engine: simulate many design points.

The exploration algorithms spend essentially all their wall time
simulating candidate designs, every one independent of every other.
This module turns those loops into batch jobs:

* :func:`simulate_batch` — run a list of :class:`SimulationJob` specs
  over one trace against the content-addressed result cache. The
  misses are deduplicated, partitioned into same-memory-signature
  groups, and handed to one :class:`~repro.exec.backend.ExecutionBackend`
  call; each group shares its trace plan and module columns
  (:func:`repro.sim.batch.evaluate_group`).

Phase-I estimates do not come through here: they are analytic and
columnar (:func:`repro.conex.estimator.estimate_plan`) and run
in-process, so this package never imports :mod:`repro.conex`.

Determinism contract: results are returned **keyed by job index**,
never by completion order — ``simulate_batch(trace, jobs).results[i]``
always corresponds to ``jobs[i]``, and the simulator itself is
deterministic, so a parallel run is bit-identical to a serial run of
the same job list.

Where a batch runs is its ``backend=``: an
:class:`~repro.exec.backend.ExecutionBackend` instance, or a name that
:func:`repro.exec.backend.resolve_backend` turns into one, which the
batch closes again before it returns. Unnamed,
a batch with one worker (``REPRO_WORKERS`` unset) runs in-process on a
:class:`~repro.exec.backend.SerialBackend`, and any other batch on a
:class:`~repro.exec.backend.PoolBackend` over the process-wide default
runtime. A caller that owns a runtime passes
``backend=PoolBackend(runtime)``. The pool is built once per runtime
and the trace is exported once per (runtime, trace-fingerprint) to
shared memory, so a batch moves only the (small) architecture
descriptions; a batch of at most one group runs in-process on the
runtime and builds neither.

The simulation engine is bit-identical to the scalar reference loop,
so path selection needs no cache-key component: cached results mix
freely across backends and across ``REPRO_REFERENCE_SIM`` settings
(the opt-out env var propagates to pool workers like any other).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

from repro import obs
from repro.apex.architectures import MemoryArchitecture
from repro.connectivity.architecture import ConnectivityArchitecture
from repro.errors import ExecutionError
from repro.exec.backend import ExecutionBackend, PoolBackend, resolve_backend
from repro.exec.cache import SimulationCache, default_cache, simulation_key
from repro.exec.runtime import resolve_workers
from repro.sim.metrics import SimulationResult
from repro.sim.sampling import SamplingConfig
from repro.stats import BatchStats, StatsReport
from repro.trace.events import Trace

@dataclass(frozen=True)
class SimulationJob:
    """One picklable simulation work item (the trace travels separately)."""

    memory: MemoryArchitecture
    connectivity: ConnectivityArchitecture | None = None
    sampling: SamplingConfig | None = None
    posted_writes: bool = False


@dataclass(frozen=True)
class EngineReport(StatsReport):
    """What one batch produced and what it cost.

    ``results[i]`` always corresponds to ``jobs[i]`` of the submitted
    list. ``cache_hits + cache_misses + deduplicated == len(results)``:
    a batch splits into hits (served from the cache), misses (actually
    simulated), and in-batch duplicates (relabelled copies of a miss
    simulated once — *not* extra simulations).

    ``retries`` / ``pool_rebuilds`` / ``degraded`` surface the fault
    tolerance of the dispatch (see :class:`repro.exec.runtime.DispatchStats`):
    how many recovery rounds re-dispatched unfinished jobs, how many
    worker pools were rebuilt, and whether the batch finished on the
    serial degraded path after the rebuild budget ran out. All zero /
    ``False`` on an undisturbed batch.

    ``batch_groups`` / ``delta_pass_candidates`` are filled by
    simulation batches: how many same-memory-signature groups the
    simulated misses were partitioned into, and how many of those
    candidates ran the shared-column delta pass (as opposed to falling
    back to independent full runs).

    ``backend`` is the :attr:`~repro.exec.backend.ExecutionBackend.name`
    of the backend that ran the batch (``"serial"``, ``"pool"``,
    ``"sharded"``, …), and ``bytes_sent`` / ``bytes_received`` count
    its wire traffic (zero for local backends). ``cache_memory_hits`` /
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
    seconds: float = 0.0
    retries: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    batch_groups: int = 0
    delta_pass_candidates: int = 0
    backend: str = "serial"
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
            seconds=self.seconds,
            retries=self.retries,
            pool_rebuilds=self.pool_rebuilds,
            degraded=self.degraded,
        )


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


def _dispatch(
    backend: ExecutionBackend,
    trace: Trace,
    groups: Sequence[Sequence[SimulationJob]],
):
    """Run the batch's one backend call; return its outcomes and accounting."""
    sent, received = backend.bytes_sent, backend.bytes_received
    values = backend.run_groups(trace, groups)
    dispatch = backend.last_dispatch
    accounting = {
        "backend": backend.name,
        "bytes_sent": backend.bytes_sent - sent,
        "bytes_received": backend.bytes_received - received,
    }
    if dispatch is not None:
        accounting.update(
            retries=dispatch.retries,
            pool_rebuilds=dispatch.pool_rebuilds,
            degraded=dispatch.degraded,
        )
    return values, accounting


def simulate_batch(
    trace: Trace,
    jobs: Sequence[SimulationJob],
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionBackend | str | None" = None,
) -> EngineReport:
    """Simulate every job over ``trace``; results ordered like ``jobs``.

    ``results[i]`` corresponds to ``jobs[i]`` and is bit-identical to
    an independent :func:`~repro.sim.simulator.simulate` call. Cache
    hits are served directly; in-batch duplicates are simulated once.
    The remaining misses are partitioned into same-memory-signature
    groups, each evaluated through :func:`repro.sim.batch.evaluate_group`
    so the group shares the trace plan, module outcome columns, and
    the merged DRAM open-row pass, and each candidate pays only its
    connectivity/sampling delta pass. All groups go to the backend in
    one call; a group is never split (splitting would forfeit the
    sharing), which makes it the unit of distribution for
    :class:`~repro.exec.backend.ShardedBackend`.

    Args:
        trace: the shared access trace (exported to pool workers once
            per runtime).
        jobs: picklable job specs; duplicates are simulated once and
            share the cached result.
        workers: process count; ``None`` consults the runtime of a
            passed :class:`~repro.exec.backend.PoolBackend`, else
            ``REPRO_WORKERS``, and falls back to 1.
        cache: result cache; ``None`` selects the process-wide default
            (:func:`repro.exec.cache.default_cache`). Pass
            :data:`repro.exec.cache.NULL_CACHE` to force fresh runs.
        backend: an :class:`~repro.exec.backend.ExecutionBackend`
            instance, used as given and left open (pass
            ``PoolBackend(runtime)`` to dispatch through a runtime you
            own), or a name (``"serial"``/``"pool"``/``"remote"``);
            ``None`` applies the default rule of
            :func:`~repro.exec.backend.resolve_backend`. A
            backend resolved here from a name is closed on return.
    """
    if isinstance(backend, PoolBackend):
        # A held backend can outlive its runtime: fail before any cache
        # lookup rather than half-serve the batch.
        if backend.runtime.closed:
            raise ExecutionError(
                "cannot dispatch simulate_batch through a closed runtime"
            )
        if workers is None:
            workers = backend.runtime.workers
    workers = resolve_workers(workers)
    with obs.span("exec.simulate_batch"):
        active = resolve_backend(backend, workers)
        try:
            report = _simulate_batch(trace, jobs, workers, cache, active)
        finally:
            if active is not backend:
                active.close()
    if obs.enabled():
        _record_batch(report)
    return report


def _simulate_batch(
    trace: Trace,
    jobs: Sequence[SimulationJob],
    workers: int,
    cache: SimulationCache | None,
    active: ExecutionBackend,
) -> EngineReport:
    start = time.perf_counter()
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
    memory_hits, disk_hits, net_hits = (
        after - before
        for after, before in zip(_cache_layers(cache), layers_before)
    )

    # Duplicate keys inside one batch run once; later copies reuse.
    first_of: dict[tuple, int] = {}
    unique: list[int] = []
    for index in pending:
        if keys[index] not in first_of:
            first_of[keys[index]] = index
            unique.append(index)
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

    accounting: dict = {"backend": active.name}
    delta_candidates = 0
    if groups:
        group_jobs = [[jobs[i] for i in group] for group in groups]
        outcomes, accounting = _dispatch(active, trace, group_jobs)
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
        cache_hits=len(jobs) - len(pending),
        cache_misses=len(unique),
        deduplicated=len(pending) - len(unique),
        seconds=time.perf_counter() - start,
        batch_groups=len(groups),
        delta_pass_candidates=delta_candidates,
        cache_memory_hits=memory_hits,
        cache_disk_hits=disk_hits,
        cache_net_hits=net_hits,
        **accounting,
    )

