"""Persistent execution runtime: one pool, one trace export, many batches.

An exploration session issues many batches (APEX evaluation, ConEx
Phase II per memory architecture, neighborhood expansion, sweeps).
Building a process pool and shipping the trace per batch would pay
process start-up and megabytes of pickling every time, so
:class:`ExecutionRuntime` amortizes all of it:

* the worker pool is created once (lazily, on first parallel dispatch)
  and reused by every batch routed through the runtime — a caller that
  owns a runtime hands it down as ``backend=runtime``;
* each distinct trace is exported once per (runtime, fingerprint) to
  shared memory (:meth:`repro.trace.events.Trace.export_shared`);
  workers attach to the columns zero-copy on first use and keep the
  attached trace in a per-process registry, so a batch dispatch moves
  only job specs and a tiny :class:`~repro.trace.events.SharedTraceHandle`;
* ``close()`` (or the context manager) shuts the pool down and unlinks
  the shared blocks; a process-wide default runtime
  (:func:`default_runtime`) is closed automatically at exit.

The runtime dispatches one kind of work: whole same-signature
simulation groups (:meth:`ExecutionRuntime.map_simulation_groups`).

**Fault tolerance.** A worker death (OOM kill, segfault, SIGKILL)
breaks a ``ProcessPoolExecutor`` permanently: every in-flight and
future submission raises ``BrokenProcessPool``. The runtime survives
this instead of failing the batch: results stay keyed by group index,
each round re-dispatches only the unfinished groups and spends one of
``REPRO_MAX_RETRIES`` retries (default 2), and then the remainder
degrades to the serial in-process path. A round rebuilds the pool when
it breaks or when a chunk exceeds its timeout budget
(``REPRO_JOB_TIMEOUT`` × the jobs the chunk carries). Per-dispatch
accounting lands in
:attr:`ExecutionRuntime.last_dispatch` (a :class:`DispatchStats`) and
accumulates in :attr:`ExecutionRuntime.stats`; the engine surfaces it
as ``EngineReport.retries`` / ``pool_rebuilds`` / ``degraded``.

Shared-memory hygiene is crash-safe too: exported blocks carry
PID-tagged names and a sidecar manifest (:mod:`repro.trace.shm`),
SIGTERM/SIGINT unlink whatever is still registered, and runtime
construction sweeps blocks leaked by dead processes.

``workers=1`` runs in process (:func:`run_in_process`, the one
in-process path): no pool, no export, bit-identical results — the
determinism contract of :mod:`repro.exec.engine` is unchanged because
results stay keyed by index and the simulator is deterministic. A batch
of at most one group takes the same in-process path at any worker
count: one group is never split, so a pool could only add the export
and the round trip.

Where a batch runs is decided in one place, :func:`resolve_placement`:
in process, or on a runtime.
"""

from __future__ import annotations

import atexit
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.config import (
    FAULT_INJECT_ENV,
    JOB_TIMEOUT_ENV,
    MAX_RETRIES_ENV,
    WORKERS_ENV,
    current_settings,
    positive_finite,
)
from repro.errors import ExecutionError, ExplorationError
from repro.obs.registry import ObsSnapshot
from repro.sim import batch
from repro.sim.metrics import SimulationResult
from repro.stats import StatsReport
from repro.trace import shm as shm_registry
from repro.trace.events import SharedTraceExport, SharedTraceHandle, Trace

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.exec.engine import SimulationJob

__all__ = [
    "FAULT_INJECT_ENV",
    "JOB_TIMEOUT_ENV",
    "MAX_RETRIES_ENV",
    "WORKERS_ENV",
    "DEFAULT_MAX_RETRIES",
    "DispatchStats",
    "ExecutionRuntime",
    "RuntimeStats",
    "default_runtime",
    "dispatch_chunksize",
    "effective_pool_workers",
    "resolve_job_timeout",
    "resolve_max_retries",
    "resolve_placement",
    "resolve_workers",
    "run_in_process",
    "set_default_runtime",
]

#: Default pool rebuilds per batch when ``REPRO_MAX_RETRIES`` is unset.
DEFAULT_MAX_RETRIES = 2

#: Processes that already warned about an over-provisioned pool.
_CAP_WARNED: set[int] = set()


def effective_pool_workers(workers: int) -> int:
    """Pool size for a requested worker count, capped at the CPU count.

    ``BENCH_parallel.json`` records speedup 0.98 at ``workers=4`` on a
    one-CPU host: processes beyond the core count only add scheduling
    and pickling overhead. The cap applies to the *pool size only* —
    dispatch accounting, chunk sizing, and the ``workers<=1`` serial
    short-circuit all keep the requested count, so capped and uncapped
    runs stay bit-identical (results are keyed by job index either
    way). Warns once per process.
    """
    if workers <= 1:
        return workers
    cap = os.cpu_count() or 1
    if workers <= cap:
        return workers
    pid = os.getpid()
    if pid not in _CAP_WARNED:
        _CAP_WARNED.add(pid)
        import warnings

        warnings.warn(
            f"requested {workers} pool workers on a {cap}-CPU host; "
            f"capping the pool at {cap} processes",
            RuntimeWarning,
            stacklevel=3,
        )
        obs.incr("runtime.workers_capped")
    return cap


def resolve_workers(workers: int | None = None) -> int:
    """Effective worker count: explicit arg, else ``Settings.workers``.

    The settings default (``REPRO_WORKERS`` unset) is 1 — serial — so
    library behaviour (and golden outputs) stays identical to the
    pre-engine code unless a caller or the environment opts into
    parallelism.
    """
    if workers is None:
        return current_settings().workers
    if workers < 1:
        raise ExplorationError(f"workers must be >= 1, got {workers}")
    return workers


def resolve_job_timeout(timeout: float | None = None) -> float | None:
    """Effective per-job timeout: explicit arg, else ``Settings.job_timeout``."""
    if timeout is None:
        return current_settings().job_timeout
    if not positive_finite(timeout):
        raise ExecutionError(
            f"job timeout must be positive and finite, got {timeout}"
        )
    return float(timeout)


def resolve_max_retries(retries: int | None = None) -> int:
    """Effective rebuild budget: explicit arg, else ``Settings.max_retries``."""
    if retries is None:
        return current_settings().max_retries
    if retries < 0:
        raise ExecutionError(f"max retries must be >= 0, got {retries}")
    return retries


def dispatch_chunksize(pending: int, workers: int) -> int:
    """Dispatch granularity: ~4 chunks per worker amortizes the IPC."""
    return max(1, -(-pending // (workers * 4)))


@dataclass
class DispatchStats(StatsReport):
    """Fault accounting for one ``map_simulation_groups`` call.

    Attributes:
        jobs: jobs the call was asked to run (not groups).
        retries: recovery rounds that re-dispatched unfinished groups
            to a rebuilt pool.
        pool_rebuilds: worker pools torn down and rebuilt after a fault
            (a broken pool or a chunk timeout).
        timeouts: chunks abandoned because they exceeded their timeout
            budget (``REPRO_JOB_TIMEOUT`` × the jobs they carry).
        degraded: the retry budget ran out and the remaining groups
            finished on the serial in-process path.
    """

    jobs: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    degraded: bool = False


def _job_budget(
    job_timeout: float | None, groups: "Sequence[Sequence[SimulationJob]]"
) -> float | None:
    """Seconds a pool chunk of ``groups`` may take: the per-job timeout
    × the jobs (not groups) it carries, or ``None``.
    """
    if job_timeout is None:
        return None
    return job_timeout * sum(len(group) for group in groups)


@dataclass
class RuntimeStats(StatsReport):
    """Cumulative fault accounting across a runtime's lifetime."""

    batches: int = 0
    jobs: int = 0
    retries: int = 0
    pool_rebuilds: int = 0
    timeouts: int = 0
    degraded_batches: int = 0

    def absorb(self, dispatch: DispatchStats) -> None:
        self.batches += 1
        self.jobs += dispatch.jobs
        self.retries += dispatch.retries
        self.pool_rebuilds += dispatch.pool_rebuilds
        self.timeouts += dispatch.timeouts
        self.degraded_batches += int(dispatch.degraded)

    def fault_summary(self) -> str | None:
        """One-line fault recap, or ``None`` when the run was clean.

        The CLI prints this to stderr after each command instead of
        formatting runtime fields itself.
        """
        if not self.pool_rebuilds and not self.degraded_batches:
            return None
        degraded = (
            f", {self.degraded_batches} batch(es) degraded to serial"
            if self.degraded_batches
            else ""
        )
        return (
            f"recovered from worker faults: "
            f"{self.pool_rebuilds} pool rebuild(s), "
            f"{self.retries} retry round(s), "
            f"{self.timeouts} timeout(s){degraded}"
        )


def run_in_process(
    trace: Trace, groups: "Sequence[Sequence[SimulationJob]]"
) -> list:
    """Evaluate whole same-signature groups here, ordered like ``groups``.

    The one in-process path: a serial batch, a runtime's one-worker or
    one-group batch, and a degraded remainder all run here. Returns one
    ``(results, delta_candidates)`` pair per group — the
    :func:`repro.sim.batch.evaluate_group` contract. Both batch
    functions are looked up on the module at call time, so a patched
    ``trace_plan`` or ``evaluate_group`` sees every group.
    """
    if not groups:
        return []
    plan = batch.trace_plan(trace)
    return [batch.evaluate_group(trace, group, plan) for group in groups]


# -- worker-process side ----------------------------------------------------

#: Traces this worker has attached, keyed by fingerprint. Entries live
#: for the worker's lifetime: the exporting runtime unlinks the blocks
#: only after the pool has shut down, and an attached mapping survives
#: the unlink anyway (POSIX semantics).
_ATTACHED_TRACES: dict[str, Trace] = {}


def _attached_trace(handle: SharedTraceHandle) -> Trace:
    """This worker's view of the shared trace, attached on first use."""
    trace = _ATTACHED_TRACES.get(handle.fingerprint)
    if trace is None:
        trace = Trace.attach_shared(handle)
        _ATTACHED_TRACES[handle.fingerprint] = trace
    return trace


def _maybe_inject_fault(spec: str) -> None:
    """Honour the ``REPRO_FAULT_INJECT`` chaos hook (tests/CI only).

    ``spec`` is ``Settings.fault_inject``, looked up once per chunk by
    the caller rather than once per group.
    """
    mode, _, path = spec.partition(":")
    if mode == "always":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode not in ("once", "hang") or not path:
        return
    try:
        descriptor = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # someone already took the fault
    os.close(descriptor)
    if mode == "once":
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(600.0)  # "hang": park until the timeout reaper kills us


def _chunk_observation(collect: bool) -> ObsSnapshot | None:
    """Worker-side setup for one chunk's obs collection.

    When the dispatching process records metrics (``collect``), the
    worker turns its own recording on (it may have been spawned before
    the parent enabled obs, so the import-time ``REPRO_OBS`` check is
    not enough) and returns the baseline snapshot the post-chunk delta
    is computed against.
    """
    if not collect:
        return None
    if not obs.enabled():
        obs.enable()
    obs.reset_span_stack()
    return obs.snapshot()


def _run_group_chunk(
    items: "Sequence[tuple[SharedTraceHandle, tuple[SimulationJob, ...]]]",
    collect: bool = False,
) -> "tuple[list[tuple[list[SimulationResult], int]], ObsSnapshot | None]":
    fault_spec = current_settings().fault_inject
    baseline = _chunk_observation(collect)
    results = []
    for item in items:
        if fault_spec:
            _maybe_inject_fault(fault_spec)
        handle, jobs = item
        results.append(batch.evaluate_group(_attached_trace(handle), jobs))
    delta = obs.snapshot().subtract(baseline) if collect else None
    return results, delta


# -- the runtime ------------------------------------------------------------

#: Processes that already swept stale shm blocks (once per process).
_SWEPT_PIDS: set[int] = set()


def _startup_sweep() -> None:
    pid = os.getpid()
    if pid in _SWEPT_PIDS:
        return
    _SWEPT_PIDS.add(pid)
    try:
        shm_registry.sweep_stale()
    except Exception:  # pragma: no cover - sweep must never fail a run
        pass


class ExecutionRuntime:
    """A long-lived worker pool plus its shared trace exports.

    Construct one per exploration session (the CLI does this per
    command, each service runner thread once) or rely on
    :func:`default_runtime`. Hand it to ``simulate_batch`` and the
    drivers as ``backend=runtime``; every batch then reuses the same
    pool and the same shared trace blocks.

    Dispatch is fault tolerant: worker deaths and job timeouts rebuild
    the pool and re-dispatch only the unfinished jobs (see the module
    docstring); :attr:`stats` and :attr:`last_dispatch` expose the
    accounting.

    Args:
        workers: process count; ``None`` consults ``REPRO_WORKERS``
            and falls back to 1 (serial: the runtime stays inert — no
            pool, no exports).
        job_timeout: per-job seconds before a chunk counts as stuck;
            ``None`` consults ``REPRO_JOB_TIMEOUT`` (unset: no timeout).
        max_retries: pool rebuilds per batch before degrading to the
            serial path; ``None`` consults ``REPRO_MAX_RETRIES``
            (default :data:`DEFAULT_MAX_RETRIES`).
    """

    def __init__(
        self,
        workers: int | None = None,
        job_timeout: float | None = None,
        max_retries: int | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.job_timeout = resolve_job_timeout(job_timeout)
        self.max_retries = resolve_max_retries(max_retries)
        self._pool: ProcessPoolExecutor | None = None
        self._exports: dict[str, SharedTraceExport] = {}
        self._closed = False
        self.stats = RuntimeStats()
        self.last_dispatch: DispatchStats | None = None
        _startup_sweep()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def healthy(self) -> bool:
        """Can this runtime still dispatch work?

        ``False`` once closed, or when the pool was broken *outside*
        the runtime's own dispatch (which self-heals). Used by
        :func:`default_runtime` to avoid handing out a dead runtime.
        """
        if self._closed:
            return False
        pool = self._pool
        return pool is None or not getattr(pool, "_broken", False)

    def _ensure_open(self) -> None:
        if self._closed:
            raise ExecutionError("execution runtime is closed")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        self._ensure_open()
        if self._pool is not None and getattr(self._pool, "_broken", False):
            # Poisoned between batches (e.g. a worker OOM-killed while
            # idle, or external dispatch broke it): rebuild silently.
            self._discard_pool(kill=True)
            self.stats.pool_rebuilds += 1
            obs.incr("runtime.pool_rebuilds")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=effective_pool_workers(self.workers)
            )
        return self._pool

    def _discard_pool(self, kill: bool = False) -> None:
        """Tear the current pool down without touching the exports."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        process_map = getattr(pool, "_processes", None)
        processes = (
            list(process_map.values()) if isinstance(process_map, dict) else []
        )
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - shutdown must not raise
            pass
        if kill:
            # A stuck or half-dead pool may never drain: terminate the
            # workers outright so the rebuilt pool has the CPUs.
            for process in processes:
                try:
                    if process.is_alive():
                        process.terminate()
                except Exception:  # pragma: no cover - best-effort kill
                    pass

    def share_trace(self, trace: Trace) -> SharedTraceHandle:
        """The trace's shared handle, exported once per fingerprint."""
        self._ensure_open()
        fingerprint = trace.fingerprint()
        export = self._exports.get(fingerprint)
        if export is None:
            export = trace.export_shared()
            self._exports[fingerprint] = export
            obs.incr("runtime.shm_exports")
        return export.handle

    # -- fault-tolerant dispatch core ----------------------------------

    def _dispatch_groups(
        self,
        trace: Trace,
        handle: SharedTraceHandle,
        groups: "Sequence[tuple[SimulationJob, ...]]",
        collect: bool,
    ) -> tuple[list, DispatchStats]:
        """The recovery loop: pool rounds, then the serial degrade.

        Results are kept by group index, so a recovered dispatch
        returns exactly what an undisturbed one would. A round that
        leaves groups unfinished spends one retry, and the next round
        re-dispatches only those. Once ``max_retries`` retries are
        spent, the remainder degrades to :func:`run_in_process`.
        Job-raised errors are not faults: they propagate unchanged.
        """
        stats = DispatchStats(jobs=sum(len(group) for group in groups))
        results: list = [None] * len(groups)
        pending = list(range(len(groups)))
        while pending:
            finished = self._pool_round(handle, groups, collect, pending, stats)
            for index, value in finished.items():
                results[index] = value
            pending = [index for index in pending if index not in finished]
            if not pending or stats.retries >= self.max_retries:
                break
            stats.retries += 1
        if pending:
            stats.degraded = True
            values = run_in_process(
                trace, [groups[index] for index in pending]
            )
            for index, value in zip(pending, values):
                results[index] = value
        return results, stats

    def _pool_round(
        self,
        handle: SharedTraceHandle,
        groups: "Sequence[tuple[SimulationJob, ...]]",
        collect: bool,
        pending: list,
        stats: DispatchStats,
    ) -> dict:
        """One recovery round over the process pool.

        Submits the pending groups in chunks and waits for each within
        its timeout budget (:func:`_job_budget`). A ``BrokenProcessPool``
        or a chunk timeout is a fault: the chunks that did finish are
        kept, and the pool is torn down so the next round builds a
        fresh one.
        """
        size = dispatch_chunksize(len(pending), self.workers)
        chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
        futures: list[tuple] = []
        fault = False
        try:
            pool = self._ensure_pool()
            for chunk in chunks:
                items = [(handle, groups[index]) for index in chunk]
                futures.append(
                    (pool.submit(_run_group_chunk, items, collect), chunk)
                )
        except BrokenProcessPool:
            fault = True
        finished: dict = {}
        for future, chunk in futures:
            if fault:
                # Keep every chunk that finished before the fault.
                if not future.done() or future.cancelled():
                    continue
                if future.exception() is not None:
                    continue
                payload = future.result()
            else:
                budget = _job_budget(
                    self.job_timeout, [groups[index] for index in chunk]
                )
                try:
                    payload = future.result(timeout=budget)
                except BrokenProcessPool:
                    fault = True
                    continue
                except FuturesTimeoutError:
                    stats.timeouts += 1
                    fault = True
                    continue
            # A chunk returns (values, obs delta); fold the worker-side
            # spans/counters into the parent registry.
            values, delta = payload
            obs.merge_snapshot(delta)
            finished.update(zip(chunk, values))
        if fault:
            self._discard_pool(kill=True)
            stats.pool_rebuilds += 1
        return finished

    def map_simulation_groups(
        self,
        trace: Trace,
        groups: "Sequence[Sequence[SimulationJob]]",
    ) -> "list[tuple[list[SimulationResult], int]]":
        """Run every same-signature candidate group over ``trace``.

        Each group is one :func:`repro.sim.batch.evaluate_group` unit of
        work — the granularity at which trace plans and module columns
        are shared — and is never split across workers. Returns one
        ``(results, delta_candidates)`` pair per group, ordered like
        ``groups``, inner result lists ordered like each group's jobs.
        With one worker, or at most one group, the groups run here
        (:func:`run_in_process`): no pool is built and no trace is
        exported.
        """
        self._ensure_open()
        if self.workers <= 1 or len(groups) <= 1:
            self.last_dispatch = DispatchStats(
                jobs=sum(len(group) for group in groups)
            )
            return run_in_process(trace, groups)
        items = [tuple(group) for group in groups]
        collect = obs.enabled()
        handle = self.share_trace(trace)
        with obs.span("exec.dispatch"):
            results, stats = self._dispatch_groups(
                trace, handle, items, collect
            )
        self.last_dispatch = stats
        self.stats.absorb(stats)
        if collect:
            # retries / pool_rebuilds / degraded travel on the engine
            # report and are counted there; only dispatch-local facts
            # the report does not carry are recorded here.
            obs.incr("runtime.dispatches")
            obs.incr("runtime.jobs", stats.jobs)
            obs.incr("runtime.timeouts", stats.timeouts)
        return results

    def close(self) -> None:
        """Shut the pool down and unlink the shared exports. Idempotent."""
        if self._closed:
            return
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=True)
            except Exception:  # pragma: no cover - broken-pool shutdown
                pass
        exports, self._exports = self._exports, {}
        for export in exports.values():
            export.close()

    def __enter__(self) -> "ExecutionRuntime":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "pooled" if self._pool is not None else "idle"
        )
        return f"<ExecutionRuntime workers={self.workers} ({state})>"


# -- the process-wide default ----------------------------------------------

_DEFAULT_RUNTIME: ExecutionRuntime | None = None


def default_runtime(workers: int | None = None) -> ExecutionRuntime:
    """The process-wide runtime, sized for at least ``workers``.

    Created on first use; reused by every subsequent call. Asking for
    more workers than the current default has closes it and builds a
    bigger one (a pool cannot grow in place); asking for fewer reuses
    the existing, larger pool. A default whose pool died outside the
    runtime's own (self-healing) dispatch — :attr:`ExecutionRuntime.healthy`
    ``False`` — is closed and replaced, so explorers, strategies,
    sweeps, and the CLI never receive a dead runtime.
    """
    global _DEFAULT_RUNTIME
    workers = resolve_workers(workers)
    runtime = _DEFAULT_RUNTIME
    if runtime is not None and runtime.healthy and runtime.workers >= workers:
        return runtime
    if runtime is not None and not runtime.closed:
        runtime.close()
    runtime = ExecutionRuntime(workers=workers)
    _DEFAULT_RUNTIME = runtime
    return runtime


def set_default_runtime(
    runtime: ExecutionRuntime | None,
) -> ExecutionRuntime | None:
    """Install ``runtime`` as the process-wide default.

    Returns the previous default (not closed — the caller decides its
    fate). Pass ``None`` to clear.
    """
    global _DEFAULT_RUNTIME
    previous, _DEFAULT_RUNTIME = _DEFAULT_RUNTIME, runtime
    return previous


def resolve_placement(
    backend: "ExecutionRuntime | str | None" = None,
    workers: int | None = None,
    runtime: ExecutionRuntime | None = None,
) -> "ExecutionRuntime | str":
    """Where a batch runs: ``"serial"`` (in process) or a runtime.

    The one place that turns a ``backend=`` argument into a placement.
    First match wins:

    * an :class:`ExecutionRuntime` is used as given;
    * ``"serial"`` runs in process;
    * ``None`` applies the default rule: one worker runs in process,
      and more run exactly as for ``"pool"``;
    * ``"pool"`` runs on ``runtime`` when one is passed. Otherwise it
      stays ``"pool"``: the process-wide default runtime sized for
      ``workers``, which the engine looks up only when a batch has
      misses to run, so a batch that dispatches nothing never builds
      or replaces the default.

    ``workers=None`` takes the size of a passed ``runtime``. The answer
    is a fixed point, so a caller may resolve once and pass the result
    down as ``backend=``.

    Raises:
        ExecutionError: an unknown name, or a runtime that is closed.
    """
    if isinstance(backend, ExecutionRuntime):
        backend, runtime = "pool", backend
    if backend is None:
        if workers is None and runtime is not None:
            workers = runtime.workers
        backend = "serial" if resolve_workers(workers) <= 1 else "pool"
    if backend not in ("serial", "pool"):
        raise ExecutionError(
            f"unknown backend {backend!r}: expected 'serial', 'pool', "
            f"or an ExecutionRuntime"
        )
    if backend == "serial" or runtime is None:
        return backend
    if runtime.closed:
        raise ExecutionError("cannot dispatch a batch through a closed runtime")
    return runtime


@atexit.register
def _close_default_runtime() -> None:  # pragma: no cover - exit hook
    if _DEFAULT_RUNTIME is not None:
        _DEFAULT_RUNTIME.close()
