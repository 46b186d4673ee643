"""Pluggable execution backends: where a batch's misses actually run.

The engine (:mod:`repro.exec.engine`) owns *what* to run — cache
lookups, dedup, memory-signature grouping, job-index-keyed merge. A
backend owns *where*: :meth:`ExecutionBackend.run_groups` takes an
ordered list of same-signature simulation groups and returns their
outcomes in the same order, so every backend is interchangeable and a
run is bit-identical whichever one dispatches it (the simulator is
deterministic and results are keyed by index, never by completion
order).

Implementations:

* :class:`SerialBackend` — in-process loops; the reference semantics.
* :class:`PoolBackend` — wraps the persistent
  :class:`~repro.exec.runtime.ExecutionRuntime` (one process pool,
  shared-memory trace exports, fault-tolerant chunk dispatch).
* :class:`RemoteBackend` — one socket worker
  (:mod:`repro.exec.worker`) over the :mod:`repro.exec.net` frame
  protocol. The trace ships at most once per (worker, fingerprint);
  job batches then reference the fingerprint alone.
* :class:`ShardedBackend` — composes N backends, sharding the group
  list round-robin by index. Fault tolerance mirrors the runtime's
  (PR 4) semantics: a :class:`~repro.exec.net.BackendUnavailable`
  marks the shard dead and re-dispatches only its unfinished groups to
  the survivors; after ``max_retries`` recovery rounds (or when no
  shard survives) the remainder degrades to a local
  :class:`SerialBackend`. Job-raised errors are *not* faults and
  propagate unchanged.

Every engine batch runs through exactly one backend: the instance
passed as ``backend=`` to an engine entry point or a driver, or the one
:func:`resolve_backend` builds from a name (``"serial"``/``"pool"``/
``"remote"``) — ``"remote"`` builds a :class:`ShardedBackend` of one
:class:`RemoteBackend` per ``REPRO_WORKER_ADDRS`` address. Unnamed, a
batch runs on :class:`SerialBackend` when it has one worker, and on
:class:`PoolBackend` otherwise. A caller that owns an
:class:`~repro.exec.runtime.ExecutionRuntime` hands it down as
``PoolBackend(runtime)``; drivers take no runtime of their own.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.config import WORKER_ADDRS_ENV, current_settings
from repro.errors import ExecutionError
from repro.exec import net
from repro.exec.runtime import (
    DispatchStats,
    ExecutionRuntime,
    default_runtime,
    resolve_max_retries,
    resolve_workers,
)
from repro.sim import batch as sim_batch
from repro.sim.metrics import SimulationResult
from repro.trace.events import Trace

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.exec.engine import SimulationJob

__all__ = [
    "ExecutionBackend",
    "PoolBackend",
    "RemoteBackend",
    "SerialBackend",
    "ShardedBackend",
    "resolve_backend",
]

GroupOutcome = "tuple[list[SimulationResult], int]"


class ExecutionBackend:
    """Interface: run ordered group lists, return outcomes in order.

    Subclasses implement :meth:`run_groups` and keep
    :attr:`last_dispatch` current; :attr:`bytes_sent` /
    :attr:`bytes_received` stay zero for local backends.
    """

    #: Short name surfaced as ``EngineReport.backend``.
    name = "base"

    #: Fault accounting for the most recent ``run_groups`` call.
    last_dispatch: DispatchStats | None = None

    @property
    def bytes_sent(self) -> int:
        return 0

    @property
    def bytes_received(self) -> int:
        return 0

    def run_simulations(
        self, trace: Trace, jobs: "Sequence[SimulationJob]"
    ) -> list[SimulationResult]:
        """Simulate every job over ``trace``, ordered like ``jobs``.

        Each job runs as a group of one through :meth:`run_groups`,
        which is bit-identical to :func:`repro.sim.simulator.simulate`
        (a simulation evaluates itself as a group of one as well).
        """
        outcomes = self.run_groups(trace, [(job,) for job in jobs])
        return [results[0] for results, _ in outcomes]

    def run_groups(
        self, trace: Trace, groups: "Sequence[Sequence[SimulationJob]]"
    ) -> list:
        """Evaluate whole same-signature groups, ordered like ``groups``.

        Returns one ``(results, delta_candidates)`` pair per group —
        the :func:`repro.sim.batch.evaluate_group` contract. Groups
        are never split: splitting would forfeit the shared trace
        plan and module columns.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pools/sockets. Idempotent; safe on unused backends."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class SerialBackend(ExecutionBackend):
    """In-process loops — the reference every other backend must match."""

    name = "serial"

    def run_groups(self, trace, groups):
        self.last_dispatch = DispatchStats(
            jobs=sum(len(group) for group in groups)
        )
        plan = sim_batch.trace_plan(trace)
        return [
            sim_batch.evaluate_group(trace, group, plan) for group in groups
        ]


class PoolBackend(ExecutionBackend):
    """The persistent process-pool runtime behind the backend interface.

    Args:
        runtime: an :class:`~repro.exec.runtime.ExecutionRuntime` to
            dispatch through (not closed by this backend — ownership
            stays with whoever built it); ``None`` takes the
            process-wide default sized for ``workers``, looked up when
            the backend first needs it, so a batch that dispatches
            nothing never builds or replaces the default.
        workers: pool size when no runtime is given.

    Raises:
        ExecutionError: ``runtime`` is already closed.
            :func:`~repro.exec.engine.simulate_batch` repeats the check
            before each batch looks up its cache, so a batch is never
            half-served by a runtime closed after this backend was built.
    """

    name = "pool"

    def __init__(
        self,
        runtime: ExecutionRuntime | None = None,
        workers: int | None = None,
    ) -> None:
        if runtime is not None and runtime.closed:
            raise ExecutionError(
                "cannot build a PoolBackend over a closed runtime"
            )
        self._runtime = runtime
        self._workers = workers

    @property
    def runtime(self) -> ExecutionRuntime:
        if self._runtime is None:
            self._runtime = default_runtime(self._workers)
        return self._runtime

    def run_groups(self, trace, groups):
        runtime = self.runtime
        results = runtime.map_simulation_groups(trace, groups)
        self.last_dispatch = runtime.last_dispatch
        return results

    def __repr__(self) -> str:
        return f"<PoolBackend runtime={self._runtime!r}>"


class RemoteBackend(ExecutionBackend):
    """One socket worker, addressed as ``host:port``.

    The connection is opened lazily (handshake checks protocol and
    :data:`~repro.exec.cache.KERNEL_PLAN_VERSION`) and re-opened after
    a fault; the per-connection pushed-trace set is dropped with the
    connection, since a replacement worker process starts blank. All
    connection-level failures surface as
    :class:`~repro.exec.net.BackendUnavailable` for the sharding layer
    to recover from.
    """

    name = "remote"

    def __init__(self, address: str, timeout: float | None = None) -> None:
        self.address = address
        self.timeout = (
            timeout
            if timeout is not None
            else current_settings().job_timeout
        )
        self._conn: net.Connection | None = None
        self._pushed: set[str] = set()
        self._closed_sent = 0
        self._closed_received = 0

    @property
    def bytes_sent(self) -> int:
        conn = self._conn
        return self._closed_sent + (conn.bytes_sent if conn else 0)

    @property
    def bytes_received(self) -> int:
        conn = self._conn
        return self._closed_received + (conn.bytes_received if conn else 0)

    def _connection(self) -> net.Connection:
        if self._conn is None:
            self._conn = net.handshake(self.address, timeout=self.timeout)
            self._pushed = set()
        return self._conn

    def _drop_connection(self) -> None:
        conn, self._conn = self._conn, None
        self._pushed = set()
        if conn is not None:
            self._closed_sent += conn.bytes_sent
            self._closed_received += conn.bytes_received
            conn.close()

    def _request(self, kind: int, value) -> net.Frame:
        try:
            return self._connection().request_pickled(kind, value)
        except net.BackendUnavailable:
            self._drop_connection()
            raise

    def ping(self) -> bool:
        """Is the worker reachable right now?"""
        try:
            return self._request(net.MSG_PING, None).kind == net.MSG_PONG
        except net.BackendUnavailable:
            return False

    def ensure_trace(self, trace: Trace) -> None:
        """Ship the trace unless this worker already holds it."""
        fingerprint = trace.fingerprint()
        if fingerprint in self._pushed:
            return
        reply = self._request(net.MSG_TRACE_QUERY, fingerprint)
        if not reply.unpickle().get("have"):
            with obs.span("backend.trace_push"):
                connection = self._connection()
                try:
                    connection.request(
                        net.MSG_TRACE_PUSH, net.encode_trace(trace)
                    )
                except net.BackendUnavailable:
                    self._drop_connection()
                    raise
            obs.incr("backend.trace_pushes")
        self._pushed.add(fingerprint)

    def _run_remote(self, request: dict) -> list:
        request["collect"] = obs.enabled()
        with obs.span("backend.remote_dispatch"):
            reply = self._request(net.MSG_SIM_GROUPS, request)
        data = reply.unpickle()
        obs.merge_snapshot(data.get("obs"))
        return data["values"]

    def run_groups(self, trace, groups):
        """Dispatch the groups by trace fingerprint, re-pushing on eviction.

        A long-lived worker's trace store is a byte-capped LRU, so the
        trace this connection pushed earlier may have been evicted by
        other tenants' traffic. The worker reports that as a job error
        carrying a recognizable marker; one re-push plus retry makes
        eviction invisible to callers instead of failing the batch.
        """
        request = {
            "fingerprint": trace.fingerprint(),
            "groups": [tuple(group) for group in groups],
        }
        self.ensure_trace(trace)
        try:
            values = self._run_remote(request)
        except ExecutionError as error:
            if "was never pushed" not in str(error):
                raise
            self._pushed.discard(trace.fingerprint())
            obs.incr("backend.trace_repushes")
            self.ensure_trace(trace)
            values = self._run_remote(request)
        self.last_dispatch = DispatchStats(
            jobs=sum(len(group) for group in groups)
        )
        return values

    def close(self) -> None:
        self._drop_connection()

    def __repr__(self) -> str:
        state = "connected" if self._conn is not None else "idle"
        return f"<RemoteBackend {self.address} ({state})>"


class ShardedBackend(ExecutionBackend):
    """Shard ordered work across N backends; merge by original index.

    Sharding is deterministic — item ``i`` of a round goes to healthy
    shard ``i % len(healthy)`` — but determinism of *results* never
    depends on placement: every backend returns results keyed to the
    indices it was handed, so the merged list is bit-identical to a
    serial run regardless of which shard (or which recovery round)
    produced each entry.
    """

    name = "sharded"

    def __init__(
        self,
        backends: Sequence[ExecutionBackend],
        fallback: ExecutionBackend | None = None,
        max_retries: int | None = None,
    ) -> None:
        if not backends:
            raise ExecutionError("ShardedBackend needs at least one backend")
        self.backends = list(backends)
        self.fallback = fallback if fallback is not None else SerialBackend()
        self.max_retries = resolve_max_retries(max_retries)
        self._alive = [True] * len(self.backends)

    @property
    def healthy_backends(self) -> list[ExecutionBackend]:
        return [
            backend
            for backend, alive in zip(self.backends, self._alive)
            if alive
        ]

    @property
    def bytes_sent(self) -> int:
        return sum(backend.bytes_sent for backend in self.backends)

    @property
    def bytes_received(self) -> int:
        return sum(backend.bytes_received for backend in self.backends)

    # -- fault-tolerant sharded dispatch -------------------------------

    def run_groups(self, trace, groups):
        """Shard the groups round-robin; recover from dead shards.

        Mirrors :meth:`repro.exec.runtime.ExecutionRuntime._dispatch_chunks`:
        per-round bookkeeping keyed by group index, dead shards
        detected via :class:`~repro.exec.net.BackendUnavailable`,
        unfinished groups re-dispatched to survivors, and the
        :attr:`fallback` backend after the retry budget. Job-raised
        errors propagate unchanged.
        """
        items = [tuple(group) for group in groups]
        stats = DispatchStats(jobs=sum(len(group) for group in items))
        results: list = [None] * len(items)
        finished = [False] * len(items)
        pending = list(range(len(items)))
        while pending:
            shards = [
                index
                for index, alive in enumerate(self._alive)
                if alive
            ]
            if not shards or stats.degraded:
                stats.degraded = True
                values = self.fallback.run_groups(
                    trace, [items[i] for i in pending]
                )
                for index, value in zip(pending, values):
                    results[index] = value
                break
            # Deterministic round-robin by position in the pending list.
            assignments: dict[int, list[int]] = {s: [] for s in shards}
            for position, index in enumerate(pending):
                assignments[shards[position % len(shards)]].append(index)
            errors: list[BaseException] = []

            def dispatch(shard: int, indices: list[int]) -> None:
                try:
                    values = self.backends[shard].run_groups(
                        trace, [items[i] for i in indices]
                    )
                except net.BackendUnavailable:
                    # Dead socket: mark the shard down; its indices
                    # stay pending for the next recovery round.
                    self._alive[shard] = False
                    obs.incr("backend.shard_deaths")
                except BaseException as error:  # job error: propagate
                    errors.append(error)
                else:
                    for index, value in zip(indices, values):
                        results[index] = value
                        finished[index] = True

            threads = [
                threading.Thread(target=dispatch, args=(shard, indices))
                for shard, indices in assignments.items()
                if indices
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
            pending = [i for i in pending if not finished[i]]
            if pending:
                if stats.retries >= self.max_retries:
                    stats.degraded = True
                else:
                    stats.retries += 1
                obs.incr("backend.redispatches")
        self.last_dispatch = stats
        return results


    def close(self) -> None:
        for backend in self.backends:
            backend.close()
        self.fallback.close()

    def __repr__(self) -> str:
        alive = sum(self._alive)
        return (
            f"<ShardedBackend {alive}/{len(self.backends)} shards alive>"
        )


def resolve_backend(
    backend: "ExecutionBackend | str | None" = None,
    workers: int | None = None,
    runtime: ExecutionRuntime | None = None,
) -> ExecutionBackend:
    """The backend that runs a batch; always an instance.

    First match wins:

    * an :class:`ExecutionBackend` instance is used as given;
    * ``"serial"`` gives a :class:`SerialBackend`;
    * ``"pool"`` gives a :class:`PoolBackend` over ``runtime`` when one
      is passed, else over the process-wide default runtime sized for
      ``workers``;
    * ``"remote"`` shards across one :class:`RemoteBackend` per
      ``REPRO_WORKER_ADDRS`` address, with the runtime's retry budget
      and a serial local fallback;
    * ``None`` applies the default rule: one worker gives a
      :class:`SerialBackend`, and more give the pool exactly as for
      ``"pool"`` (whose runtime runs a batch of at most one group in
      process).

    ``workers=None`` takes the size of a passed ``runtime``. A backend
    built here from a name belongs to the caller, who closes it; an
    instance passed in stays its owner's.
    """
    if workers is None and runtime is not None:
        workers = runtime.workers
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend is None:
        if resolve_workers(workers) <= 1:
            return SerialBackend()
        backend = "pool"
    if backend == "pool":
        return PoolBackend(runtime, workers)
    if backend == "remote":
        addresses = current_settings().worker_addrs
        if not addresses:
            raise ExecutionError(
                f"backend 'remote' needs worker addresses: set "
                f"{WORKER_ADDRS_ENV} to a comma-separated host:port list"
            )
        return ShardedBackend(
            [RemoteBackend(address) for address in addresses]
        )
    raise ExecutionError(
        f"unknown backend {backend!r}: expected 'serial', 'pool', 'remote', "
        f"or an ExecutionBackend instance"
    )
