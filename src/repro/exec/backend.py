"""Pluggable execution backends: where a batch's misses actually run.

The engine (:mod:`repro.exec.engine`) owns *what* to run — cache
lookups, dedup, memory-signature grouping, job-index-keyed merge. A
backend owns *where*: :meth:`ExecutionBackend.run_groups` takes an
ordered list of same-signature simulation groups and returns their
outcomes in the same order, so the backends are interchangeable and a
run is bit-identical whichever one dispatches it (the simulator is
deterministic and results are keyed by index, never by completion
order).

Implementations:

* :class:`SerialBackend` — in-process loops; the reference semantics
  and the one in-process path (the runtime's one-worker branch and
  every degraded remainder run through it).
* :class:`PoolBackend` — wraps the persistent
  :class:`~repro.exec.runtime.ExecutionRuntime` (one process pool,
  shared-memory trace exports, fault-tolerant chunk dispatch).

Every engine batch runs through exactly one backend: the instance
passed as ``backend=`` to an engine entry point or a driver, or the one
:func:`resolve_backend` builds from a name (``"serial"``/``"pool"``).
Unnamed, a batch runs on :class:`SerialBackend` when it has one worker,
and on :class:`PoolBackend` otherwise. A caller that owns an
:class:`~repro.exec.runtime.ExecutionRuntime` hands it down as
``PoolBackend(runtime)``; drivers take no runtime of their own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import ExecutionError
from repro.exec.runtime import (
    DispatchStats,
    ExecutionRuntime,
    default_runtime,
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
    "SerialBackend",
    "resolve_backend",
]

class ExecutionBackend:
    """Interface: run ordered group lists, return outcomes in order.

    Subclasses implement :meth:`run_groups` and keep
    :attr:`last_dispatch` current.
    """

    #: Short name surfaced as ``EngineReport.backend``.
    name = "base"

    #: Fault accounting for the most recent ``run_groups`` call.
    last_dispatch: DispatchStats | None = None

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
        """Release held resources. Idempotent; safe on unused backends."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class SerialBackend(ExecutionBackend):
    """In-process loops — the reference every other backend must match.

    This is the one in-process path: the runtime runs a one-worker or
    one-group batch here, and the recovery loop degrades here.
    """

    name = "serial"

    def run_groups(self, trace, groups):
        self.last_dispatch = DispatchStats(
            jobs=sum(len(group) for group in groups)
        )
        if not groups:
            return []
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
    raise ExecutionError(
        f"unknown backend {backend!r}: expected 'serial', 'pool', "
        f"or an ExecutionBackend instance"
    )
