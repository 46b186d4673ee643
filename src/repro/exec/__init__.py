"""Execution engine: parallel evaluation + content-addressed caching.

The exploration layers (:mod:`repro.apex`, :mod:`repro.conex`,
:mod:`repro.core`) evaluate thousands of independent (trace, memory,
connectivity) design points. This package makes that the fast path:

* :mod:`repro.exec.engine` — :func:`simulate_batch`: cache lookups,
  in-batch dedup, memory-signature grouping, and deterministic
  job-index result ordering, with exactly one backend call per batch
  for the misses. Phase-I estimates are not dispatched here; they run
  in-process through :func:`repro.conex.estimator.estimate_plan`.
* :mod:`repro.exec.backend` — the :class:`ExecutionBackend` interface
  every batch dispatches through: :class:`SerialBackend` (in-process,
  the reference), :class:`PoolBackend` (the runtime below),
  :class:`RemoteBackend` (one socket worker), and
  :class:`ShardedBackend` (N backends with fault-tolerant re-dispatch
  of memory-signature groups). Select with ``backend=`` (``"remote"``
  shards over ``REPRO_WORKER_ADDRS``); unnamed, a batch runs serially
  for one worker (``REPRO_WORKERS`` unset) and on the pool otherwise.
  ``backend=`` is the one execution handle the drivers take: a caller
  that owns a runtime passes ``PoolBackend(runtime)``.
* :mod:`repro.exec.runtime` — the persistent
  :class:`ExecutionRuntime`: a long-lived worker pool reused across
  batches, with traces exported once per fingerprint to shared memory
  so workers attach zero-copy instead of unpickling them. Dispatch is
  fault tolerant: worker deaths and job timeouts
  (``REPRO_JOB_TIMEOUT``) rebuild the pool and re-dispatch only the
  unfinished work, and after ``REPRO_MAX_RETRIES`` rebuilds the batch
  degrades to the serial in-process path instead of failing. A batch
  of at most one group runs in process on the runtime, with no pool.
  Pools are capped at the machine's CPU count.
* :mod:`repro.exec.net` / :mod:`repro.exec.worker` — the
  dependency-free length-prefixed socket protocol and the ``repro
  worker`` server that serves simulation groups and networked cache
  traffic over it.
* :mod:`repro.exec.cache` — a content-addressed
  :class:`SimulationCache` keyed by trace fingerprint, architecture
  signatures, sampling config, and write model, layered as memory →
  optional size-capped disk (``REPRO_CACHE_DIR`` /
  ``REPRO_CACHE_MAX_MB``) → optional networked peer
  (``REPRO_CACHE_URL``).

See ``docs/performance.md`` for the knobs and invalidation rules.
"""

from repro.exec.backend import (
    ExecutionBackend,
    PoolBackend,
    RemoteBackend,
    SerialBackend,
    ShardedBackend,
    resolve_backend,
)
from repro.exec.cache import (
    CACHE_DIR_ENV,
    CACHE_URL_ENV,
    KERNEL_PLAN_VERSION,
    NULL_CACHE,
    CacheClient,
    NullCache,
    SimulationCache,
    default_cache,
    key_digest,
    sampling_signature,
    set_default_cache,
    simulation_key,
)
from repro.exec.engine import (
    EngineReport,
    SimulationJob,
    simulate_batch,
)
from repro.exec.net import BackendUnavailable, Connection
from repro.exec.runtime import (
    JOB_TIMEOUT_ENV,
    MAX_RETRIES_ENV,
    WORKERS_ENV,
    DispatchStats,
    ExecutionRuntime,
    RuntimeStats,
    default_runtime,
    effective_pool_workers,
    resolve_job_timeout,
    resolve_max_retries,
    resolve_workers,
    set_default_runtime,
)
from repro.exec.worker import WorkerServer

__all__ = [
    "BackendUnavailable",
    "CACHE_DIR_ENV",
    "CACHE_URL_ENV",
    "CacheClient",
    "Connection",
    "DispatchStats",
    "EngineReport",
    "ExecutionBackend",
    "ExecutionRuntime",
    "JOB_TIMEOUT_ENV",
    "KERNEL_PLAN_VERSION",
    "MAX_RETRIES_ENV",
    "NULL_CACHE",
    "NullCache",
    "PoolBackend",
    "RemoteBackend",
    "RuntimeStats",
    "SerialBackend",
    "ShardedBackend",
    "SimulationCache",
    "SimulationJob",
    "WORKERS_ENV",
    "WorkerServer",
    "default_cache",
    "default_runtime",
    "effective_pool_workers",
    "key_digest",
    "resolve_backend",
    "resolve_job_timeout",
    "resolve_max_retries",
    "resolve_workers",
    "sampling_signature",
    "set_default_cache",
    "set_default_runtime",
    "simulate_batch",
    "simulation_key",
]
