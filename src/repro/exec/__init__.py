"""Execution engine: parallel evaluation + content-addressed caching.

The exploration layers (:mod:`repro.apex`, :mod:`repro.conex`,
:mod:`repro.core`) evaluate thousands of independent (trace, memory,
connectivity) design points. This package makes that the fast path:

* :mod:`repro.exec.engine` — :func:`simulate_batch`: cache lookups,
  in-batch dedup, the partition into dispatch units (ideal-connectivity
  misses in contiguous chunks, priced misses in memory-signature
  groups), and deterministic
  job-index result ordering, with exactly one dispatch per batch for
  the misses. Phase-I estimates are not dispatched here; they run
  in-process through :func:`repro.conex.estimator.estimate_plan`.
* :mod:`repro.exec.runtime` — the persistent
  :class:`ExecutionRuntime`, the one thing a batch runs on besides the
  in-process path: a long-lived worker pool reused across batches,
  with traces exported once per fingerprint to shared memory so
  workers attach zero-copy instead of unpickling them. ``backend=`` is
  the one execution handle the drivers take: ``"serial"`` runs in
  process, ``"pool"`` on the process-wide default runtime, and a
  caller that owns a runtime passes the runtime itself; unnamed, a
  batch runs in process for one worker (``REPRO_WORKERS`` unset) and
  on the default runtime otherwise (:func:`resolve_placement`). Its
  recovery loop survives worker deaths and chunks past their timeout
  budget (``REPRO_JOB_TIMEOUT`` × the jobs a chunk carries): it
  re-dispatches only the unfinished work, and after
  ``REPRO_MAX_RETRIES`` retries the batch degrades to the in-process
  path instead of failing. A batch of at most one unit runs in
  process on the runtime, with no pool. Pools are capped at the
  machine's CPU count.
* :mod:`repro.exec.cache` — a content-addressed
  :class:`SimulationCache` keyed by trace fingerprint, architecture
  signatures, sampling config, and write model, layered as memory →
  optional size-capped disk (``REPRO_CACHE_DIR`` /
  ``REPRO_CACHE_MAX_MB``).

See ``docs/performance.md`` for the knobs and invalidation rules.
"""

from repro.exec.cache import (
    CACHE_DIR_ENV,
    KERNEL_PLAN_VERSION,
    NULL_CACHE,
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
    resolve_placement,
    resolve_workers,
    set_default_runtime,
)

__all__ = [
    "CACHE_DIR_ENV",
    "DispatchStats",
    "EngineReport",
    "ExecutionRuntime",
    "JOB_TIMEOUT_ENV",
    "KERNEL_PLAN_VERSION",
    "MAX_RETRIES_ENV",
    "NULL_CACHE",
    "NullCache",
    "RuntimeStats",
    "SimulationCache",
    "SimulationJob",
    "WORKERS_ENV",
    "default_cache",
    "default_runtime",
    "effective_pool_workers",
    "key_digest",
    "resolve_job_timeout",
    "resolve_max_retries",
    "resolve_placement",
    "resolve_workers",
    "sampling_signature",
    "set_default_cache",
    "set_default_runtime",
    "simulate_batch",
    "simulation_key",
]
