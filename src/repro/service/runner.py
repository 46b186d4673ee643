"""Job execution: one exploration job against shared service state.

The runner replays the :func:`repro.core.memorex.run_memorex` pipeline
phase by phase instead of calling it whole, because the service needs
seams the one-shot call doesn't have:

* a **cancel checkpoint** between trace generation, APEX, and ConEx —
  a cooperative cancel (or a drain running out of patience) lands at
  the next seam instead of being ignored until the job ends;
* a **progress event** after every phase, carrying counts (accesses,
  evaluated/selected architectures, pareto size) plus the phase's
  :mod:`repro.obs` counter delta (simulations run, cache hits, ...),
  which is what the poll/long-poll endpoints stream to clients;
* **per-tenant caches** — each tenant's jobs run against that tenant's
  :class:`~repro.exec.cache.SimulationCache` namespace
  (:class:`TenantCaches`), so one tenant's workloads warm only their
  own cache while the runtime/backend (compute, not results) is shared.

Results are plain JSON: an ``explore`` job's ``design_points`` rows
are exactly what ``repro explore --json`` writes for the same spec,
so a service client and a CLI user can diff outputs byte for byte.
"""

from __future__ import annotations

import pathlib
import threading

from repro import obs, registry
from repro.apex.explorer import ApexConfig, explore_memory_architectures
from repro.conex.explorer import ConExConfig, explore_connectivity
from repro.core.design_point import summarize
from repro.errors import ReproError
from repro.exec.backend import ExecutionBackend, resolve_backend
from repro.exec.cache import SimulationCache
from repro.exec.runtime import ExecutionRuntime
from repro.service import jobs as jobstates
from repro.service.jobs import Job, JobStore
from repro.workloads import get_workload

__all__ = ["CancelledJob", "TenantCaches", "execute_job"]

#: Obs counters surfaced in per-phase progress events.
_PROGRESS_COUNTERS = {
    "exec.jobs": "simulations",
    "exec.cache_hits": "cache_hits",
    "exec.cache_misses": "cache_misses",
    "backend.bytes_sent": "bytes_sent",
    "backend.bytes_received": "bytes_received",
}


class CancelledJob(Exception):
    """Internal signal: the job's cancel flag was set at a checkpoint."""


class TenantCaches:
    """One :class:`SimulationCache` namespace per tenant.

    In memory, namespaces are simply distinct cache instances. When the
    service has a cache directory, each tenant's disk layer lives under
    ``<base>/<tenant>/`` — the tenant slug is validated path-safe at
    parse time — so namespaces persist across restarts and never share
    or evict each other's files. The per-layer size cap applies to each
    namespace individually (same semantics as ``REPRO_CACHE_MAX_MB``
    on a single cache).
    """

    def __init__(
        self,
        base_dir: str | pathlib.Path | None = None,
        max_mb: float | None = None,
    ) -> None:
        self.base_dir = (
            pathlib.Path(base_dir) if base_dir is not None else None
        )
        self.max_mb = max_mb
        self._caches: dict[str, SimulationCache] = {}
        self._lock = threading.Lock()

    def get(self, tenant: str) -> SimulationCache:
        with self._lock:
            cache = self._caches.get(tenant)
            if cache is None:
                directory = (
                    self.base_dir / tenant
                    if self.base_dir is not None
                    else None
                )
                cache = SimulationCache(
                    directory=directory, max_mb=self.max_mb
                )
                self._caches[tenant] = cache
        return cache

    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(self._caches)


def _checkpoint(job: Job) -> None:
    if job.cancel_event.is_set():
        raise CancelledJob


def _phase_delta(baseline: "obs.ObsSnapshot | None") -> dict:
    """Interesting obs-counter movement since ``baseline`` (may be {})."""
    if baseline is None:
        return {}
    delta = obs.snapshot().subtract(baseline)
    metrics = {}
    for counter, label in _PROGRESS_COUNTERS.items():
        value = delta.counters.get(counter)
        if value:
            metrics[label] = int(value)
    return metrics


def execute_job(
    job: Job,
    store: JobStore,
    caches: TenantCaches,
    runtime: ExecutionRuntime | None = None,
    default_backend: "ExecutionBackend | str | None" = None,
) -> None:
    """Run one job to a terminal state, recording progress events.

    Never raises: failures land in ``job.error`` / the ``failed``
    state, cancellation in ``cancelled`` — the runner thread must
    survive any job.
    """
    spec = job.spec
    try:
        store.transition(job, jobstates.RUNNING)
        cache = caches.get(spec.tenant)
        backend_spec = spec.backend or default_backend or None
        # The backend is resolved once per job, so a remote one keeps
        # its connections across the job's batches and the pool is the
        # runner thread's runtime.
        backend = resolve_backend(backend_spec, spec.workers, runtime)
        try:
            result = _run_spec(job, store, cache, backend)
        finally:
            # Close only a backend this job resolved; an injected
            # instance belongs to the caller.
            if backend is not backend_spec:
                backend.close()
        _checkpoint(job)
        job.result = result
        store.transition(job, jobstates.DONE)
    except CancelledJob:
        job.note = job.note or "cancelled by client"
        store.transition(job, jobstates.CANCELLED)
    except ReproError as error:
        job.error = str(error)
        store.transition(job, jobstates.FAILED)
    except Exception as error:  # pragma: no cover - defensive
        job.error = f"{type(error).__name__}: {error}"
        store.transition(job, jobstates.FAILED)


def _run_spec(
    job: Job,
    store: JobStore,
    cache: SimulationCache,
    backend: ExecutionBackend,
) -> dict:
    spec = job.spec
    collect = obs.enabled()
    workload = get_workload(spec.workload, scale=spec.scale, seed=spec.seed)

    _checkpoint(job)
    baseline = obs.snapshot() if collect else None
    trace = workload.trace()
    store.record_event(
        job,
        "trace",
        accesses=len(trace),
        cycles=int(trace.duration),
        **_phase_delta(baseline),
    )

    _checkpoint(job)
    baseline = obs.snapshot() if collect else None
    apex = explore_memory_architectures(
        trace,
        registry.memory_library(spec.library),
        ApexConfig(select_count=spec.select),
        hints=workload.pattern_hints,
        workers=spec.workers,
        cache=cache,
        backend=backend,
    )
    store.record_event(
        job,
        "apex",
        evaluated=len(apex.evaluated),
        selected=len(apex.selected),
        **_phase_delta(baseline),
    )
    if spec.kind == "apex":
        return {
            "kind": "apex",
            "workload": spec.workload,
            "architectures": [
                {
                    "name": e.architecture.name,
                    "cost_gates": e.cost_gates,
                    "miss_ratio": e.miss_ratio,
                    "avg_latency": e.avg_latency,
                    "modules": list(e.architecture.modules),
                }
                for e in apex.selected
            ],
        }

    _checkpoint(job)
    baseline = obs.snapshot() if collect else None
    conex = explore_connectivity(
        trace,
        apex.selected,
        registry.connectivity_library(spec.library),
        ConExConfig(phase1_keep=spec.keep),
        workers=spec.workers,
        cache=cache,
        backend=backend,
    )
    store.record_event(
        job,
        "conex",
        estimated=len(conex.estimated),
        simulated=len(conex.simulated),
        selected=len(conex.selected),
        **_phase_delta(baseline),
    )
    summaries = [summarize(point) for point in conex.selected]
    return {
        "kind": "explore",
        "workload": spec.workload,
        "design_points": [
            {
                "label": s.label,
                "cost_gates": s.cost_gates,
                "avg_latency_cycles": s.avg_latency,
                "avg_energy_nj": s.avg_energy_nj,
                "miss_ratio": s.miss_ratio,
                "memory_modules": list(s.memory_modules),
                "connections": list(s.connections),
            }
            for s in summaries
        ],
    }
