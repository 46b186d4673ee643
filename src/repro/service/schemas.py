"""Wire schemas of the exploration service: job specs and payloads.

Everything the daemon accepts or returns is JSON built from these
helpers, so the HTTP layer (:mod:`repro.service.server`), the queue,
and the CLI client agree on one vocabulary:

* :class:`JobSpec` — a validated exploration request (what to run:
  workload, strategy knobs, backend choice; and how to schedule it:
  tenant, priority).
* :func:`parse_job_spec` — turn an untrusted JSON body into a
  :class:`JobSpec`, raising :class:`~repro.errors.ServiceError`
  (status 400) with a message naming the offending field.
* :func:`job_payload` / :func:`spec_payload` — the JSON form of a job
  and its spec (see :mod:`repro.service.jobs` for job state).

Tenants are both a fairness bucket and a cache namespace — the tenant
string becomes a directory component under the service cache dir — so
it is restricted to a filesystem-safe slug.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass

from repro import registry
from repro.config import positive_finite
from repro.errors import ServiceError
from repro.workloads import workload_names

__all__ = [
    "JOB_KINDS",
    "DEFAULT_TENANT",
    "JobSpec",
    "job_kind_names",
    "parse_job_spec",
    "spec_payload",
]

#: Exploration kinds the service runs. ``apex`` is Phase-0 memory
#: exploration only; ``explore`` is the full MemorEx pipeline whose
#: result matches ``repro explore --json``.
JOB_KINDS = ("apex", "explore")

DEFAULT_TENANT = "default"

#: Tenant slugs become cache-directory components; keep them path-safe.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_BACKENDS = (None, "serial", "pool")


@dataclass(frozen=True)
class JobSpec:
    """One validated exploration request."""

    kind: str
    workload: str
    scale: float = 0.25
    seed: int = 0
    select: int = 5
    keep: int = 8
    backend: str | None = None
    workers: int | None = None
    priority: int = 0
    tenant: str = DEFAULT_TENANT
    #: Registered IP-library pair (repro.registry); None = default.
    library: str | None = None


def job_kind_names() -> tuple[str, ...]:
    return JOB_KINDS


def _field(payload: dict, name: str, kind, default):
    """Fetch and coerce one spec field, 400ing with the field name."""
    value = payload.get(name, default)
    if value is None and default is None:
        return None
    try:
        if isinstance(value, bool):
            raise TypeError  # True/False are not job numbers
        return kind(value)
    except (TypeError, ValueError):
        raise ServiceError(
            f"job field {name!r} must be {kind.__name__}, got {value!r}"
        ) from None


def parse_job_spec(payload: object, tenant: str | None = None) -> JobSpec:
    """Validate an untrusted JSON body into a :class:`JobSpec`.

    ``tenant`` (from the ``X-Repro-Tenant`` header) wins over a
    ``tenant`` field in the body; both default to
    :data:`DEFAULT_TENANT`.
    """
    if not isinstance(payload, dict):
        raise ServiceError("job body must be a JSON object")
    kind = payload.get("kind", "explore")
    if kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r} (expected one of {JOB_KINDS})"
        )
    workload = payload.get("workload")
    if workload not in workload_names():
        raise ServiceError(
            f"unknown workload {workload!r} "
            f"(expected one of {workload_names()})"
        )
    backend = payload.get("backend")
    if backend not in _BACKENDS:
        raise ServiceError(
            f"unknown backend {backend!r} (expected serial or pool)"
        )
    library = payload.get("library")
    if library is not None and library not in registry.library_names():
        raise ServiceError(
            f"unknown library {library!r} "
            f"(expected one of {registry.library_names()})"
        )
    tenant = tenant if tenant is not None else payload.get("tenant")
    tenant = tenant if tenant not in (None, "") else DEFAULT_TENANT
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise ServiceError(
            f"tenant must be a 1-64 char [A-Za-z0-9._-] slug, got {tenant!r}"
        )
    spec = JobSpec(
        kind=kind,
        workload=workload,
        scale=_field(payload, "scale", float, 0.25),
        seed=_field(payload, "seed", int, 0),
        select=_field(payload, "select", int, 5),
        keep=_field(payload, "keep", int, 8),
        backend=backend,
        workers=_field(payload, "workers", int, None),
        priority=_field(payload, "priority", int, 0),
        tenant=tenant,
        library=library,
    )
    if not positive_finite(spec.scale):
        raise ServiceError(
            f"scale must be positive and finite, got {spec.scale}"
        )
    if spec.select < 1:
        raise ServiceError(f"select must be >= 1, got {spec.select}")
    if spec.keep < 1:
        raise ServiceError(f"keep must be >= 1, got {spec.keep}")
    if spec.workers is not None and spec.workers < 1:
        raise ServiceError(f"workers must be >= 1, got {spec.workers}")
    return spec


def spec_payload(spec: JobSpec) -> dict:
    """The JSON form of a spec (round-trips through parse_job_spec)."""
    return asdict(spec)
