"""Typed runtime configuration: one object for every ``REPRO_*`` knob.

Four PRs of engine work grew a dozen ``REPRO_*`` environment variables,
each parsed ad hoc at its point of use (``os.environ.get`` sprinkled
through :mod:`repro.exec`, :mod:`repro.sim`, :mod:`repro.conex`). This
module replaces the scatter with one documented, typed snapshot:

* :class:`Settings` — a frozen dataclass holding every knob, built
  from the environment with :meth:`Settings.from_env` (each field
  validated with the same error types the old per-site parsers
  raised) or constructed directly in tests.
* :func:`current_settings` — what the library consults. When no
  explicit settings are installed it re-reads the environment on every
  call, so ``monkeypatch.setenv`` and shell exports keep working
  exactly as before; environment variables remain the override layer
  for end users.
* :func:`set_settings` / :func:`use_settings` — install an explicit
  :class:`Settings` (tests, embedders). An installed object wins over
  the environment until removed.

The consumers (``repro.exec.runtime``, ``repro.exec.cache``,
``repro.sim.simulator``, ``repro.obs``) all route
through :func:`current_settings`; no library code reads a ``REPRO_*``
variable directly anymore.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

from repro.errors import ExecutionError, ExplorationError

#: Worker-process count for simulation batches.
WORKERS_ENV = "REPRO_WORKERS"

#: Per-job timeout in seconds for fault-tolerant dispatch.
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

#: Pool rebuilds allowed per batch before degrading to serial.
MAX_RETRIES_ENV = "REPRO_MAX_RETRIES"

#: Directory enabling the on-disk layer of the default simulation cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Size cap in megabytes for the on-disk cache layer (LRU by mtime).
CACHE_MAX_MB_ENV = "REPRO_CACHE_MAX_MB"

#: Base URL the service client commands talk to.
SERVICE_URL_ENV = "REPRO_SERVICE_URL"

#: Chaos hook for fault-injection tests (``once:<path>`` / ``hang:<path>``
#: / ``always``); consulted only by pool workers.
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: Truthy forces the scalar reference simulation loop everywhere.
REFERENCE_SIM_ENV = "REPRO_REFERENCE_SIM"

#: Truthy shrinks benchmark workloads to CI smoke size.
BENCH_SMOKE_ENV = "REPRO_BENCH_SMOKE"

#: Truthy enables the observability layer (:mod:`repro.obs`) at import.
OBS_ENV = "REPRO_OBS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def parse_bool(value: str | None) -> bool:
    """Shared truthy parse for boolean ``REPRO_*`` variables."""
    return (value or "").strip().lower() in _TRUTHY


def positive_finite(value: float) -> bool:
    """Is ``value`` a finite number above zero?

    The bound for timeouts and size caps: NaN passes every ``<= 0``
    test and infinity overflows ``future.result(timeout=...)``, so
    both are rejected alongside zero and negatives.
    """
    return math.isfinite(value) and value > 0


def _get(env: Mapping[str, str], name: str) -> str:
    return (env.get(name) or "").strip()


@dataclass(frozen=True)
class Settings:
    """One validated snapshot of every ``REPRO_*`` knob.

    Attributes mirror the environment variables one-to-one:

    ==========================  =============================  ==========
    attribute                   environment variable           default
    ==========================  =============================  ==========
    ``workers``                 ``REPRO_WORKERS``              ``1``
    ``job_timeout``             ``REPRO_JOB_TIMEOUT``          ``None``
    ``max_retries``             ``REPRO_MAX_RETRIES``          ``2``
    ``cache_dir``               ``REPRO_CACHE_DIR``            ``None``
    ``cache_max_mb``            ``REPRO_CACHE_MAX_MB``         ``None``
    ``service_url``             ``REPRO_SERVICE_URL``          ``None``
    ``fault_inject``            ``REPRO_FAULT_INJECT``         ``""``
    ``reference_sim``           ``REPRO_REFERENCE_SIM``        ``False``
    ``bench_smoke``             ``REPRO_BENCH_SMOKE``          ``False``
    ``obs``                     ``REPRO_OBS``                  ``False``
    ==========================  =============================  ==========

    Validation happens at construction with the same exception types
    the historical per-site parsers used (:class:`ExplorationError`
    for the worker count, :class:`ExecutionError` for the
    fault-tolerance knobs), so error-handling callers see no change.
    """

    workers: int = 1
    job_timeout: float | None = None
    max_retries: int = 2
    cache_dir: str | None = None
    cache_max_mb: float | None = None
    service_url: str | None = None
    fault_inject: str = ""
    reference_sim: bool = False
    bench_smoke: bool = False
    obs: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ExplorationError(f"workers must be >= 1, got {self.workers}")
        if self.job_timeout is not None and not positive_finite(
            self.job_timeout
        ):
            raise ExecutionError(
                f"job timeout must be positive and finite, "
                f"got {self.job_timeout}"
            )
        if self.max_retries < 0:
            raise ExecutionError(
                f"max retries must be >= 0, got {self.max_retries}"
            )
        if self.cache_max_mb is not None and not positive_finite(
            self.cache_max_mb
        ):
            raise ExecutionError(
                f"cache size cap must be positive and finite, "
                f"got {self.cache_max_mb}"
            )

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "Settings":
        """Snapshot ``env`` (default: ``os.environ``) into a Settings."""
        env = os.environ if env is None else env

        workers = 1
        raw = _get(env, WORKERS_ENV)
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ExplorationError(
                    f"{WORKERS_ENV} must be an integer, got {raw!r}"
                ) from None

        job_timeout: float | None = None
        raw = _get(env, JOB_TIMEOUT_ENV)
        if raw:
            try:
                job_timeout = float(raw)
            except ValueError:
                raise ExecutionError(
                    f"{JOB_TIMEOUT_ENV} must be a number of seconds, "
                    f"got {raw!r}"
                ) from None

        max_retries = 2
        raw = _get(env, MAX_RETRIES_ENV)
        if raw:
            try:
                max_retries = int(raw)
            except ValueError:
                raise ExecutionError(
                    f"{MAX_RETRIES_ENV} must be an integer, got {raw!r}"
                ) from None

        cache_max_mb: float | None = None
        raw = _get(env, CACHE_MAX_MB_ENV)
        if raw:
            try:
                cache_max_mb = float(raw)
            except ValueError:
                raise ExecutionError(
                    f"{CACHE_MAX_MB_ENV} must be a number of megabytes, "
                    f"got {raw!r}"
                ) from None

        return cls(
            workers=workers,
            job_timeout=job_timeout,
            max_retries=max_retries,
            cache_dir=_get(env, CACHE_DIR_ENV) or None,
            cache_max_mb=cache_max_mb,
            service_url=_get(env, SERVICE_URL_ENV) or None,
            fault_inject=_get(env, FAULT_INJECT_ENV),
            reference_sim=parse_bool(env.get(REFERENCE_SIM_ENV)),
            bench_smoke=parse_bool(env.get(BENCH_SMOKE_ENV)),
            obs=parse_bool(env.get(OBS_ENV)),
        )

    def as_dict(self) -> dict:
        """Plain-dict form (for the observability JSON export)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


_INSTALLED: Settings | None = None


def current_settings() -> Settings:
    """The settings the library consults.

    The installed override when :func:`set_settings` was called with a
    non-``None`` object; otherwise a fresh snapshot of the process
    environment (so env-var changes take effect immediately, as they
    did before :class:`Settings` existed).
    """
    if _INSTALLED is not None:
        return _INSTALLED
    return Settings.from_env()


def set_settings(settings: Settings | None) -> Settings | None:
    """Install ``settings`` as the process-wide override.

    Returns the previously installed override (``None`` when the
    environment layer was active). Pass ``None`` to go back to reading
    the environment.
    """
    global _INSTALLED
    previous, _INSTALLED = _INSTALLED, settings
    return previous


@contextlib.contextmanager
def use_settings(settings: Settings) -> Iterator[Settings]:
    """Context manager installing ``settings`` for the block (tests)."""
    previous = set_settings(settings)
    try:
        yield settings
    finally:
        set_settings(previous)
