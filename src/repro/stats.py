"""Unified stats reporting for engine, runtime, and explorer results.

Three PRs of engine work grew three divergent report shapes:
``EngineReport`` (per-batch cache/fault accounting), ``RuntimeStats``
(cumulative fault accounting), and ad-hoc stats fields flattened onto
``ApexResult`` / ``ConExResult``. This module is the common ground:

* :class:`StatsReport` — a mixin giving every dataclass report the
  same ``as_dict()`` export (nested reports recurse), which is what
  the observability exporters and the CLI consume.
* :class:`BatchStats` — the shared shape for "what one evaluation
  batch cost": cache hits/misses/dedup, wall seconds, and the fault
  accounting (retries, pool rebuilds, degraded). ``ApexResult.stats``
  and ``ConExResult.phase2`` carry one of these instead of loose
  fields (the old loose names are gone; see ``docs/api.md`` for the
  rename table).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any


class StatsReport:
    """Mixin for dataclass reports: a common ``as_dict()`` export.

    ``as_dict()`` walks the dataclass fields, recursing into nested
    :class:`StatsReport` values, and skips field names listed in the
    subclass's ``_STATS_EXCLUDE`` (bulky payloads like result tuples,
    which belong to the report but not to a metrics export).
    """

    _STATS_EXCLUDE: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for spec in fields(self):
            if spec.name in self._STATS_EXCLUDE:
                continue
            value = getattr(self, spec.name)
            if isinstance(value, StatsReport):
                value = value.as_dict()
            out[spec.name] = value
        return out


@dataclass(frozen=True)
class BatchStats(StatsReport):
    """What one evaluation batch (or batch sequence) cost.

    The cache accounting satisfies ``cache_hits + cache_misses +
    deduplicated == jobs``; the fault accounting mirrors
    :class:`repro.exec.DispatchStats` (all zero / ``False`` on an
    undisturbed batch).
    """

    workers: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    deduplicated: int = 0
    seconds: float = 0.0
    retries: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False

