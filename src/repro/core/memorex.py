"""The MemorEx pipeline: APEX then ConEx (Figure 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs, registry
from repro.apex.explorer import ApexConfig, ApexResult, explore_memory_architectures
from repro.conex.explorer import ConExConfig, ConExResult, explore_connectivity
from repro.errors import ConfigurationError
from repro.exec.cache import SimulationCache
from repro.trace.events import Trace
from repro.workloads.base import Workload


@dataclass(frozen=True)
class MemorExConfig:
    """Configuration of the two exploration stages."""

    apex: ApexConfig = field(default_factory=ApexConfig)
    conex: ConExConfig = field(default_factory=ConExConfig)


@dataclass(frozen=True)
class MemorExResult:
    """Everything the pipeline produced for one workload."""

    workload_name: str
    trace: Trace = field(repr=False)
    apex: ApexResult
    conex: ConExResult

    @property
    def selected_points(self):
        """The final combined memory+connectivity pareto designs."""
        return self.conex.selected


def run_memorex(
    workload: Workload,
    memory_library: str | None = None,
    connectivity_library: str | None = None,
    config: MemorExConfig | None = None,
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionRuntime | str | None" = None,
    library: str | None = None,
) -> MemorExResult:
    """Run the full exploration on one workload.

    Generates the trace, runs APEX over the memory library, then ConEx
    over the connectivity library starting from APEX's selections, and
    returns all intermediate and final results. ``workers`` and
    ``cache`` feed the :mod:`repro.exec` engine in both stages (serial
    and uncached-by-request are the ``1`` / ``NULL_CACHE`` values).

    Libraries resolve through :mod:`repro.registry`: ``library`` names
    a registered pair, or ``memory_library`` / ``connectivity_library``
    name each side individually. Library *objects* are rejected with a
    :class:`ConfigurationError`: register them under a name first (see
    ``docs/api.md``).
    """
    config = config or MemorExConfig()
    if library is not None and (
        memory_library is not None or connectivity_library is not None
    ):
        raise ConfigurationError(
            "pass either a registered library name or per-side "
            "libraries, not both"
        )
    for side, name in (
        ("memory", memory_library),
        ("connectivity", connectivity_library),
    ):
        if name is not None and not isinstance(name, str):
            raise ConfigurationError(
                f"run_memorex takes a registered {side} library name, not a "
                f"{type(name).__name__} object; register it with "
                f"repro.registry.register_{side}_library() and pass its "
                f"name (see docs/api.md)"
            )
    memory_library = registry.memory_library(
        library if memory_library is None else memory_library
    )
    connectivity_library = registry.connectivity_library(
        library if connectivity_library is None else connectivity_library
    )

    with obs.span("memorex.run"):
        trace = workload.trace()
        apex = explore_memory_architectures(
            trace, memory_library, config.apex, hints=workload.pattern_hints,
            workers=workers, cache=cache, backend=backend,
        )
        conex = explore_connectivity(
            trace, apex.selected, connectivity_library, config.conex,
            workers=workers, cache=cache, backend=backend,
        )
    return MemorExResult(
        workload_name=workload.name,
        trace=trace,
        apex=apex,
        conex=conex,
    )
