"""APEX: memory-modules exploration (the paper's starting substrate).

Reimplements the flow of Grun/Dutt/Nicolau's APEX (ISSS 2001) at the
level this paper consumes it: classify the application's access
patterns, enumerate memory-module architectures matching those patterns
from the memory IP library, evaluate each candidate's cost and miss
ratio under an *ideal connectivity* (the "simple connectivity model"
the paper says APEX assumes), and select the most promising
configurations along the cost/miss-ratio pareto curve (Figure 3).

Candidate generation follows APEX's pattern→module matching:

* a cache choice serves the RANDOM / unmapped structures (or no cache —
  the uncached baseline that anchors the high-latency end of Table 1);
* STREAM structures optionally get stream buffers;
* SELF_INDIRECT structures optionally share a DMA-like module;
* INDEXED / SCALAR structures optionally move into the smallest SRAM
  that fits their combined footprint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from repro import obs
from repro.apex.architectures import DRAM, MemoryArchitecture
from repro.errors import ExplorationError
from repro.exec.cache import SimulationCache
from repro.exec.engine import SimulationJob, simulate_batch
from repro.memory.dram import Dram
from repro.memory.library import MemoryLibrary
from repro.memory.module import MemoryModule
from repro.sim.metrics import SimulationResult
from repro.sim.sampling import SamplingConfig
from repro.stats import BatchStats, StatsReport
from repro.trace.events import Trace
from repro.trace.patterns import AccessPattern, PatternProfile, profile_patterns
from repro.util.pareto import pareto_front
from repro.util.selection import spread_picks


@dataclass(frozen=True)
class ApexConfig:
    """Knobs of the APEX candidate enumeration.

    Empty option lists mean "only the None option" for that feature.
    ``select_count`` bounds how many pareto designs continue to ConEx
    (the paper's Figure 3 carries five forward).
    """

    cache_options: tuple[str | None, ...] = (
        None,
        "cache_4k_16b_1w",
        "cache_8k_32b_1w",
        "cache_8k_32b_2w",
        "cache_16k_32b_2w",
        "cache_32k_32b_2w",
    )
    stream_buffer_options: tuple[str | None, ...] = (
        None,
        "stream_buffer_2",
        "stream_buffer_4",
        "stream_buffer_8",
    )
    dma_options: tuple[str | None, ...] = (
        None,
        "si_dma_16",
        "si_dma_32",
        "si_dma_64",
        "ll_dma_32",
    )
    map_indexed_to_sram: tuple[bool, ...] = (False, True)
    #: Off-chip DRAM presets, at least one. Each named preset (e.g.
    #: ``dram_4bank``, ``mcdram_2ch``) multiplies the product; the
    #: default single ``dram`` keeps the DRAM out of the exploration.
    dram_options: tuple[str, ...] = ("dram",)
    #: Module kinds eligible as the local-structure scratchpad. The
    #: smallest fitting preset of each kind becomes one enumeration
    #: option (``multiport_sram`` adds the arbitrated variants).
    sram_kinds: tuple[str, ...] = ("sram",)
    select_count: int = 5
    sampling: SamplingConfig | None = None


@dataclass(frozen=True)
class EvaluatedMemoryArchitecture:
    """One APEX candidate with its ideal-connectivity evaluation."""

    architecture: MemoryArchitecture
    cost_gates: float
    miss_ratio: float
    avg_latency: float
    result: SimulationResult = field(repr=False)

    @property
    def objectives(self) -> tuple[float, float]:
        """(cost, miss ratio) — the Figure 3 axes, both minimized."""
        return (self.cost_gates, self.miss_ratio)


@dataclass(frozen=True)
class ApexResult(StatsReport):
    """All evaluated candidates plus the pareto selection.

    ``stats`` bundles the evaluation batch's accounting (cache
    hits/misses, dedup, retries, pool rebuilds, degraded flag) as a
    :class:`repro.stats.BatchStats`.
    """

    trace_name: str
    evaluated: tuple[EvaluatedMemoryArchitecture, ...]
    selected: tuple[EvaluatedMemoryArchitecture, ...]
    #: Evaluation-batch accounting (see :class:`repro.stats.BatchStats`).
    stats: BatchStats = field(default_factory=BatchStats)

    _STATS_EXCLUDE = ("evaluated", "selected")

    def architecture_names(self) -> tuple[str, ...]:
        return tuple(e.architecture.name for e in self.selected)


def _sram_preset_for(
    library: MemoryLibrary, footprint: int, kind: str = "sram"
) -> str | None:
    """Smallest ``kind`` preset holding ``footprint`` bytes, if any."""
    best_name: str | None = None
    best_capacity: int | None = None
    for preset in library.of_kind(kind):
        sram = preset.build()
        capacity = getattr(sram, "capacity", 0)
        if capacity >= footprint and (
            best_capacity is None or capacity < best_capacity
        ):
            best_name = preset.name
            best_capacity = capacity
    return best_name


def enumerate_architectures(
    trace: Trace,
    library: MemoryLibrary,
    profiles: Mapping[str, PatternProfile],
    config: ApexConfig,
) -> list[MemoryArchitecture]:
    """Build the APEX candidate architectures for ``trace``."""
    stream_structs = [
        p.struct for p in profiles.values() if p.pattern is AccessPattern.STREAM
    ]
    si_structs = [
        p.struct
        for p in profiles.values()
        if p.pattern is AccessPattern.SELF_INDIRECT
    ]
    local_structs = [
        p.struct
        for p in profiles.values()
        if p.pattern in (AccessPattern.INDEXED, AccessPattern.SCALAR)
    ]
    local_footprint = sum(profiles[s].footprint for s in local_structs)
    sram_presets: tuple[str, ...] = ()
    if local_structs:
        sram_presets = tuple(
            name
            for kind in config.sram_kinds
            for name in (_sram_preset_for(library, local_footprint, kind),)
            if name is not None
        )

    stream_options = config.stream_buffer_options if stream_structs else (None,)
    dma_options = config.dma_options if si_structs else (None,)
    # The scratchpad axis enumerates concrete presets (one per eligible
    # kind); ``map_indexed_to_sram`` keeps its historical booleans, so
    # (False, True) with one kind is exactly the old (no-sram, sram)
    # pair in the old order.
    sram_options: tuple[str | None, ...] = (None,)
    if sram_presets:
        sram_options = tuple(
            name
            for flag in config.map_indexed_to_sram
            for name in ((sram_presets if flag else (None,)))
        )
    architectures: list[MemoryArchitecture] = []
    index = 0
    for cache_name, stream_name, dma_name, sram_name, dram_name in (
        itertools.product(
            config.cache_options,
            stream_options,
            dma_options,
            sram_options,
            config.dram_options,
        )
    ):
        modules: list[MemoryModule] = []
        mapping: dict[str, str] = {}
        if cache_name is not None:
            modules.append(library.get(cache_name).instantiate("cache"))
        if stream_name is not None:
            for position, struct in enumerate(stream_structs):
                buffer_name = f"sb{position}"
                modules.append(
                    library.get(stream_name).instantiate(buffer_name)
                )
                mapping[struct] = buffer_name
        if dma_name is not None:
            modules.append(library.get(dma_name).instantiate("si_dma"))
            for struct in si_structs:
                mapping[struct] = "si_dma"
        if sram_name is not None:
            modules.append(library.get(sram_name).instantiate("sram"))
            for struct in local_structs:
                mapping[struct] = "sram"
        dram = library.get(dram_name).instantiate()
        assert isinstance(dram, Dram)
        default = "cache" if cache_name is not None else DRAM
        architecture = MemoryArchitecture(
            name=f"mem{index}",
            modules=modules,
            dram=dram,
            mapping=mapping,
            default_module=default,
        )
        architectures.append(architecture)
        index += 1
    return architectures


def explore_memory_architectures(
    trace: Trace,
    library: MemoryLibrary,
    config: ApexConfig | None = None,
    hints: Mapping[str, AccessPattern] | None = None,
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionRuntime | str | None" = None,
) -> ApexResult:
    """Run the APEX exploration on ``trace``.

    Evaluates every candidate under ideal connectivity and selects the
    cost/miss-ratio pareto front, thinned to ``config.select_count``
    points spread along the cost axis. Candidate evaluations run
    through :func:`repro.exec.simulate_batch` — parallel when
    ``workers`` (or ``REPRO_WORKERS``) asks for it, cached so the
    strategy comparisons re-profile each architecture only once, and
    placed by ``backend`` when one is given — pass an
    :class:`~repro.exec.ExecutionRuntime` to reuse a persistent pool.
    """
    config = config or ApexConfig()
    if config.select_count < 1:
        raise ExplorationError(
            f"select_count must be >= 1: {config.select_count}"
        )
    if not config.dram_options:
        raise ExplorationError("dram_options needs at least one DRAM preset")
    profiles = profile_patterns(trace, hints)
    with obs.span("apex.evaluate"):
        candidates = enumerate_architectures(trace, library, profiles, config)
        report = simulate_batch(
            trace,
            [
                SimulationJob(
                    memory=architecture,
                    connectivity=None,
                    sampling=config.sampling,
                )
                for architecture in candidates
            ],
            workers=workers,
            cache=cache,
            backend=backend,
        )
        evaluated = [
            EvaluatedMemoryArchitecture(
                architecture=architecture,
                cost_gates=result.memory_cost_gates,
                miss_ratio=result.miss_ratio,
                avg_latency=result.avg_latency,
                result=result,
            )
            for architecture, result in zip(candidates, report.results)
        ]
        front = pareto_front(evaluated, key=lambda e: e.objectives)
        selected = spread_picks(
            front, config.select_count, key=lambda e: e.cost_gates
        )
    if obs.enabled():
        obs.incr("apex.candidates", len(candidates))
        obs.incr("apex.selected", len(selected))
    return ApexResult(
        trace_name=trace.name,
        evaluated=tuple(evaluated),
        selected=tuple(selected),
        stats=report.stats,
    )
