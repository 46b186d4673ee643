"""Exploration strategies compared in the paper's Table 2.

* **Pruned** — "during each Design Space Exploration phase we select
  for further exploration only the most promising architectures":
  APEX's pareto memory architectures, ConEx Phase-I estimation pruning,
  Phase-II simulation only of the carried designs.
* **Neighborhood** — "expands the design space explored, by including
  also the points in the neighborhood of the points selected by the
  Pruned approach": neighbouring memory architectures (in cost order)
  join the selection, more Phase-I candidates are carried, and each
  simulated design's one-component-swap connectivity neighbors are
  simulated as well.
* **Full** — "all the design points in the exploration space are fully
  simulated, and the pareto curve is fully determined": the reference.

All three walk the *same* enumerated space (identical clustering and
allocation parameters), so coverage can be measured by exact objective
match, as the paper does. :data:`TABLE2_APEX` / :data:`TABLE2_CONEX`
define the space of the reproduction's Table 2, which both ``repro
coverage`` and ``benchmarks/bench_table2_coverage.py`` run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

from repro import obs
from repro.apex.explorer import (
    ApexConfig,
    EvaluatedMemoryArchitecture,
    explore_memory_architectures,
)
from repro.conex.allocation import assignment_neighbors
from repro.conex.explorer import (
    ConExConfig,
    ConnectivityDesignPoint,
    connectivity_exploration,
    explore_connectivity,
)
from repro.conex.estimator import estimate_design
from repro.connectivity.library import ConnectivityLibrary
from repro.errors import ExplorationError
from repro.exec.cache import SimulationCache
from repro.exec.engine import SimulationJob, simulate_batch
from repro.memory.library import MemoryLibrary
from repro.trace.events import Trace
from repro.trace.patterns import AccessPattern
from repro.util.pareto import ParetoCoverage, pareto_coverage, pareto_front


#: The Table 2 memory space: fewer library options than the default so
#: the Full reference stays tractable (the paper's own Full run of
#: compress took a month), with the DRAM as a per-candidate axis
#: (single vs 2-channel) and the arbitrated multi-port scratchpad.
TABLE2_APEX = ApexConfig(
    cache_options=(None, "cache_4k_16b_1w", "cache_16k_32b_2w"),
    stream_buffer_options=(None, "stream_buffer_4"),
    dma_options=(None, "si_dma_32"),
    map_indexed_to_sram=(False, True),
    dram_options=("dram", "mcdram_2ch"),
    sram_kinds=("multiport_sram",),
    select_count=5,
)

#: The Table 2 connectivity space, shared by all three strategies.
TABLE2_CONEX = ConExConfig(
    max_logical_connections=3,
    max_assignments_per_level=48,
    phase1_keep=12,
)


@dataclass(frozen=True)
class StrategyOutcome:
    """What one strategy produced, and how long it took.

    ``cache_hits``/``cache_misses`` count full-simulation lookups in
    the :mod:`repro.exec` result cache over the whole run (APEX
    profiling plus every ConEx phase); they make the Table 2 timings
    honest — a strategy that rode an earlier strategy's simulations
    shows the reuse explicitly instead of reporting a misleadingly
    small wall time.
    """

    name: str
    seconds: float
    simulated: tuple[ConnectivityDesignPoint, ...]
    pareto: tuple[ConnectivityDesignPoint, ...]
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1

    def pareto_vectors(self) -> list[tuple[float, float, float]]:
        """(cost, latency, energy) of the strategy's pareto points."""
        return [p.simulated_objectives for p in self.pareto]


@dataclass(frozen=True)
class CoverageRow:
    """One benchmark's Table 2 entry for one strategy."""

    strategy: str
    seconds: float
    coverage: ParetoCoverage

    @property
    def coverage_percent(self) -> float:
        return self.coverage.coverage_percent

    @property
    def distances(self) -> tuple[float, ...]:
        """(cost, performance, energy) average percent distances."""
        if self.coverage.axis_distances:
            return self.coverage.axis_distances
        return (0.0, 0.0, 0.0)


def _pareto(points: Sequence[ConnectivityDesignPoint]):
    return tuple(pareto_front(points, key=lambda p: p.simulated_objectives))


def _resolve_cache(cache: SimulationCache | None) -> SimulationCache:
    from repro.exec.cache import default_cache

    return cache if cache is not None else default_cache()


def run_pruned(
    trace: Trace,
    memory_library: MemoryLibrary,
    connectivity_library: ConnectivityLibrary,
    apex_config: ApexConfig,
    conex_config: ConExConfig,
    hints: dict[str, AccessPattern] | None = None,
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionRuntime | str | None" = None,
) -> StrategyOutcome:
    """The paper's pruned exploration (the MemorEx default)."""
    cache = _resolve_cache(cache)
    hits0, misses0 = cache.hits, cache.misses
    start = time.perf_counter()
    with obs.span("strategy.pruned"):
        apex = explore_memory_architectures(
            trace, memory_library, apex_config, hints=hints,
            workers=workers, cache=cache, backend=backend,
        )
        conex = explore_connectivity(
            trace, apex.selected, connectivity_library, conex_config,
            workers=workers, cache=cache, backend=backend,
        )
    seconds = time.perf_counter() - start
    return StrategyOutcome(
        name="Pruned",
        seconds=seconds,
        simulated=conex.simulated,
        pareto=_pareto(conex.simulated),
        cache_hits=cache.hits - hits0,
        cache_misses=cache.misses - misses0,
        workers=conex.workers,
    )


def _expand_neighborhood(
    apex_selected: Sequence[EvaluatedMemoryArchitecture],
    apex_all: Sequence[EvaluatedMemoryArchitecture],
) -> list[EvaluatedMemoryArchitecture]:
    """Selected architectures plus their cost-order neighbours."""
    ordered = sorted(apex_all, key=lambda e: (e.cost_gates, e.miss_ratio))
    positions = {id(e): i for i, e in enumerate(ordered)}
    keep: dict[int, EvaluatedMemoryArchitecture] = {}
    for evaluated in apex_selected:
        index = positions[id(evaluated)]
        for neighbour in (index - 1, index, index + 1):
            if 0 <= neighbour < len(ordered):
                keep[neighbour] = ordered[neighbour]
    return [keep[i] for i in sorted(keep)]


def run_neighborhood(
    trace: Trace,
    memory_library: MemoryLibrary,
    connectivity_library: ConnectivityLibrary,
    apex_config: ApexConfig,
    conex_config: ConExConfig,
    hints: dict[str, AccessPattern] | None = None,
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionRuntime | str | None" = None,
) -> StrategyOutcome:
    """Pruned plus the neighbourhood of every selected design."""
    with obs.span("strategy.neighborhood"):
        cache = _resolve_cache(cache)
        hits0, misses0 = cache.hits, cache.misses
        start = time.perf_counter()
        apex = explore_memory_architectures(
            trace, memory_library, apex_config, hints=hints,
            workers=workers, cache=cache, backend=backend,
        )
        expanded = _expand_neighborhood(apex.selected, apex.evaluated)
        widened = replace(
            conex_config, phase1_keep=2 * conex_config.phase1_keep
        )
        conex = explore_connectivity(
            trace, expanded, connectivity_library, widened,
            workers=workers, cache=cache, backend=backend,
        )
        # One-swap connectivity neighbors of every simulated design,
        # estimated inline and simulated as one batch.
        simulated = list(conex.simulated)
        seen = {
            (p.memory_name, p.connectivity.preset_signature())
            for p in simulated
        }
        neighbor_points: list[ConnectivityDesignPoint] = []
        for point in conex.simulated:
            memory = point.memory_eval.architecture
            for neighbor in assignment_neighbors(
                point.connectivity, connectivity_library, memory
            ):
                key = (memory.name, neighbor.preset_signature())
                if key in seen:
                    continue
                seen.add(key)
                neighbor_points.append(
                    ConnectivityDesignPoint(
                        memory_eval=point.memory_eval,
                        connectivity=neighbor,
                        estimate=estimate_design(
                            memory, neighbor, point.memory_eval.result
                        ),
                    )
                )
        report = simulate_batch(
            trace,
            [
                SimulationJob(
                    memory=point.memory_eval.architecture,
                    connectivity=point.connectivity,
                )
                for point in neighbor_points
            ],
            workers=workers,
            cache=cache,
            backend=backend,
        )
        simulated.extend(
            ConnectivityDesignPoint(
                memory_eval=point.memory_eval,
                connectivity=point.connectivity,
                estimate=point.estimate,
                simulation=result,
            )
            for point, result in zip(neighbor_points, report.results)
        )
        seconds = time.perf_counter() - start
        return StrategyOutcome(
            name="Neighborhood",
            seconds=seconds,
            simulated=tuple(simulated),
            pareto=_pareto(simulated),
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
            workers=report.workers,
        )


def run_full(
    trace: Trace,
    memory_library: MemoryLibrary,
    connectivity_library: ConnectivityLibrary,
    apex_config: ApexConfig,
    conex_config: ConExConfig,
    hints: dict[str, AccessPattern] | None = None,
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionRuntime | str | None" = None,
) -> StrategyOutcome:
    """Brute force: fully simulate every design point in the space.

    The whole enumerated space is collected first and dispatched as a
    single :func:`repro.exec.simulate_batch` batch — the largest job
    list in the library and the engine's biggest win: the space is
    dense in connectivity-only variants, which share trace plans and
    module columns per memory architecture.
    """
    with obs.span("strategy.full"):
        cache = _resolve_cache(cache)
        hits0, misses0 = cache.hits, cache.misses
        start = time.perf_counter()
        apex = explore_memory_architectures(
            trace, memory_library, apex_config, hints=hints,
            workers=workers, cache=cache, backend=backend,
        )
        candidates: list[ConnectivityDesignPoint] = []
        for memory_eval in apex.evaluated:
            _, points = connectivity_exploration(
                trace, memory_eval, connectivity_library, conex_config
            )
            candidates.extend(points)
        report = simulate_batch(
            trace,
            [
                SimulationJob(
                    memory=point.memory_eval.architecture,
                    connectivity=point.connectivity,
                )
                for point in candidates
            ],
            workers=workers,
            cache=cache,
            backend=backend,
        )
        simulated = [
            ConnectivityDesignPoint(
                memory_eval=point.memory_eval,
                connectivity=point.connectivity,
                estimate=point.estimate,
                simulation=result,
            )
            for point, result in zip(candidates, report.results)
        ]
        seconds = time.perf_counter() - start
        return StrategyOutcome(
            name="Full",
            seconds=seconds,
            simulated=tuple(simulated),
            pareto=_pareto(simulated),
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
            workers=report.workers,
        )


def coverage_rows(
    reference: StrategyOutcome,
    candidates: Sequence[StrategyOutcome],
    rel_tol: float = 1e-9,
) -> list[CoverageRow]:
    """Table 2 rows: each candidate measured against the Full pareto.

    A candidate's *simulated* points (not only its pareto picks) count
    toward coverage, matching the paper: a pareto design found but
    locally dominated still covers the curve.
    """
    if not reference.pareto:
        raise ExplorationError("reference strategy produced no pareto points")
    reference_vectors = reference.pareto_vectors()
    rows = []
    for outcome in candidates:
        explored = [p.simulated_objectives for p in outcome.simulated]
        coverage = pareto_coverage(reference_vectors, explored, rel_tol=rel_tol)
        rows.append(
            CoverageRow(
                strategy=outcome.name,
                seconds=outcome.seconds,
                coverage=coverage,
            )
        )
    rows.append(
        CoverageRow(
            strategy=reference.name,
            seconds=reference.seconds,
            coverage=pareto_coverage(
                reference_vectors,
                [p.simulated_objectives for p in reference.simulated],
                rel_tol=rel_tol,
            ),
        )
    )
    return rows
