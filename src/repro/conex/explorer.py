"""The ConEx algorithm: Phase I (estimate + prune), Phase II (simulate).

Follows the paper's Figure 5 pseudo-code:

``ConnectivityExploration(mem_arch)`` — profile the architecture, build
the BRG, walk the hierarchical clustering levels, and for every level
whose logical-connection count passes the max-cost guard, enumerate all
feasible allocations and estimate each one's cost/performance/power.

``ConEx`` — Phase I runs ``ConnectivityExploration`` for every selected
memory architecture and keeps the locally most promising (pareto-like)
design points; Phase II fully simulates the combined candidate set and
selects the global cost/performance/power pareto designs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from repro import obs
from repro.apex.explorer import EvaluatedMemoryArchitecture
from repro.conex.allocation import AssignmentPlan, plan_assignments
from repro.conex.brg import BandwidthRequirementGraph, build_brg
from repro.conex.clustering import clustering_levels
from repro.conex.estimator import ConnectivityEstimate, estimate_plan
from repro.connectivity.architecture import ConnectivityArchitecture
from repro.connectivity.library import ConnectivityLibrary
from repro.errors import ExplorationError
from repro.exec.cache import SimulationCache
from repro.exec.engine import SimulationJob, simulate_batch
from repro.sim.metrics import SimulationResult
from repro.sim.sampling import SamplingConfig
from repro.stats import BatchStats, StatsReport
from repro.trace.events import Trace
from repro.util.pareto import pareto_front
from repro.util.selection import spread_picks


@dataclass(frozen=True)
class ConExConfig:
    """Knobs of the ConEx exploration.

    Attributes:
        max_logical_connections: the paper's "max cost constraint" — a
            clustering level is only allocated when its cluster count
            is at or below this bound (finer levels mean more parallel
            components, i.e. more cost).
        min_logical_connections: skip levels coarser than this (0 keeps
            every level down to fully-merged).
        max_assignments_per_level: deterministic thinning bound on the
            allocation cross product.
        phase1_keep: locally most promising designs carried per memory
            architecture into Phase II.
        phase2_sampling: optional time-sampling for Phase II simulation
            (None = full simulation, the paper's default for the final
            numbers).
    """

    max_logical_connections: int = 5
    min_logical_connections: int = 1
    max_assignments_per_level: int = 1024
    phase1_keep: int = 10
    phase2_sampling: SamplingConfig | None = None


class ConnectivityDesignPoint:
    """One combined memory + connectivity design point.

    The :class:`ConnectivityArchitecture` object can be supplied
    eagerly (``connectivity=``) or lazily (``builder=``, a zero-arg
    callable — typically ``plan.materialize`` bound to a candidate
    index). Phase I only needs names and objectives, which live on the
    estimate, so the thousands of pruned candidates never pay for
    component instantiation; accessing :attr:`connectivity` on a
    survivor builds and memoizes the full object.
    """

    __slots__ = (
        "memory_eval", "estimate", "simulation", "_connectivity", "_builder",
    )

    def __init__(
        self,
        memory_eval: EvaluatedMemoryArchitecture,
        connectivity: ConnectivityArchitecture | None = None,
        estimate: ConnectivityEstimate | None = None,
        simulation: SimulationResult | None = None,
        *,
        builder: Callable[[], ConnectivityArchitecture] | None = None,
    ) -> None:
        if (connectivity is None) == (builder is None):
            raise ExplorationError(
                "design point needs exactly one of connectivity or builder"
            )
        self.memory_eval = memory_eval
        self.estimate = estimate
        self.simulation = simulation
        self._connectivity = connectivity
        self._builder = builder

    @property
    def connectivity(self) -> ConnectivityArchitecture:
        """The architecture object, materialized on first access."""
        if self._connectivity is None:
            self._connectivity = self._builder()
        return self._connectivity

    @property
    def memory_name(self) -> str:
        return self.memory_eval.architecture.name

    @property
    def estimated_objectives(self) -> tuple[float, float, float]:
        return self.estimate.objectives

    @property
    def simulated_objectives(self) -> tuple[float, float, float]:
        if self.simulation is None:
            raise ExplorationError(
                f"design {self.estimate.connectivity_name} was not simulated"
            )
        return self.simulation.objectives

    def label(self) -> str:
        if self.estimate is not None:
            return f"{self.memory_name}/{self.estimate.connectivity_name}"
        return f"{self.memory_name}/{self.connectivity.name}"

    def __repr__(self) -> str:
        name = (
            self.estimate.connectivity_name
            if self.estimate is not None
            else (
                self._connectivity.name
                if self._connectivity is not None
                else "<unbuilt>"
            )
        )
        return f"<ConnectivityDesignPoint {self.memory_name}/{name}>"


@dataclass(frozen=True)
class ConExResult(StatsReport):
    """Everything the exploration produced.

    ``estimated`` holds every Phase-I estimate; ``simulated`` the
    Phase-II simulations of the locally selected designs; ``selected``
    the global cost/performance/power pareto set. ``phase2`` bundles the
    Phase-II batch accounting (cache hits/misses, dedup, retries, pool
    rebuilds, degraded flag) as a :class:`repro.stats.BatchStats`.
    """

    trace_name: str
    estimated: tuple[ConnectivityDesignPoint, ...]
    simulated: tuple[ConnectivityDesignPoint, ...]
    selected: tuple[ConnectivityDesignPoint, ...]
    brgs: dict[str, BandwidthRequirementGraph] = field(repr=False)
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    workers: int = 1
    #: Phase-II batch accounting (see :class:`repro.stats.BatchStats`).
    phase2: BatchStats = field(default_factory=BatchStats)

    _STATS_EXCLUDE = ("estimated", "simulated", "selected", "brgs")

    @property
    def total_seconds(self) -> float:
        return self.phase1_seconds + self.phase2_seconds


def connectivity_exploration(
    trace: Trace,
    memory_eval: EvaluatedMemoryArchitecture,
    library: ConnectivityLibrary,
    config: ConExConfig,
) -> tuple[BandwidthRequirementGraph, list[ConnectivityDesignPoint]]:
    """The paper's ``Procedure ConnectivityExploration`` for one arch.

    Returns the BRG and every estimated design point (all clustering
    levels passing the max-cost guard, all feasible allocations).
    Candidates are enumerated as index plans
    (:func:`repro.conex.allocation.plan_assignments`) and scored by the
    columnar :func:`repro.conex.estimator.estimate_plan` — architecture
    objects are only materialized lazily, for the points a caller
    actually inspects. Estimation is analytic and runs in-process;
    only Phase II goes through :func:`repro.exec.simulate_batch`.
    """
    memory = memory_eval.architecture
    profile = memory_eval.result
    brg = build_brg(memory, profile)
    # (plan, surviving candidate indices), deduplicated by structural
    # signature across levels — same order the eager enumeration used.
    kept: list[tuple[AssignmentPlan, list[int]]] = []
    seen: set = set()
    for level in clustering_levels(brg):
        if level.size > config.max_logical_connections:
            continue
        if level.size < config.min_logical_connections:
            continue
        plan = plan_assignments(
            level,
            library,
            name_prefix=f"{memory.name}",
            max_assignments=config.max_assignments_per_level,
            memory=memory,
        )
        indices = []
        for index in range(len(plan)):
            signature = plan.preset_signature(index)
            if signature in seen:
                continue
            seen.add(signature)
            indices.append(index)
        if indices:
            kept.append((plan, indices))

    points: list[ConnectivityDesignPoint] = []
    for plan, indices in kept:
        estimates = estimate_plan(memory, plan, profile, indices)
        for index, estimate in zip(indices, estimates):
            points.append(
                ConnectivityDesignPoint(
                    memory_eval=memory_eval,
                    estimate=estimate,
                    builder=partial(plan.materialize, index),
                )
            )
    return brg, points


def explore_connectivity(
    trace: Trace,
    selected_memories: Sequence[EvaluatedMemoryArchitecture],
    library: ConnectivityLibrary,
    config: ConExConfig | None = None,
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionRuntime | str | None" = None,
) -> ConExResult:
    """Run the full ConEx algorithm (Phases I and II).

    Phase II dispatches the carried candidates through
    :func:`repro.exec.simulate_batch`: ``workers`` processes (default
    serial, see ``REPRO_WORKERS``) against the content-addressed result
    ``cache`` (default: the process-wide cache, so a repeated identical
    exploration re-simulates nothing), with candidates sharing a memory
    architecture evaluated as one group so connectivity-only variants
    pay just the contention delta pass. Pass a persistent
    :class:`repro.exec.ExecutionRuntime` as ``backend=`` to reuse one
    worker pool (and one shared trace export) across repeated
    explorations.
    """
    config = config or ConExConfig()
    if not selected_memories:
        raise ExplorationError("ConEx needs at least one memory architecture")

    phase1_start = time.perf_counter()
    estimated: list[ConnectivityDesignPoint] = []
    carried: list[ConnectivityDesignPoint] = []
    brgs: dict[str, BandwidthRequirementGraph] = {}
    with obs.span("conex.phase1"):
        for memory_eval in selected_memories:
            brg, points = connectivity_exploration(
                trace, memory_eval, library, config
            )
            brgs[memory_eval.architecture.name] = brg
            estimated.extend(points)
            local_front = pareto_front(
                points, key=lambda p: p.estimated_objectives
            )
            carried.extend(
                spread_picks(
                    local_front,
                    config.phase1_keep,
                    key=lambda p: p.estimate.avg_latency,
                )
            )
    phase1_seconds = time.perf_counter() - phase1_start

    phase2_start = time.perf_counter()
    with obs.span("conex.phase2"):
        report = simulate_batch(
            trace,
            [
                SimulationJob(
                    memory=point.memory_eval.architecture,
                    connectivity=point.connectivity,
                    sampling=config.phase2_sampling,
                )
                for point in carried
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
            for point, result in zip(carried, report.results)
        ]
    phase2_seconds = time.perf_counter() - phase2_start

    selected = pareto_front(simulated, key=lambda p: p.simulated_objectives)
    if obs.enabled():
        obs.incr("conex.memories", len(selected_memories))
        obs.incr("conex.estimated", len(estimated))
        obs.incr("conex.carried", len(carried))
        obs.incr("conex.pareto_survivors", len(selected))
    return ConExResult(
        trace_name=trace.name,
        estimated=tuple(estimated),
        simulated=tuple(simulated),
        selected=tuple(selected),
        brgs=brgs,
        phase1_seconds=phase1_seconds,
        phase2_seconds=phase2_seconds,
        workers=report.workers,
        phase2=report.stats,
    )
