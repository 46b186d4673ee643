"""Cross-workload comparison of exploration results.

An SoC usually runs more than one application. This module compares
MemorEx results across workloads: per-workload fronts and knee picks
side by side, plus a tally of which connectivity presets keep earning
places on pareto fronts — the "house style" of the library for a given
workload portfolio.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import obs
from repro.core.design_point import DesignPointSummary, summarize
from repro.core.memorex import MemorExConfig, MemorExResult, run_memorex
from repro.errors import ExplorationError
from repro.exec.cache import SimulationCache
from repro.util.selection import knee_point
from repro.util.tables import format_table
from repro.workloads.base import Workload


@dataclass(frozen=True)
class WorkloadComparison:
    """Comparison across several workloads' exploration results."""

    knees: Mapping[str, DesignPointSummary]
    fronts: Mapping[str, tuple[DesignPointSummary, ...]]
    preset_tally: Mapping[str, int]

    def favoured_presets(self, top: int = 3) -> list[tuple[str, int]]:
        """The connectivity presets most often on pareto fronts."""
        return Counter(self.preset_tally).most_common(top)


def explore_portfolio(
    workloads: Sequence[Workload],
    config: MemorExConfig | None = None,
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionBackend | str | None" = None,
) -> list[MemorExResult]:
    """Run MemorEx over a workload portfolio with a shared engine setup.

    Each workload's exploration goes through :mod:`repro.exec` with the
    same ``workers`` / ``cache`` / ``backend`` triple, so designs shared
    between workload variants (same trace fingerprint) simulate only
    once, and one backend (``PoolBackend(runtime)`` for a persistent
    worker pool) serves every workload.
    """
    if not workloads:
        raise ExplorationError("no workloads in portfolio")
    results = []
    for workload in workloads:
        with obs.span("portfolio.workload"):
            results.append(
                run_memorex(
                    workload, config=config, workers=workers, cache=cache,
                    backend=backend,
                )
            )
    return results


def compare_workloads(
    results: Sequence[MemorExResult],
) -> WorkloadComparison:
    """Build the cross-workload comparison."""
    if not results:
        raise ExplorationError("no exploration results to compare")
    names = [r.workload_name for r in results]
    if len(set(names)) != len(names):
        raise ExplorationError(f"duplicate workloads in comparison: {names}")
    knees: dict[str, DesignPointSummary] = {}
    fronts: dict[str, tuple[DesignPointSummary, ...]] = {}
    tally: Counter[str] = Counter()
    for result in results:
        summaries = tuple(
            summarize(point) for point in result.selected_points
        )
        if not summaries:
            raise ExplorationError(
                f"workload '{result.workload_name}' selected no designs"
            )
        fronts[result.workload_name] = summaries
        knees[result.workload_name] = knee_point(
            summaries, key=lambda s: (s.cost_gates, s.avg_latency)
        )
        for point in result.selected_points:
            for cluster in point.connectivity.clusters:
                tally[cluster.preset_name] += 1
    return WorkloadComparison(
        knees=knees, fronts=fronts, preset_tally=dict(tally)
    )


def format_comparison(comparison: WorkloadComparison) -> str:
    """Render the comparison as a text report."""
    rows = []
    for workload, knee in comparison.knees.items():
        front = comparison.fronts[workload]
        costs = [s.cost_gates for s in front]
        latencies = [s.avg_latency for s in front]
        rows.append(
            (
                workload,
                len(front),
                f"{min(costs):,.0f}..{max(costs):,.0f}",
                f"{min(latencies):.2f}..{max(latencies):.2f}",
                f"{knee.label} ({knee.cost_gates:,.0f} g, "
                f"{knee.avg_latency:.2f} cyc)",
            )
        )
    table = format_table(
        ["workload", "front", "cost range [gates]", "lat range [cyc]", "knee pick"],
        rows,
        title="Cross-workload exploration comparison",
    )
    favoured = comparison.favoured_presets()
    footer = "most-used connectivity presets on the fronts: " + ", ".join(
        f"{name} x{count}" for name, count in favoured
    )
    return table + "\n\n" + footer
