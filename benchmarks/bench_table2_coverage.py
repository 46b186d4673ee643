"""Table 2 — pareto coverage of Pruned / Neighborhood / Full.

Regenerates the paper's Table 2: for each benchmark, the exploration
time, the percentage of true pareto points found, and the average
cost/performance/energy distance of the missed pareto points to the
closest explored design, for the Pruned, Neighborhood, and Full
strategies.

The design space (``repro.core.strategies.TABLE2_APEX`` /
``TABLE2_CONEX``, which ``repro coverage`` runs too) is restricted
(fewer library options, shorter traces) so that Full stays tractable —
the paper itself reports Full taking a month for compress and omits li
entirely for this reason. Expected
shapes: Full = 100% coverage and the most time; Pruned = a large time
reduction with partial but substantial coverage and small average
distances; Neighborhood in between.
"""

import common
from repro.core.strategies import (
    TABLE2_APEX,
    TABLE2_CONEX,
    coverage_rows,
    run_full,
    run_neighborhood,
    run_pruned,
)
from repro.exec import SimulationCache
from repro.util.tables import format_table
from repro.workloads import get_workload

#: Short traces keep the Full strategy tractable.
BENCH_SCALES = {"compress": 0.15, "vocoder": 0.5}


def run_benchmark(name):
    workload = get_workload(name, scale=BENCH_SCALES[name], seed=1)
    trace = workload.trace()
    hints = dict(workload.pattern_hints)
    args = (
        trace,
        common.MEMORY_LIBRARY,
        common.CONNECTIVITY_LIBRARY,
        TABLE2_APEX,
        TABLE2_CONEX,
    )
    # Each strategy gets its own fresh result cache: within-strategy
    # reuse stays (as it would in a single real run), but no strategy
    # rides another's simulations — the paper's timings are
    # from-scratch per strategy, and the time column must stay honest.
    pruned = run_pruned(*args, hints=hints, cache=SimulationCache())
    neighborhood = run_neighborhood(
        *args, hints=hints, cache=SimulationCache()
    )
    full = run_full(*args, hints=hints, cache=SimulationCache())
    return coverage_rows(full, [pruned, neighborhood]), full


def regenerate() -> str:
    rows = []
    results = {}
    fronts = {}
    for name in BENCH_SCALES:
        results[name], fronts[name] = run_benchmark(name)
        for row in results[name]:
            cost_d, perf_d, energy_d = row.distances
            rows.append(
                (
                    name,
                    row.strategy,
                    f"{row.seconds:.1f}s",
                    f"{row.coverage_percent:.0f}%",
                    f"{cost_d:.2f}%",
                    f"{perf_d:.2f}%",
                    f"{energy_d:.2f}%",
                )
            )
    table = format_table(
        [
            "benchmark",
            "strategy",
            "time",
            "coverage",
            "avg cost dist",
            "avg perf dist",
            "avg energy dist",
        ],
        rows,
        title="Table 2 — pareto coverage results",
    )
    regenerate.results = results
    regenerate.fronts = fronts
    return table


def test_table2_coverage(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("table2_coverage", text)

    for name, rows in regenerate.results.items():
        by_name = {r.strategy: r for r in rows}
        full = by_name["Full"]
        pruned = by_name["Pruned"]
        neighborhood = by_name["Neighborhood"]
        # Full determines the pareto curve exactly.
        assert full.coverage_percent == 100.0
        # Pruned is much faster than Full.
        assert pruned.seconds < full.seconds / 2, name
        # Pruned finds a non-trivial share of the pareto curve. (The
        # PR-10 DRAM/scratchpad axes grew the true front, so the floor
        # is lower than the paper's single-DRAM space would suggest.)
        assert pruned.coverage_percent > 10.0, name
        # (No Neighborhood-vs-Full time assertion: in this deliberately
        # reduced space Full is cheap enough that Neighborhood's
        # one-swap simulations can rival it; the paper's ordering holds
        # in full-size spaces where Full is weeks, not seconds.)
        # Neighborhood covers at least as much as Pruned.
        assert (
            neighborhood.coverage_percent >= pruned.coverage_percent
        ), name
        # Missed points are approximated by close designs.
        assert all(d < 60.0 for d in pruned.distances), name

    # The PR-10 families are not just enumerated — they earn spots on
    # the true (Full-strategy) pareto front: the 2-channel DRAM trades
    # no on-chip gates for lower latency, and the arbitrated multi-port
    # scratchpad is the space's only local-structure mapping.
    def _front_architectures(front):
        return [point.memory_eval.architecture for point in front.pareto]

    assert any(
        getattr(arch.dram, "channels", 1) > 1
        for name in regenerate.fronts
        for arch in _front_architectures(regenerate.fronts[name])
    ), "no multi-channel DRAM design on any Full pareto front"
    assert any(
        any(
            module.kind == "multiport_sram"
            for module in arch.modules.values()
        )
        for name in regenerate.fronts
        for arch in _front_architectures(regenerate.fronts[name])
    ), "no multi-port scratchpad design on any Full pareto front"
