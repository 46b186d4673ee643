"""Columnar Phase-I equivalence, plan consistency, and explorer edges.

The refactor's contract: assignment plans enumerate exactly what the
eager enumeration did (names, signatures, thinning), the columnar
estimator returns bit-identical estimates to the scalar
:func:`~repro.conex.estimator.estimate_design` oracle — also for every
point ``explore_connectivity`` reports, so Phase I carries and Phase II
selects exactly what scalar estimates would — and exploration is
invariant to dispatching through a persistent runtime.
"""

import pytest

from repro.apex.explorer import ApexConfig, explore_memory_architectures
from repro.conex.allocation import enumerate_assignments, plan_assignments
from repro.conex.brg import build_brg
from repro.conex.clustering import clustering_levels
from repro.conex.estimator import (
    ConnectivityEstimate,
    estimate_design,
    estimate_plan,
)
from repro.conex.explorer import (
    ConExConfig,
    ConnectivityDesignPoint,
    _thin_by_latency,
    explore_connectivity,
)
from repro.errors import ExplorationError
from repro.exec.cache import NullCache
from repro.exec.backend import PoolBackend
from repro.exec.runtime import ExecutionRuntime
from repro.sim.simulator import simulate
from repro.util.pareto import pareto_front

APEX_CONFIG = ApexConfig(
    cache_options=(None, "cache_4k_16b_1w", "cache_16k_32b_2w"),
    stream_buffer_options=(None, "stream_buffer_4"),
    dma_options=(None,),
    map_indexed_to_sram=(False,),
    select_count=3,
)

CONEX_CONFIG = ConExConfig(
    max_logical_connections=3,
    max_assignments_per_level=24,
    phase1_keep=3,
)


@pytest.fixture(scope="module")
def apex(compress_trace, mem_library):
    return explore_memory_architectures(
        compress_trace, mem_library, APEX_CONFIG
    )


class TestPlanMatchesEagerEnumeration:
    def test_names_signatures_and_estimates_agree(
        self, apex, conn_library
    ):
        checked = 0
        for memory_eval in apex.selected:
            memory = memory_eval.architecture
            profile = memory_eval.result
            brg = build_brg(memory, profile)
            for level in clustering_levels(brg):
                plan = plan_assignments(
                    level, conn_library, name_prefix=memory.name,
                    max_assignments=64,
                )
                eager = enumerate_assignments(
                    level, conn_library, name_prefix=memory.name,
                    max_assignments=64,
                )
                assert len(plan) == len(eager)
                estimates = estimate_plan(memory, plan, profile)
                for index, connectivity in enumerate(eager):
                    assert plan.name(index) == connectivity.name
                    assert (
                        plan.preset_signature(index)
                        == connectivity.preset_signature()
                    )
                    reference = estimate_design(
                        memory, connectivity, profile
                    )
                    assert estimates[index] == reference
                    checked += 1
        assert checked > 0

    def test_materialize_equals_eager_architecture(
        self, apex, conn_library
    ):
        memory_eval = apex.selected[0]
        memory = memory_eval.architecture
        brg = build_brg(memory, memory_eval.result)
        level = clustering_levels(brg)[0]
        plan = plan_assignments(
            level, conn_library, name_prefix=memory.name, max_assignments=16
        )
        eager = enumerate_assignments(
            level, conn_library, name_prefix=memory.name, max_assignments=16
        )
        for index, expected in enumerate(eager):
            built = plan.materialize(index)
            assert built.name == expected.name
            assert built.full_signature() == expected.full_signature()

    def test_estimate_plan_subset_indices(self, apex, conn_library):
        memory_eval = apex.selected[0]
        memory = memory_eval.architecture
        profile = memory_eval.result
        brg = build_brg(memory, profile)
        level = clustering_levels(brg)[0]
        plan = plan_assignments(
            level, conn_library, name_prefix=memory.name, max_assignments=16
        )
        subset = list(range(len(plan)))[::2]
        estimates = estimate_plan(memory, plan, profile, subset)
        assert len(estimates) == len(subset)
        for index, estimate in zip(subset, estimates):
            assert estimate == estimate_design(
                memory, plan.materialize(index), profile
            )

    def test_wrong_profile_rejected(self, apex, conn_library):
        first, second = apex.selected[0], apex.selected[1]
        memory = first.architecture
        brg = build_brg(memory, first.result)
        plan = plan_assignments(
            clustering_levels(brg)[0], conn_library,
            name_prefix=memory.name, max_assignments=4,
        )
        with pytest.raises(ExplorationError):
            estimate_plan(memory, plan, second.result)


class TestExplorerEquivalence:
    def _explore(self, trace, apex, conn_library, **kwargs):
        result = explore_connectivity(
            trace, apex.selected, conn_library, CONEX_CONFIG,
            cache=NullCache(), **kwargs,
        )
        return (
            [(p.label(),) + p.estimated_objectives for p in result.estimated],
            [(p.label(),) + p.simulated_objectives for p in result.simulated],
            [(p.label(),) + p.simulated_objectives for p in result.selected],
        )

    def test_columnar_matches_reference_estimator(
        self, compress_trace, apex, conn_library
    ):
        result = explore_connectivity(
            compress_trace, apex.selected, conn_library, CONEX_CONFIG,
            cache=NullCache(),
        )
        assert result.estimated
        # Every Phase-I point equals the scalar oracle on its
        # materialized architecture, under the architecture's own name.
        reference: dict[str, list[ConnectivityDesignPoint]] = {}
        for point in result.estimated:
            memory_eval = point.memory_eval
            connectivity = point.connectivity
            expected = estimate_design(
                memory_eval.architecture, connectivity, memory_eval.result
            )
            assert point.estimate == expected
            assert point.label() == (
                f"{point.memory_name}/{connectivity.name}"
            )
            reference.setdefault(point.memory_name, []).append(
                ConnectivityDesignPoint(
                    memory_eval=memory_eval,
                    connectivity=connectivity,
                    estimate=expected,
                )
            )
        # Scalar estimates carry the same designs into Phase II ...
        carried = []
        for points in reference.values():
            front = pareto_front(points, key=lambda p: p.estimated_objectives)
            carried.extend(_thin_by_latency(front, CONEX_CONFIG.phase1_keep))
        assert [p.label() for p in carried] == [
            p.label() for p in result.simulated
        ]
        # ... whose simulations, and so the selected set, are unchanged.
        for point in result.simulated:
            direct = simulate(
                compress_trace, point.memory_eval.architecture,
                point.connectivity,
            )
            assert point.simulated_objectives == direct.objectives
        selected = pareto_front(
            result.simulated, key=lambda p: p.simulated_objectives
        )
        assert [p.label() for p in selected] == [
            p.label() for p in result.selected
        ]

    def test_runtime_dispatch_matches_serial(
        self, compress_trace, apex, conn_library
    ):
        serial = self._explore(
            compress_trace, apex, conn_library, workers=1
        )
        with ExecutionRuntime(workers=2) as runtime:
            pooled = self._explore(
                compress_trace, apex, conn_library, workers=2,
                backend=PoolBackend(runtime),
            )
        assert serial == pooled

    def test_repeated_explorations_reuse_one_runtime(
        self, compress_trace, apex, conn_library
    ):
        with ExecutionRuntime(workers=2) as runtime:
            first = self._explore(
                compress_trace, apex, conn_library,
                backend=PoolBackend(runtime),
            )
            pool = runtime._pool
            second = self._explore(
                compress_trace, apex, conn_library,
                backend=PoolBackend(runtime),
            )
            assert runtime._pool is pool
            assert len(runtime._exports) == 1
        assert first == second

    def test_lazy_points_materialize_on_access(
        self, compress_trace, apex, conn_library
    ):
        result = explore_connectivity(
            compress_trace, apex.selected, conn_library, CONEX_CONFIG,
            cache=NullCache(),
        )
        # Phase II materializes the carried survivors; the pruned bulk
        # of Phase I must still be unbuilt.
        unbuilt = [p for p in result.estimated if p._connectivity is None]
        assert len(unbuilt) >= len(result.estimated) - len(result.simulated)
        assert unbuilt
        point = unbuilt[0]
        built = point.connectivity
        assert built.name == point.estimate.connectivity_name
        assert point.connectivity is built


def _point(latency: float, name: str) -> ConnectivityDesignPoint:
    estimate = ConnectivityEstimate(
        memory_name="m",
        connectivity_name=name,
        cost_gates=1.0,
        avg_latency=latency,
        avg_energy_nj=1.0,
        channel_waits={},
    )
    return ConnectivityDesignPoint(
        memory_eval=None, estimate=estimate, builder=lambda: None
    )


class TestThinByLatency:
    def test_count_one_keeps_lowest_latency(self):
        front = [_point(5.0, "a"), _point(1.0, "b"), _point(3.0, "c")]
        thinned = _thin_by_latency(front, 1)
        assert [p.estimate.connectivity_name for p in thinned] == ["b"]

    def test_exact_fit_returns_everything_sorted(self):
        front = [_point(5.0, "a"), _point(1.0, "b"), _point(3.0, "c")]
        thinned = _thin_by_latency(front, 3)
        assert [p.estimate.connectivity_name for p in thinned] == [
            "b", "c", "a",
        ]

    def test_latency_ties_are_stable(self):
        front = [_point(2.0, "a"), _point(2.0, "b"), _point(2.0, "c")]
        thinned = _thin_by_latency(front, 2)
        # sorted() is stable, so ties keep input order; endpoints picked.
        assert [p.estimate.connectivity_name for p in thinned] == ["a", "c"]

    def test_spread_keeps_endpoints(self):
        front = [_point(float(i), str(i)) for i in range(10)]
        thinned = _thin_by_latency(front, 4)
        names = [p.estimate.connectivity_name for p in thinned]
        assert names[0] == "0"
        assert names[-1] == "9"
        assert len(names) == 4

    def test_design_point_requires_exactly_one_source(self):
        with pytest.raises(ExplorationError):
            ConnectivityDesignPoint(memory_eval=None)
        with pytest.raises(ExplorationError):
            ConnectivityDesignPoint(
                memory_eval=None,
                connectivity=object(),
                builder=lambda: None,
            )
