"""Tests for the parallel evaluation engine (repro.exec.engine).

The determinism contract — parallel results bit-identical to serial,
ordered by job index — and the cache integration (batch dedup, second
runs free) are the load-bearing guarantees here.
"""

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.errors import ExplorationError
from repro.exec.cache import NullCache, SimulationCache
from repro.config import WORKERS_ENV
from repro.exec.engine import SimulationJob, resolve_workers, simulate_batch

_PRESETS = (
    "cache_4k_16b_1w",
    "cache_8k_32b_1w",
    "cache_8k_32b_2w",
    "cache_16k_32b_2w",
)


def _arch(mem_library, preset: str, name: str) -> MemoryArchitecture:
    cache = mem_library.get(preset).instantiate("cache")
    dram = mem_library.get("dram").instantiate()
    return MemoryArchitecture(name, [cache], dram, {}, "cache")


def _jobs(mem_library) -> list[SimulationJob]:
    return [
        SimulationJob(memory=_arch(mem_library, preset, f"m{i}"))
        for i, preset in enumerate(_PRESETS)
    ]


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert resolve_workers() == 3

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ExplorationError):
            resolve_workers()

    def test_nonpositive_rejected(self):
        with pytest.raises(ExplorationError):
            resolve_workers(0)


class TestSerialParallelEquivalence:
    def test_parallel_matches_serial_bit_identically(
        self, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        serial = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        parallel = simulate_batch(
            tiny_trace, jobs, workers=4, cache=NullCache()
        )
        assert serial.workers == 1
        assert parallel.workers == 4
        assert serial.results == parallel.results

    def test_results_ordered_by_job_index(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        report = simulate_batch(
            tiny_trace, jobs, workers=4, cache=NullCache()
        )
        for job, result in zip(jobs, report.results):
            assert result.memory_name == job.memory.name

    def test_empty_batch(self, tiny_trace):
        report = simulate_batch(tiny_trace, [], workers=4)
        assert report.results == ()
        assert report.cache_hits == report.cache_misses == 0


class TestEngineCaching:
    def test_second_batch_is_all_hits(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        cache = SimulationCache()
        first = simulate_batch(tiny_trace, jobs, cache=cache)
        assert first.cache_misses == len(jobs)
        assert first.cache_hits == 0
        second = simulate_batch(tiny_trace, jobs, cache=cache)
        assert second.cache_hits == len(jobs)
        assert second.cache_misses == 0
        assert second.results == first.results

    def test_duplicate_jobs_simulate_once(self, tiny_trace, mem_library):
        job = SimulationJob(
            memory=_arch(mem_library, "cache_8k_32b_2w", "m")
        )
        cache = SimulationCache()
        report = simulate_batch(tiny_trace, [job, job, job], cache=cache)
        assert len(cache) == 1
        assert report.results[0] == report.results[1] == report.results[2]
        # Only one simulation actually ran; the in-batch duplicates are
        # accounted separately instead of inflating cache_misses.
        assert report.cache_misses == 1
        assert report.deduplicated == 2
        assert report.cache_hits == 0

    def test_content_shared_results_are_relabelled(
        self, tiny_trace, mem_library
    ):
        """A hit from a same-config arch must not leak the other name."""
        alpha = SimulationJob(
            memory=_arch(mem_library, "cache_8k_32b_2w", "alpha")
        )
        beta = SimulationJob(
            memory=_arch(mem_library, "cache_8k_32b_2w", "beta")
        )
        cache = SimulationCache()
        report = simulate_batch(tiny_trace, [alpha, beta], cache=cache)
        assert len(cache) == 1  # one simulation served both
        assert report.results[0].memory_name == "alpha"
        assert report.results[1].memory_name == "beta"
        # Same across separate batches (the cache-hit path).
        rerun = simulate_batch(tiny_trace, [beta], cache=cache)
        assert rerun.cache_hits == 1
        assert rerun.results[0].memory_name == "beta"

    def test_null_cache_forces_fresh_runs(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)[:2]
        cache = NullCache()
        simulate_batch(tiny_trace, jobs, cache=cache)
        again = simulate_batch(tiny_trace, jobs, cache=cache)
        assert again.cache_hits == 0
        assert again.cache_misses == len(jobs)


class TestExplorerIntegration:
    @pytest.fixture(scope="class")
    def exploration_inputs(self, compress_workload, mem_library):
        from repro.apex.explorer import ApexConfig, explore_memory_architectures

        trace = compress_workload.trace()
        apex = explore_memory_architectures(
            trace,
            mem_library,
            ApexConfig(
                cache_options=(None, "cache_4k_16b_1w", "cache_16k_32b_2w"),
                stream_buffer_options=(None, "stream_buffer_4"),
                dma_options=(None,),
                map_indexed_to_sram=(False,),
                select_count=3,
            ),
            hints=compress_workload.pattern_hints,
        )
        return trace, apex

    def test_repeat_exploration_is_all_phase2_hits(
        self, exploration_inputs, conn_library
    ):
        """Acceptance check: a second identical exploration simulates
        nothing new in Phase II."""
        from repro.conex.explorer import ConExConfig, explore_connectivity

        trace, apex = exploration_inputs
        config = ConExConfig(
            max_logical_connections=3,
            max_assignments_per_level=8,
            phase1_keep=3,
        )
        cache = SimulationCache()
        first = explore_connectivity(
            trace, apex.selected, conn_library, config, cache=cache
        )
        assert first.phase2.cache_misses == len(first.simulated)
        assert first.phase2.cache_hits == 0
        second = explore_connectivity(
            trace, apex.selected, conn_library, config, cache=cache
        )
        assert second.phase2.cache_hits == len(second.simulated)
        assert second.phase2.cache_misses == 0
        assert [p.simulated_objectives for p in second.simulated] == [
            p.simulated_objectives for p in first.simulated
        ]
        assert second.phase2_seconds < first.phase2_seconds

    def test_parallel_exploration_matches_serial(
        self, exploration_inputs, conn_library
    ):
        """The pareto set is workers-invariant (acceptance criterion)."""
        from repro.conex.explorer import ConExConfig, explore_connectivity

        trace, apex = exploration_inputs
        config = ConExConfig(
            max_logical_connections=3,
            max_assignments_per_level=8,
            phase1_keep=3,
        )
        serial = explore_connectivity(
            trace, apex.selected, conn_library, config,
            workers=1, cache=NullCache(),
        )
        parallel = explore_connectivity(
            trace, apex.selected, conn_library, config,
            workers=4, cache=NullCache(),
        )
        assert parallel.workers == 4
        assert [p.simulated_objectives for p in parallel.selected] == [
            p.simulated_objectives for p in serial.selected
        ]
