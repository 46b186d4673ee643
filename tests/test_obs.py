"""Observability layer and typed configuration.

Covers the ``repro.obs`` contract: hierarchical span paths with
monotonic timing, the disabled-mode zero-allocation guarantee, counter
merge from pool workers (including across a fault-forced pool rebuild),
the exporters, the :class:`repro.config.Settings` snapshot (env
precedence, round-trip, historical error types), and the deprecated
flat stats attributes on the explorer results.
"""

import json
import threading
import time
from dataclasses import fields

import pytest

from repro import obs
from repro.apex.explorer import ApexResult
from repro.config import (
    BENCH_SMOKE_ENV,
    CACHE_DIR_ENV,
    CACHE_MAX_MB_ENV,
    FAULT_INJECT_ENV,
    JOB_TIMEOUT_ENV,
    MAX_RETRIES_ENV,
    OBS_ENV,
    REFERENCE_SIM_ENV,
    SERVICE_URL_ENV,
    WORKERS_ENV,
    Settings,
    current_settings,
    set_settings,
    use_settings,
)
from repro.errors import ExecutionError, ExplorationError
from repro.exec.cache import NullCache, SimulationCache
from repro.exec.engine import SimulationJob, simulate_batch
from repro.exec.runtime import ExecutionRuntime, RuntimeStats
from repro.obs.registry import ObsSnapshot
from repro.util.pareto import pareto_front

from .test_exec_faults import _jobs


@pytest.fixture
def obs_on():
    """Recording on, registry clean, with guaranteed restore."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        yield
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()


class TestSpans:
    def test_nested_paths_and_monotonic_timing(self, obs_on):
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.02)
        snap = obs.snapshot()
        assert set(snap.spans) == {"outer", "outer/inner"}
        outer_count, outer_wall, outer_cpu = snap.spans["outer"]
        inner_count, inner_wall, inner_cpu = snap.spans["outer/inner"]
        assert outer_count == inner_count == 1
        # The parent encloses the child: its wall clock must dominate,
        # and both must have actually measured the sleep.
        assert outer_wall >= inner_wall >= 0.015
        assert outer_cpu >= inner_cpu >= 0.0

    def test_sibling_spans_share_the_parent_prefix(self, obs_on):
        with obs.span("parent"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        snap = obs.snapshot()
        assert "parent/a" in snap.spans
        assert "parent/b" in snap.spans

    def test_repeated_spans_aggregate(self, obs_on):
        for _ in range(3):
            with obs.span("again"):
                pass
        count, wall, _ = obs.snapshot().spans["again"]
        assert count == 3
        assert wall >= 0.0

    def test_pareto_front_records_its_span_and_counts(self, obs_on):
        with obs.span("outer"):
            front = pareto_front([(1, 2), (2, 1), (3, 3)], key=lambda p: p)
        assert front == [(1, 2), (2, 1)]
        snap = obs.snapshot()
        assert snap.spans["outer/pareto.front"][0] == 1
        assert snap.counters["pareto.points_in"] == 3
        assert snap.counters["pareto.points_kept"] == 2

    def test_incr_is_thread_safe(self, obs_on):
        def bump():
            for _ in range(1000):
                obs.incr("threads.x")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert obs.snapshot().counters["threads.x"] == 4000


class TestDisabledMode:
    @pytest.fixture(autouse=True)
    def obs_off(self):
        """Force disabled mode (the suite may run under REPRO_OBS=1)."""
        was_enabled = obs.enabled()
        obs.disable()
        obs.reset()
        try:
            yield
        finally:
            obs.reset()
            if was_enabled:
                obs.enable()

    def test_disabled_span_is_a_shared_singleton(self):
        """The zero-allocation guard: while disabled, every span() call
        returns the same no-op object."""
        assert not obs.enabled()
        assert obs.span("a") is obs.span("b")

    def test_disabled_incr_and_gauge_record_nothing(self):
        assert not obs.enabled()
        obs.incr("never", 5)
        obs.gauge("never.g", 1.0)
        with obs.span("never.span"):
            pass
        snap = obs.snapshot()
        assert snap.empty

    def test_enable_disable_roundtrip(self):
        assert not obs.enabled()
        obs.enable()
        try:
            assert obs.enabled()
            assert obs.span("live") is not obs.span("live")
        finally:
            obs.disable()
        assert not obs.enabled()


class TestSnapshotMerge:
    def test_subtract_yields_the_delta(self, obs_on):
        obs.incr("c.x", 2)
        with obs.span("s"):
            pass
        baseline = obs.snapshot()
        obs.incr("c.x", 3)
        obs.incr("c.fresh")
        with obs.span("s"):
            pass
        delta = obs.snapshot().subtract(baseline)
        assert delta.counters["c.x"] == 3
        assert delta.counters["c.fresh"] == 1
        count, _, _ = delta.spans["s"]
        assert count == 1

    def test_merge_folds_a_delta_into_the_registry(self, obs_on):
        obs.incr("m.x", 1)
        delta = ObsSnapshot(
            spans={"w": (2, 0.5, 0.25)},
            counters={"m.x": 4},
            gauges={"m.g": 7.0},
        )
        obs.merge_snapshot(delta)
        snap = obs.snapshot()
        assert snap.counters["m.x"] == 5
        assert snap.spans["w"] == (2, 0.5, 0.25)
        assert snap.gauges["m.g"] == 7.0

    def test_merge_none_is_a_no_op(self, obs_on):
        before = obs.snapshot()
        obs.merge_snapshot(None)
        assert obs.snapshot() == before


class TestWorkerMerge:
    def test_pool_worker_counters_merge_into_parent(
        self, tiny_trace, mem_library, obs_on
    ):
        jobs = _jobs(mem_library)
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=runtime,
            )
        assert len(report.results) == len(jobs)
        snap = obs.snapshot()
        # Worker-side recordings travelled back through the job-result
        # channel: the four ideal jobs split into four chunks (about
        # four per worker), and each job ran exactly one simulation in
        # some worker.
        assert snap.counters["sim.runs"] == len(jobs)
        assert snap.counters["sim.accesses"] == len(jobs) * len(tiny_trace)
        assert snap.spans["sim.batch.ideal"][0] == len(jobs)
        assert snap.counters["sim.batch.ideal_members"] == len(jobs)
        # Engine-side accounting was recorded in the parent.
        assert snap.counters["exec.jobs"] == len(jobs)
        assert snap.counters["runtime.dispatches"] >= 1
        assert snap.counters["runtime.jobs"] == len(jobs)

    def test_worker_counters_survive_a_pool_rebuild(
        self, tiny_trace, mem_library, obs_on, monkeypatch, tmp_path
    ):
        """A SIGKILLed worker's chunk is re-dispatched; the merged
        counters must cover every job exactly once."""
        jobs = _jobs(mem_library)
        monkeypatch.setenv(
            FAULT_INJECT_ENV, f"once:{tmp_path / 'obs.marker'}"
        )
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=runtime,
            )
            assert runtime.stats.pool_rebuilds >= 1
        assert (tmp_path / "obs.marker").exists(), "no fault was injected"
        assert len(report.results) == len(jobs)
        snap = obs.snapshot()
        assert snap.counters["sim.runs"] == len(jobs)
        assert snap.counters["runtime.pool_rebuilds"] >= 1
        assert snap.counters["runtime.retries"] >= 1

    def test_serial_path_records_in_process(self, tiny_trace, mem_library, obs_on):
        jobs = _jobs(mem_library)
        report = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        assert len(report.results) == len(jobs)
        snap = obs.snapshot()
        assert snap.counters["sim.runs"] == len(jobs)
        assert snap.counters["exec.cache_misses"] == len(jobs)
        assert snap.counters["exec.cache_hits"] == 0

    def test_batch_path_counts_every_run(self, tiny_trace, mem_library, obs_on):
        """Group evaluation counts each simulated job exactly once."""
        from dataclasses import replace

        from repro.exec.engine import simulate_batch

        base = _jobs(mem_library)
        jobs = base + [replace(job, posted_writes=True) for job in base]
        report = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        assert report.cache_misses == len(jobs)
        snap = obs.snapshot()
        assert snap.counters["sim.runs"] == len(jobs)
        assert snap.counters["sim.accesses"] == len(jobs) * len(tiny_trace)

    def test_cache_hits_are_counted(self, tiny_trace, mem_library, obs_on):
        jobs = _jobs(mem_library)
        cache = SimulationCache()
        simulate_batch(tiny_trace, jobs, workers=1, cache=cache)
        first = obs.snapshot()
        assert first.counters["exec.cache_misses"] == len(jobs)
        simulate_batch(tiny_trace, jobs, workers=1, cache=cache)
        second = obs.snapshot()
        assert (
            second.counters["exec.cache_hits"]
            - first.counters["exec.cache_hits"]
            == len(jobs)
        )
        assert second.counters["cache.hits"] >= len(jobs)


class TestKernelCounters:
    @staticmethod
    def _dma_simulator(trace, mem_library, conn_library=None):
        """A cache and a DMA engine, under ideal connectivity unless a
        connectivity library is given."""
        from repro.apex.architectures import MemoryArchitecture
        from repro.sim.simulator import Simulator
        from tests.conftest import simple_connectivity

        memory = MemoryArchitecture(
            "dma",
            [
                mem_library.get("cache_8k_32b_2w").instantiate("cache"),
                mem_library.get("si_dma_32").instantiate("dma"),
            ],
            mem_library.get("dram").instantiate(),
            {"stream": "dma", "table": "cache"},
            "dram",
        )
        connectivity = (
            None
            if conn_library is None
            else simple_connectivity(memory, trace, conn_library)
        )
        return Simulator(trace, memory, connectivity)

    def test_replay_stall_rows_counts_the_hits_that_can_stall(
        self, tiny_trace, mem_library, obs_on
    ):
        """The ideal-connectivity resolver visits exactly the DMA hits
        whose slack against the stall-free issue times is positive."""
        from repro.sim.batch import GroupPlan, TracePlan, _replay_terms

        simulator = self._dma_simulator(tiny_trace, mem_library)
        simulator.run(reference=False)
        visited = obs.snapshot().counters["sim.kernel.replay_stall_rows"]
        # The same count from a scalar pass over the stall-free run.
        simulator._install_backing_hints()
        gplan = GroupPlan(TracePlan(tiny_trace), simulator)
        rows, srcs, ready = _replay_terms(simulator, gplan)
        issue, lag = [], 0
        base = (gplan.mlat + gplan.core).tolist()
        for tick, latency in zip(tiny_trace.ticks.tolist(), base):
            issue.append(tick + lag)
            lag += latency - 1
        expected = sum(
            issue[src] + offset > issue[row]
            for row, src, offset in zip(
                rows.tolist(), srcs.tolist(), ready.tolist()
            )
        )
        assert visited == expected > 0

    def test_priced_and_dma_free_runs_visit_no_stall_rows(
        self, tiny_trace, mem_library, conn_library, cache_architecture,
        obs_on,
    ):
        from repro.sim.simulator import Simulator

        self._dma_simulator(tiny_trace, mem_library, conn_library).run(
            reference=False
        )
        Simulator(tiny_trace, cache_architecture).run(reference=False)
        snap = obs.snapshot()
        assert snap.counters["sim.runs"] == 2
        assert "sim.kernel.replay_stall_rows" not in snap.counters

    def test_mixed_unit_counts_like_its_members_one_by_one(
        self, tiny_trace, mem_library, conn_library, cache_architecture,
        obs_on,
    ):
        """A unit of ideal and priced members emits exactly the kernel
        counters its members emit run one at a time."""
        from repro.sim.batch import TracePlan, evaluate_group
        from repro.sim.sampling import SamplingConfig
        from repro.sim.simulator import Simulator
        from tests.conftest import simple_connectivity

        dma = self._dma_simulator(tiny_trace, mem_library).memory
        connectivity = simple_connectivity(
            cache_architecture, tiny_trace, conn_library
        )
        sampling = SamplingConfig(on_window=16, off_ratio=1, warmup=4)
        jobs = [
            SimulationJob(memory, conn, schedule, posted)
            for memory, conn in (
                (dma, None),
                (cache_architecture, None),
                (cache_architecture, connectivity),
            )
            for schedule, posted in ((None, False), (sampling, True))
        ]

        def kernel_counters() -> dict:
            counters = obs.snapshot().counters
            obs.reset()
            return {
                name: value
                for name, value in counters.items()
                if name.startswith("sim.kernel.")
            }

        evaluate_group(tiny_trace, jobs, TracePlan(tiny_trace))
        unit = kernel_counters()
        for job in jobs:
            Simulator(
                tiny_trace, job.memory, job.connectivity, job.sampling,
                job.posted_writes,
            ).run(reference=False)
        assert unit == kernel_counters()
        assert set(unit) == {
            "sim.kernel.openrow_merged_passes",
            "sim.kernel.openrow_merged_accesses",
            "sim.kernel.onwindow_batched",
            "sim.kernel.replay_stall_rows",
        }


class TestExport:
    def test_as_dict_shape(self, obs_on):
        obs.incr("e.count", 2)
        obs.gauge("e.gauge", 1.5)
        with obs.span("e.span"):
            pass
        document = obs.as_dict(extra={"runtime": {"batches": 1}})
        assert set(document["settings"]) >= {"workers", "obs", "cache_dir"}
        assert document["counters"]["e.count"] == 2
        assert document["gauges"]["e.gauge"] == 1.5
        assert document["spans"]["e.span"]["count"] == 1
        assert document["runtime"] == {"batches": 1}

    def test_export_json_writes_the_document(self, obs_on, tmp_path):
        obs.incr("j.x")
        path = obs.export_json(tmp_path / "metrics.json")
        payload = json.loads(path.read_text())
        assert payload["counters"]["j.x"] == 1

    def test_render_text_lists_spans_and_counters(self, obs_on):
        with obs.span("t.span"):
            pass
        obs.incr("t.count", 3)
        text = obs.render_text()
        assert "== observability ==" in text
        assert "t.span" in text
        assert "t.count" in text

    def test_render_text_empty_registry(self, obs_on):
        assert "(nothing recorded)" in obs.render_text()


class TestSettings:
    def test_defaults(self):
        settings = Settings.from_env({})
        assert settings == Settings()
        assert settings.workers == 1
        assert settings.job_timeout is None
        assert settings.max_retries == 2
        assert settings.obs is False

    def test_env_precedence_is_dynamic(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert current_settings().workers == 3
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert current_settings().workers == 5

    def test_installed_settings_override_the_environment(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        with use_settings(Settings(workers=7)) as installed:
            assert current_settings() is installed
            assert current_settings().workers == 7
        assert current_settings().workers == 3

    def test_set_settings_returns_the_previous_override(self):
        explicit = Settings(workers=2)
        assert set_settings(explicit) is None
        try:
            assert current_settings() is explicit
        finally:
            assert set_settings(None) is explicit

    def test_from_env_parses_every_variable(self):
        env = {
            WORKERS_ENV: "4",
            JOB_TIMEOUT_ENV: "2.5",
            MAX_RETRIES_ENV: "0",
            CACHE_DIR_ENV: "/srv/cache",
            CACHE_MAX_MB_ENV: "64",
            SERVICE_URL_ENV: "http://10.0.0.4:9",
            FAULT_INJECT_ENV: "always",
            REFERENCE_SIM_ENV: "yes",
            BENCH_SMOKE_ENV: "on",
            OBS_ENV: "true",
        }
        assert len(env) == len(fields(Settings))
        assert Settings.from_env(env) == Settings(
            workers=4,
            job_timeout=2.5,
            max_retries=0,
            cache_dir="/srv/cache",
            cache_max_mb=64.0,
            service_url="http://10.0.0.4:9",
            fault_inject="always",
            reference_sim=True,
            bench_smoke=True,
            obs=True,
        )

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "0", "-1"])
    @pytest.mark.parametrize("name", [JOB_TIMEOUT_ENV, CACHE_MAX_MB_ENV])
    def test_non_finite_or_non_positive_numbers_rejected(self, name, raw):
        with pytest.raises(ExecutionError, match="positive and finite"):
            Settings.from_env({name: raw})

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), float("-inf"), 0.0]
    )
    def test_runtime_rejects_a_non_finite_timeout(self, timeout):
        with pytest.raises(ExecutionError, match="positive and finite"):
            ExecutionRuntime(job_timeout=timeout)

    def test_historical_error_types(self):
        with pytest.raises(ExplorationError):
            Settings.from_env({WORKERS_ENV: "many"})
        with pytest.raises(ExplorationError):
            Settings(workers=0)
        with pytest.raises(ExecutionError):
            Settings.from_env({JOB_TIMEOUT_ENV: "soon"})
        with pytest.raises(ExecutionError):
            Settings(job_timeout=-1.0)
        with pytest.raises(ExecutionError):
            Settings(max_retries=-1)

    def test_obs_env_parses_truthily(self):
        assert Settings.from_env({OBS_ENV: "1"}).obs is True
        assert Settings.from_env({OBS_ENV: "true"}).obs is True
        assert Settings.from_env({OBS_ENV: "0"}).obs is False

    def test_as_dict_mirrors_fields(self):
        as_dict = Settings(workers=2).as_dict()
        assert as_dict["workers"] == 2
        assert list(as_dict) == [spec.name for spec in fields(Settings)]
        assert len(as_dict) == 10


class TestDeprecatedStats:
    def test_as_dict_skips_bulky_payloads(self):
        result = ApexResult(trace_name="t", evaluated=(), selected=())
        as_dict = result.as_dict()
        assert "evaluated" not in as_dict
        assert as_dict["stats"]["pool_rebuilds"] == 0

    def test_runtime_fault_summary(self):
        assert RuntimeStats().fault_summary() is None
        stats = RuntimeStats(
            batches=1, retries=2, pool_rebuilds=1, timeouts=1,
            degraded_batches=1,
        )
        summary = stats.fault_summary()
        assert "1 pool rebuild(s)" in summary
        assert "2 retry round(s)" in summary
        assert "1 timeout(s)" in summary
        assert "degraded to serial" in summary


class TestCliMetrics:
    def test_explore_metrics_json_covers_the_stack(self, tmp_path):
        """Acceptance: ``repro explore --metrics-json`` emits spans and
        counters spanning both ConEx phases, the engine cache, and the
        runtime."""
        from repro.cli import main

        path = tmp_path / "metrics.json"
        was_enabled = obs.enabled()
        try:
            code = main(
                [
                    "explore",
                    "vocoder",
                    "--scale",
                    "0.3",
                    "--select",
                    "2",
                    "--keep",
                    "3",
                    "--metrics-json",
                    str(path),
                ]
            )
        finally:
            if not was_enabled:
                obs.disable()
            obs.reset()
        assert code == 0
        payload = json.loads(path.read_text())
        spans = payload["spans"]
        counters = payload["counters"]
        assert any(name.endswith("conex.phase1") for name in spans)
        assert any(name.endswith("conex.phase2") for name in spans)
        assert any("apex.evaluate" in name for name in spans)
        # Candidate evaluation routes through the batch evaluator, so
        # the simulation layer shows up as signature-group spans (a
        # plain ``sim.run`` span appears only on batch-ineligible runs).
        assert any(
            "sim.batch.group" in name or "sim.run" in name for name in spans
        )
        assert counters["exec.batch_groups"] >= 1
        assert counters["sim.batch.delta_pass_candidates"] >= 1
        assert counters["exec.jobs"] > 0
        assert "exec.cache_hits" in counters
        assert "exec.cache_misses" in counters
        assert "exec.deduplicated" in counters
        assert "runtime.retries" in counters
        assert "runtime.pool_rebuilds" in counters
        assert counters["conex.pareto_survivors"] >= 1
        # Serial run: the persistent runtime never dispatches, but its
        # stats still export through the unified report channel.
        assert payload["runtime"]["batches"] >= 0
        assert payload["settings"]["workers"] == 1
