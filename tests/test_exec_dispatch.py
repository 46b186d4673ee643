"""The dispatch policy: a per-job timeout budget, a jobs count that
means the same in process and on the pool, and job errors that are not
faults.

A pool chunk carries whole memory-signature groups, and its timeout
budget is ``job_timeout`` × the *jobs* inside them. These tests slow
every job down by a fixed sleep so the budget is checked by margins of
at least 4× either way: the per-job timeout is 5× one job, and a chunk
carries 20 jobs, 4× the per-job timeout.
"""

import threading
import time

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.exec import ExecutionRuntime, SimulationJob
from repro.exec.runtime import run_in_process
from repro.sim import batch as sim_batch

#: Seconds every job sleeps, and the per-job timeout (5× a job).
PER_JOB = 0.04
JOB_TIMEOUT = 5 * PER_JOB


def _arch(mem_library, preset: str, name: str) -> MemoryArchitecture:
    cache = mem_library.get(preset).instantiate("cache")
    dram = mem_library.get("dram").instantiate()
    return MemoryArchitecture(name, [cache], dram, {}, "cache")


def _groups(mem_library, sizes) -> list[tuple[SimulationJob, ...]]:
    """One same-signature group per size, each a repeated job."""
    presets = ("cache_4k_16b_1w", "cache_8k_32b_1w", "cache_16k_32b_2w")
    return [
        (SimulationJob(memory=_arch(mem_library, preset, f"m{i}")),) * size
        for i, (preset, size) in enumerate(zip(presets, sizes))
    ]


@pytest.fixture
def slow_jobs(monkeypatch):
    """Call to make every evaluated job sleep :data:`PER_JOB` first.

    Returns the list of threads that evaluate groups from then on. Pool
    workers forked afterwards inherit the patch.
    """

    def install() -> list[threading.Thread]:
        original = sim_batch.evaluate_group
        threads: list[threading.Thread] = []

        def slow(trace, jobs, plan=None):
            threads.append(threading.current_thread())
            time.sleep(PER_JOB * len(jobs))
            return original(trace, jobs, plan)

        monkeypatch.setattr(sim_batch, "evaluate_group", slow)
        return threads

    return install


class TestJobBudget:
    def test_pool_budget_counts_jobs_not_groups(
        self, tiny_trace, mem_library, slow_jobs
    ):
        """Three groups of 20 jobs: each chunk holds a group that takes
        4× the per-job timeout, and must still finish undisturbed."""
        groups = _groups(mem_library, (20, 20, 20))
        reference = run_in_process(tiny_trace, groups)
        slow_jobs()
        with ExecutionRuntime(workers=2, job_timeout=JOB_TIMEOUT) as runtime:
            results = runtime.map_simulation_groups(tiny_trace, groups)
            dispatch = runtime.last_dispatch
        assert results == reference
        assert dispatch.timeouts == 0
        assert dispatch.pool_rebuilds == 0
        assert dispatch.retries == 0
        assert not dispatch.degraded


class TestJobsCount:
    """``DispatchStats.jobs`` counts jobs, in process or on the pool."""

    def test_every_backend_counts_jobs(self, tiny_trace, mem_library):
        groups = _groups(mem_library, (3, 2))
        for workers in (1, 2):
            with ExecutionRuntime(workers=workers) as runtime:
                runtime.map_simulation_groups(tiny_trace, groups)
                assert runtime.last_dispatch.jobs == 5, workers
        assert runtime.stats.jobs == 5


class TestJobErrors:
    def test_job_errors_are_not_faults(
        self, tiny_trace, mem_library, monkeypatch
    ):
        """A job that raises fails its batch with that error: the pool
        is neither rebuilt nor retried, and the runtime stays usable.
        Pool workers forked after the patch inherit it."""

        def broken(trace, jobs, plan=None):
            raise ValueError("job blew up")

        monkeypatch.setattr(sim_batch, "evaluate_group", broken)
        groups = _groups(mem_library, (2, 2))
        with ExecutionRuntime(workers=2) as runtime:
            with pytest.raises(ValueError, match="job blew up"):
                runtime.map_simulation_groups(tiny_trace, groups)
            assert runtime._pool is not None
            assert runtime.stats.pool_rebuilds == 0
            assert runtime.stats.retries == 0
            assert runtime.healthy
