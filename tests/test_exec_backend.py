"""Unit tests for the pluggable execution-backend layer.

Covers the :class:`~repro.exec.backend.ExecutionBackend` contract
(ordered results, bit-identity across implementations), the sharded
fault-tolerant dispatch, backend resolution from arguments and
``REPRO_BACKEND``, and the CPU-count pool cap.
"""

import os

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.config import BACKEND_ENV, WORKER_ADDRS_ENV, WORKERS_CAP_ENV
from repro.errors import ExecutionError
from repro.exec import (
    ExecutionRuntime,
    NullCache,
    PoolBackend,
    SerialBackend,
    ShardedBackend,
    SimulationJob,
    resolve_backend,
    simulate_batch,
)
from repro.exec.net import BackendUnavailable
from repro.exec.runtime import (
    _CAP_WARNED,
    effective_pool_workers,
    set_default_runtime,
)

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


class FlakyBackend(SerialBackend):
    """Dies with BackendUnavailable on its first N dispatches."""

    name = "flaky"

    def __init__(self, failures: int = 1) -> None:
        self.failures = failures
        self.calls = 0

    def _maybe_fail(self) -> None:
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendUnavailable("injected shard death")

    def run_groups(self, trace, groups):
        self._maybe_fail()
        return super().run_groups(trace, groups)


class TestBackendEquivalence:
    def test_serial_backend_matches_engine(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=SerialBackend()
        )
        assert report.results == reference.results
        assert report.backend == "serial"
        assert report.bytes_sent == 0 and report.bytes_received == 0

    def test_serial_backend_groups_match(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=SerialBackend()
        )
        assert report.results == reference.results
        assert report.batch_groups == reference.batch_groups

    def test_pool_backend_matches_serial(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace,
                jobs,
                cache=NullCache(),
                backend=PoolBackend(runtime=runtime),
            )
        assert report.results == reference.results
        assert report.backend == "pool"

    def test_sharded_merge_is_bit_identical(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        sharded = ShardedBackend([SerialBackend(), SerialBackend()])
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=sharded
        )
        assert report.results == reference.results
        assert report.backend == "sharded"
        assert report.retries == 0 and not report.degraded


class TestShardedFaults:
    def test_dead_shard_redispatches_to_survivor(
        self, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        sharded = ShardedBackend([SerialBackend(), FlakyBackend(failures=9)])
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=sharded
        )
        assert report.results == reference.results
        assert report.retries == 1
        assert not report.degraded
        assert sharded._alive == [True, False]

    def test_all_shards_dead_degrades_to_fallback(
        self, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        sharded = ShardedBackend(
            [FlakyBackend(failures=9), FlakyBackend(failures=9)]
        )
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=sharded
        )
        assert report.results == reference.results
        assert report.degraded

    def test_retry_budget_degrades(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        flaky = FlakyBackend(failures=9)
        sharded = ShardedBackend([flaky], max_retries=0)
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend=sharded
        )
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        assert report.results == reference.results
        assert report.degraded

    def test_job_errors_are_not_faults(self, tiny_trace, mem_library):
        class BrokenJobBackend(SerialBackend):
            def run_groups(self, trace, groups):
                raise ValueError("job blew up")

        sharded = ShardedBackend([BrokenJobBackend(), SerialBackend()])
        with pytest.raises(ValueError, match="job blew up"):
            sharded.run_groups(tiny_trace, [_jobs(mem_library)])

    def test_needs_at_least_one_backend(self):
        with pytest.raises(ExecutionError):
            ShardedBackend([])


class TestResolveBackend:
    def test_unset_applies_the_default_rule(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)
        assert isinstance(
            resolve_backend(None, workers=2, units=1), SerialBackend
        )
        with ExecutionRuntime(workers=2) as runtime:
            pooled = resolve_backend(
                None, workers=2, runtime=runtime, units=3
            )
            assert isinstance(pooled, PoolBackend)
            assert pooled.runtime is runtime

    def test_pool_name_honours_an_explicit_runtime(self):
        with ExecutionRuntime(workers=2) as runtime:
            backend = resolve_backend("pool", workers=4, runtime=runtime)
            assert backend.runtime is runtime
            backend.close()  # borrowed: closing the backend keeps it open
            assert not runtime.closed

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("pool", workers=1), PoolBackend)

    def test_instance_passes_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutionError, match="unknown backend"):
            resolve_backend("quantum")

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "serial")
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_remote_requires_addresses(self, monkeypatch):
        monkeypatch.delenv(WORKER_ADDRS_ENV, raising=False)
        with pytest.raises(ExecutionError, match=WORKER_ADDRS_ENV):
            resolve_backend("remote")

    def test_remote_builds_sharded(self, monkeypatch):
        monkeypatch.setenv(
            WORKER_ADDRS_ENV, "127.0.0.1:1, 127.0.0.1:2"
        )
        backend = resolve_backend("remote")
        assert isinstance(backend, ShardedBackend)
        assert [b.address for b in backend.backends] == [
            "127.0.0.1:1",
            "127.0.0.1:2",
        ]

    def test_bad_env_name_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "bogus")
        with pytest.raises(ExecutionError):
            resolve_backend(None)


class TestEngineSelection:
    @pytest.fixture(autouse=True)
    def _isolate_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        previous = set_default_runtime(None)
        yield
        current = set_default_runtime(previous)
        if current is not None:
            current.close()

    def test_pool_backend_runs_on_the_explicit_runtime(
        self, tiny_trace, mem_library
    ):
        """``backend="pool"`` with ``runtime=`` dispatches through that
        runtime, and never builds the process-wide default one."""
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(), runtime=runtime,
                backend="pool",
            )
            assert runtime.stats.batches == 1
        assert set_default_runtime(None) is None
        assert report.results == reference.results
        assert report.backend == "pool"

    def test_report_names_the_backend_that_ran(
        self, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        one_group = simulate_batch(
            tiny_trace, jobs[:1], workers=2, cache=NullCache()
        )
        with ExecutionRuntime(workers=2) as runtime:
            pooled = simulate_batch(
                tiny_trace, jobs, cache=NullCache(), runtime=runtime
            )
        assert serial.backend == "serial"
        assert one_group.backend == "serial"
        assert pooled.backend == "pool"
        assert set_default_runtime(None) is None


class TestWorkerCap:
    def test_cap_applies_above_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_CAP_ENV, raising=False)
        cap = os.cpu_count() or 1
        _CAP_WARNED.discard(os.getpid())
        with pytest.warns(RuntimeWarning, match="capping the pool"):
            assert effective_pool_workers(cap + 3) == cap

    def test_warning_fires_once_per_process(self, monkeypatch):
        monkeypatch.delenv(WORKERS_CAP_ENV, raising=False)
        cap = os.cpu_count() or 1
        _CAP_WARNED.discard(os.getpid())
        with pytest.warns(RuntimeWarning):
            effective_pool_workers(cap + 3)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert effective_pool_workers(cap + 3) == cap  # silent now

    def test_within_cap_untouched(self, monkeypatch):
        monkeypatch.delenv(WORKERS_CAP_ENV, raising=False)
        assert effective_pool_workers(1) == 1

    def test_opt_out(self, monkeypatch):
        monkeypatch.setenv(WORKERS_CAP_ENV, "0")
        cap = os.cpu_count() or 1
        assert effective_pool_workers(cap + 3) == cap + 3

    def test_dispatch_semantics_keep_requested_workers(
        self, monkeypatch, tiny_trace, mem_library
    ):
        """The cap sizes the pool, not the report's worker accounting."""
        monkeypatch.delenv(WORKERS_CAP_ENV, raising=False)
        report = simulate_batch(
            tiny_trace, _jobs(mem_library), workers=4, cache=NullCache()
        )
        assert report.workers == 4
