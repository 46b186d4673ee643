"""Unit tests for the pluggable execution-backend layer.

Covers the :class:`~repro.exec.backend.ExecutionBackend` contract
(ordered results, bit-identity across implementations), the sharded
fault-tolerant dispatch, backend resolution from arguments, who closes a backend (``simulate_batch`` closes what
it resolves, never a caller's instance), the runtime's in-process
one-group rule, and the CPU-count pool cap.
"""

import os

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.config import WORKER_ADDRS_ENV
from repro.errors import ExecutionError
from repro.exec import (
    ExecutionRuntime,
    NullCache,
    PoolBackend,
    SerialBackend,
    ShardedBackend,
    SimulationCache,
    SimulationJob,
    resolve_backend,
    simulate_batch,
)
from repro.exec import net
from repro.exec.net import BackendUnavailable
from repro.exec.runtime import (
    _CAP_WARNED,
    effective_pool_workers,
    set_default_runtime,
)
from repro.exec.worker import WorkerServer

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
    def test_unset_applies_the_default_rule(self):
        assert isinstance(resolve_backend(None, workers=1), SerialBackend)
        with ExecutionRuntime(workers=2) as runtime:
            pooled = resolve_backend(None, workers=2, runtime=runtime)
            assert isinstance(pooled, PoolBackend)
            assert pooled.runtime is runtime

    def test_unset_workers_take_the_runtime_size(self):
        with ExecutionRuntime(workers=2) as runtime:
            pooled = resolve_backend(None, runtime=runtime)
            assert isinstance(pooled, PoolBackend)
            assert pooled.runtime is runtime
        with ExecutionRuntime(workers=1) as runtime:
            assert isinstance(
                resolve_backend(None, runtime=runtime), SerialBackend
            )

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


class TestEngineSelection:
    @pytest.fixture(autouse=True)
    def _isolate_default(self):
        previous = set_default_runtime(None)
        yield
        current = set_default_runtime(previous)
        if current is not None:
            current.close()

    def test_pool_backend_runs_on_the_explicit_runtime(
        self, tiny_trace, mem_library
    ):
        """``backend=PoolBackend(runtime)`` dispatches through that
        runtime, and never builds the process-wide default one."""
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=PoolBackend(runtime),
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
        with ExecutionRuntime(workers=2) as runtime:
            pooled = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=PoolBackend(runtime),
            )
        assert set_default_runtime(None) is None
        one_group = simulate_batch(
            tiny_trace, jobs[:1], workers=2, cache=NullCache()
        )
        assert serial.backend == "serial"
        assert one_group.backend == "pool"
        assert pooled.backend == "pool"

    def test_all_hit_batch_leaves_the_default_runtime_alone(
        self, tiny_trace, mem_library
    ):
        """A batch that dispatches nothing never builds the default
        runtime, even when its worker count would pick the pool."""
        jobs = _jobs(mem_library)
        cache = SimulationCache()
        warm = simulate_batch(tiny_trace, jobs, workers=1, cache=cache)
        report = simulate_batch(tiny_trace, jobs, workers=2, cache=cache)
        assert set_default_runtime(None) is None
        assert report.cache_hits == len(jobs)
        assert report.results == warm.results

    def test_held_backend_rejects_a_runtime_closed_since(
        self, tiny_trace, mem_library
    ):
        """Even an all-hit batch fails on a backend whose runtime was
        closed after it was built: the check precedes the cache."""
        jobs = _jobs(mem_library)
        cache = SimulationCache()
        simulate_batch(tiny_trace, jobs, workers=1, cache=cache)
        runtime = ExecutionRuntime(workers=2)
        backend = PoolBackend(runtime)
        runtime.close()
        with pytest.raises(ExecutionError, match="closed runtime"):
            simulate_batch(tiny_trace, jobs, cache=cache, backend=backend)

    def test_one_group_runs_in_process_on_the_runtime(
        self, tiny_trace, mem_library
    ):
        """A batch of one group never builds the pool or exports the
        trace, even on a backend handed an explicit runtime."""
        jobs = _jobs(mem_library)[:1]
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=PoolBackend(runtime),
            )
            assert runtime._pool is None
            assert not runtime._exports
        assert report.results == serial.results
        assert report.backend == "pool"
        assert report.workers == 2


@pytest.fixture
def remote_pair(monkeypatch):
    """Two loopback workers named by ``REPRO_WORKER_ADDRS``, plus every
    connection opened to them."""
    servers = [WorkerServer(), WorkerServer()]
    for server in servers:
        server.start()
    monkeypatch.setenv(
        WORKER_ADDRS_ENV, ",".join(server.address for server in servers)
    )
    opened = []
    connect = net.Connection.connect.__func__

    def recording_connect(cls, address, timeout=None):
        connection = connect(cls, address, timeout)
        opened.append(connection)
        return connection

    monkeypatch.setattr(
        net.Connection, "connect", classmethod(recording_connect)
    )
    yield opened
    for server in servers:
        server.stop()


def _is_closed(connection) -> bool:
    return connection._sock.fileno() == -1


class TestBackendOwnership:
    def test_backend_resolved_from_a_name_is_closed(
        self, remote_pair, tiny_trace, mem_library
    ):
        """``simulate_batch`` closes what it resolves: no connection to
        a remote worker outlives the batch that opened it."""
        report = simulate_batch(
            tiny_trace, _jobs(mem_library), cache=NullCache(),
            backend="remote",
        )
        assert report.backend == "sharded"
        assert len(remote_pair) == 2
        assert all(_is_closed(connection) for connection in remote_pair)

    def test_caller_instance_stays_open_across_batches(
        self, remote_pair, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        with resolve_backend("remote") as backend:
            for _ in range(2):
                simulate_batch(
                    tiny_trace, jobs, cache=NullCache(), backend=backend
                )
            assert len(remote_pair) == 2
            assert not any(_is_closed(c) for c in remote_pair)
        assert all(_is_closed(connection) for connection in remote_pair)


class TestWorkerCap:
    def test_cap_applies_above_cpu_count(self):
        cap = os.cpu_count() or 1
        _CAP_WARNED.discard(os.getpid())
        with pytest.warns(RuntimeWarning, match="capping the pool"):
            assert effective_pool_workers(cap + 3) == cap

    def test_warning_fires_once_per_process(self):
        cap = os.cpu_count() or 1
        _CAP_WARNED.discard(os.getpid())
        with pytest.warns(RuntimeWarning):
            effective_pool_workers(cap + 3)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert effective_pool_workers(cap + 3) == cap  # silent now

    def test_within_cap_untouched(self):
        assert effective_pool_workers(1) == 1

    def test_dispatch_semantics_keep_requested_workers(
        self, tiny_trace, mem_library
    ):
        """The cap sizes the pool, not the report's worker accounting."""
        report = simulate_batch(
            tiny_trace, _jobs(mem_library), workers=4, cache=NullCache()
        )
        assert report.workers == 4
