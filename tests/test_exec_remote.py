"""Integration tests for socket workers, the remote backend, and the
networked cache layer — everything here runs over real loopback
sockets against in-process :class:`~repro.exec.worker.WorkerServer`
instances.
"""

import os
import subprocess
import sys

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.errors import ExecutionError
from repro.exec import (
    NullCache,
    RemoteBackend,
    SerialBackend,
    ShardedBackend,
    SimulationCache,
    SimulationJob,
    simulate_batch,
)
from repro.exec import net
from repro.exec.cache import (
    KERNEL_PLAN_VERSION,
    CacheClient,
    _NET_FAULT_LIMIT,
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


@pytest.fixture
def worker():
    server = WorkerServer()
    server.start()
    yield server
    server.stop()


@pytest.fixture
def worker_pair():
    servers = [WorkerServer(), WorkerServer()]
    for server in servers:
        server.start()
    yield servers
    for server in servers:
        server.stop()


class TestWireProtocol:
    def test_trace_roundtrip(self, tiny_trace):
        rebuilt = net.decode_trace(net.encode_trace(tiny_trace))
        assert rebuilt.fingerprint() == tiny_trace.fingerprint()
        assert rebuilt.name == tiny_trace.name
        assert rebuilt.structs == tiny_trace.structs

    def test_parse_address(self):
        assert net.parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
        with pytest.raises(ExecutionError):
            net.parse_address("no-port")
        with pytest.raises(ExecutionError):
            net.parse_address("host:notaport")

    def test_ping(self, worker):
        backend = RemoteBackend(worker.address)
        assert backend.ping()
        backend.close()

    def test_hello_rejects_version_skew(self, worker):
        with net.Connection.connect(worker.address) as conn:
            with pytest.raises(ExecutionError, match="version skew"):
                conn.request_pickled(
                    net.MSG_HELLO,
                    {
                        "protocol": net.PROTOCOL_VERSION,
                        "kernel_plan_version": KERNEL_PLAN_VERSION + 1,
                    },
                )

    def test_connect_refused_is_backend_unavailable(self):
        dead = WorkerServer()
        dead.stop()  # bound then closed: nothing listens here now
        with pytest.raises(net.BackendUnavailable):
            net.Connection.connect(dead.address)


class TestRemoteBackend:
    def test_simulations_match_serial(self, worker, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        serial = SerialBackend().run_simulations(tiny_trace, jobs)
        with RemoteBackend(worker.address) as backend:
            remote = backend.run_simulations(tiny_trace, jobs)
            assert remote == serial
            assert backend.bytes_sent > 0
            assert backend.bytes_received > 0

    def test_groups_match_serial(self, worker, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        groups = [jobs[:2], jobs[2:]]
        serial = SerialBackend().run_groups(tiny_trace, groups)
        with RemoteBackend(worker.address) as backend:
            assert backend.run_groups(tiny_trace, groups) == serial

    def test_trace_ships_once_per_worker(
        self, worker, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        trace_bytes = len(net.encode_trace(tiny_trace))
        with RemoteBackend(worker.address) as backend:
            backend.run_simulations(tiny_trace, jobs)
            after_first = backend.bytes_sent
            assert after_first > trace_bytes  # push happened
            backend.run_simulations(tiny_trace, jobs)
            second_run = backend.bytes_sent - after_first
            # The second dispatch references the fingerprint alone: no
            # re-push, not even a TRACE_QUERY round trip.
            assert second_run < trace_bytes

    def test_engine_report_carries_traffic(
        self, worker, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        with RemoteBackend(worker.address) as backend:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(), backend=backend
            )
        assert report.results == reference.results
        assert report.backend == "remote"
        assert report.bytes_sent > 0 and report.bytes_received > 0

    def test_job_error_propagates_not_fault(self, worker, tiny_trace):
        bad = SimulationJob(memory=None)  # simulate() will blow up remotely
        with RemoteBackend(worker.address) as backend:
            with pytest.raises(ExecutionError, match="remote worker error"):
                backend.run_simulations(tiny_trace, [bad])
            # The worker survived the failed request.
            assert backend.ping()


class TestShardedRemote:
    def test_two_workers_bit_identical(
        self, worker_pair, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        backend = ShardedBackend(
            [RemoteBackend(server.address) for server in worker_pair]
        )
        with backend:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(), backend=backend
            )
        assert report.results == reference.results
        assert report.backend == "sharded"
        assert all(server.requests_served > 0 for server in worker_pair)

    def test_kill_one_worker_redispatches(
        self, worker_pair, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        backend = ShardedBackend(
            [RemoteBackend(server.address) for server in worker_pair]
        )
        worker_pair[1].stop()  # dies before the batch is dispatched
        with backend:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(), backend=backend
            )
        assert report.results == reference.results
        assert report.retries == 1
        assert not report.degraded
        assert backend._alive == [True, False]

    def test_all_workers_dead_degrades_locally(
        self, tiny_trace, mem_library
    ):
        dead = WorkerServer()
        dead.stop()
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        backend = ShardedBackend([RemoteBackend(dead.address)])
        with backend:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(), backend=backend
            )
        assert report.results == reference.results
        assert report.degraded


class TestNetworkedCache:
    def test_cache_client_roundtrip(self, worker):
        client = CacheClient(worker.address)
        assert client.get("deadbeef") is None
        client.put("deadbeef", b"payload")
        assert client.get("deadbeef") == b"payload"
        client.close()

    def test_cache_client_peer_death_is_soft(self):
        dead = WorkerServer()
        dead.stop()
        client = CacheClient(dead.address, timeout=0.5)
        for _ in range(_NET_FAULT_LIMIT):
            assert client.get("digest") is None
        assert client.dead
        # Further traffic short-circuits without touching the socket.
        assert client.get("digest") is None
        client.put("digest", b"x")
        client.close()

    def test_worker_persists_blobs_to_cache_dir(self, tmp_path):
        first = WorkerServer(cache_dir=tmp_path)
        first.start()
        client = CacheClient(first.address)
        client.put("feedface", b"persisted")
        client.close()
        first.stop()
        second = WorkerServer(cache_dir=tmp_path)
        second.start()
        try:
            client = CacheClient(second.address)
            assert client.get("feedface") == b"persisted"
            client.close()
        finally:
            second.stop()

    def test_peers_share_results_through_worker(
        self, worker, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        publisher = SimulationCache(url=worker.address)
        baseline = simulate_batch(tiny_trace, jobs, cache=publisher)
        publisher.close()
        subscriber = SimulationCache(url=worker.address)
        report = simulate_batch(tiny_trace, jobs, cache=subscriber)
        subscriber.close()
        assert report.results == baseline.results
        assert subscriber.net_hits == len(jobs)
        assert subscriber.misses == 0
        assert report.cache_net_hits == len(jobs)

    def test_dead_cache_peer_falls_back_to_simulation(
        self, tiny_trace, mem_library
    ):
        dead = WorkerServer()
        dead.stop()
        jobs = _jobs(mem_library)
        reference = simulate_batch(tiny_trace, jobs, cache=NullCache())
        cache = SimulationCache(url=dead.address)
        cache._client.timeout = 0.5
        report = simulate_batch(tiny_trace, jobs, cache=cache)
        cache.close()
        assert report.results == reference.results
        assert cache.net_hits == 0

    def test_version_skewed_peer_is_a_miss(
        self, worker, tiny_trace, mem_library, monkeypatch
    ):
        """A peer that refuses the handshake is written off: lookups
        miss, the batch simulates locally, and no socket leaks."""
        import gc
        import warnings

        from repro.exec import worker as worker_module

        monkeypatch.setattr(
            worker_module, "KERNEL_PLAN_VERSION", KERNEL_PLAN_VERSION + 1
        )
        jobs = _jobs(mem_library)
        reference = simulate_batch(tiny_trace, jobs, cache=NullCache())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            cache = SimulationCache(url=worker.address)
            report = simulate_batch(tiny_trace, jobs, cache=cache)
            assert cache._client.dead
            cache.close()
            del cache
            gc.collect()
        assert report.results == reference.results
        assert report.cache_net_hits == 0
        leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaked, [str(w.message) for w in leaked]


class TestWorkerCli:
    def test_worker_subcommand_serves(self):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("listening on ")
            address = line.removeprefix("listening on ")
            backend = RemoteBackend(address, timeout=10.0)
            assert backend.ping()
            backend.close()
        finally:
            process.terminate()
            process.wait(timeout=10)
