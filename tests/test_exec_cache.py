"""Unit tests for the content-addressed simulation result cache."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.config import CACHE_MAX_MB_ENV
from repro.exec.cache import (
    CACHE_DIR_ENV,
    NULL_CACHE,
    NullCache,
    SimulationCache,
    default_cache,
    key_digest,
    sampling_signature,
    set_default_cache,
    simulation_key,
)
from repro.exec.engine import SimulationJob, simulate_batch
from repro.sim.metrics import SimulationResult
from repro.sim.sampling import SamplingConfig


def _arch(mem_library, preset: str, name: str) -> MemoryArchitecture:
    cache = mem_library.get(preset).instantiate("cache")
    dram = mem_library.get("dram").instantiate()
    return MemoryArchitecture(name, [cache], dram, {}, "cache")


def _result(label: str = "r") -> SimulationResult:
    return SimulationResult(
        trace_name="t",
        memory_name=label,
        connectivity_name="c",
        accesses=1,
        sampled_accesses=1,
        avg_latency=1.0,
        total_cycles=1,
        avg_energy_nj=1.0,
        total_energy_nj=1.0,
        miss_ratio=0.0,
        cost_gates=1.0,
        memory_cost_gates=1.0,
        connectivity_cost_gates=0.0,
    )


class TestSimulationKey:
    def test_key_is_stable_across_instances(self, tiny_trace, mem_library):
        a = _arch(mem_library, "cache_8k_32b_2w", "one")
        b = _arch(mem_library, "cache_8k_32b_2w", "one")
        assert simulation_key(tiny_trace, a, None) == simulation_key(
            tiny_trace, b, None
        )

    def test_architecture_name_excluded(self, tiny_trace, mem_library):
        """Content addressing: identical configs share a key, names apart."""
        a = _arch(mem_library, "cache_8k_32b_2w", "alpha")
        b = _arch(mem_library, "cache_8k_32b_2w", "beta")
        assert simulation_key(tiny_trace, a, None) == simulation_key(
            tiny_trace, b, None
        )

    def test_module_config_changes_key(self, tiny_trace, mem_library):
        a = _arch(mem_library, "cache_8k_32b_2w", "m")
        b = _arch(mem_library, "cache_16k_32b_2w", "m")
        assert simulation_key(tiny_trace, a, None) != simulation_key(
            tiny_trace, b, None
        )

    def test_sampling_and_posted_writes_change_key(
        self, tiny_trace, mem_library
    ):
        arch = _arch(mem_library, "cache_8k_32b_2w", "m")
        plain = simulation_key(tiny_trace, arch, None)
        sampled = simulation_key(
            tiny_trace, arch, None,
            sampling=SamplingConfig(on_window=1024, off_ratio=3),
        )
        posted = simulation_key(
            tiny_trace, arch, None, posted_writes=True
        )
        assert len({plain, sampled, posted}) == 3

    def test_connectivity_changes_key(
        self, tiny_trace, cache_architecture, cache_connectivity
    ):
        ideal = simulation_key(tiny_trace, cache_architecture, None)
        wired = simulation_key(
            tiny_trace, cache_architecture, cache_connectivity
        )
        assert ideal != wired

    def test_simulation_does_not_perturb_key(
        self, tiny_trace, cache_architecture
    ):
        """Mutable module counters must stay out of the signature."""
        from repro.sim import simulate

        before = simulation_key(tiny_trace, cache_architecture, None)
        simulate(tiny_trace, cache_architecture)
        after = simulation_key(tiny_trace, cache_architecture, None)
        assert before == after

    def test_key_is_picklable_and_digestible(self, tiny_trace, mem_library):
        key = simulation_key(
            tiny_trace, _arch(mem_library, "cache_8k_32b_2w", "m"), None
        )
        assert pickle.loads(pickle.dumps(key)) == key
        digest = key_digest(key)
        assert len(digest) == 64
        assert digest == key_digest(key)

    def test_sampling_signature_none(self):
        assert sampling_signature(None) is None


class TestSimulationCacheMemory:
    def test_miss_then_hit(self):
        cache = SimulationCache()
        key = ("k",)
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, _result())
        assert cache.get(key) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1
        assert key in cache

    def test_clear_resets_everything(self):
        cache = SimulationCache()
        cache.put(("k",), _result())
        cache.get(("k",))
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_repr_mentions_counts(self):
        cache = SimulationCache()
        cache.put(("k",), _result())
        assert "1 entries" in repr(cache)


class TestSimulationCacheDisk:
    def test_results_persist_across_instances(self, tmp_path):
        key = ("shared",)
        writer = SimulationCache(tmp_path)
        writer.put(key, _result("persisted"))
        reader = SimulationCache(tmp_path)
        found = reader.get(key)
        assert found is not None
        assert found.memory_name == "persisted"
        assert (reader.hits, reader.misses) == (1, 0)

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b"", b"\x80\x05"],
        ids=["text", "int-opcode", "empty", "truncated-frame"],
    )
    def test_corrupt_file_is_a_miss(self, tmp_path, garbage):
        key = ("torn",)
        cache = SimulationCache(tmp_path)
        cache.put(key, _result())
        path = cache._disk_path(key)
        path.write_bytes(garbage)
        fresh = SimulationCache(tmp_path)
        assert fresh.get(key) is None
        # The corrupt file is evicted so it cannot shadow a later put
        # or cost a doomed read on every future lookup.
        assert not path.exists()

    def test_clear_removes_files(self, tmp_path):
        cache = SimulationCache(tmp_path)
        cache.put(("k",), _result())
        assert list(tmp_path.glob("*.simres.pkl"))
        cache.clear()
        assert not list(tmp_path.glob("*.simres.pkl"))

    def test_contains_consults_disk(self, tmp_path):
        SimulationCache(tmp_path).put(("k",), _result())
        assert ("k",) in SimulationCache(tmp_path)


class TestLayerCounters:
    def test_memory_and_disk_hits_attributed(self, tmp_path):
        key = ("layered",)
        SimulationCache(tmp_path).put(key, _result())
        cache = SimulationCache(tmp_path)
        assert cache.get(key) is not None  # served from disk
        assert cache.get(key) is not None  # read-through: now in memory
        assert (cache.disk_hits, cache.memory_hits) == (1, 1)
        assert cache.layer_counts() == {
            "memory_hits": 1,
            "disk_hits": 1,
            "hits": 2,
            "misses": 0,
        }

    def test_clear_resets_layer_counters(self, tmp_path):
        key = ("layered",)
        SimulationCache(tmp_path).put(key, _result())
        cache = SimulationCache(tmp_path)
        cache.get(key)
        cache.get(("absent",))
        cache.clear()
        assert cache.layer_counts() == {
            "memory_hits": 0,
            "disk_hits": 0,
            "hits": 0,
            "misses": 0,
        }

    def test_engine_report_surfaces_disk_hits(
        self, tmp_path, tiny_trace, mem_library
    ):
        jobs = [
            SimulationJob(memory=_arch(mem_library, preset, f"m{i}"))
            for i, preset in enumerate(
                ("cache_4k_16b_1w", "cache_8k_32b_1w", "cache_8k_32b_2w")
            )
        ]
        simulate_batch(tiny_trace, jobs, cache=SimulationCache(tmp_path))
        cold = SimulationCache(tmp_path)
        report = simulate_batch(tiny_trace, jobs, cache=cold)
        assert report.cache_disk_hits == len(jobs)
        assert report.cache_memory_hits == 0
        assert cold.misses == 0


class TestDiskCap:
    def _entry_size(self, tmp_path) -> int:
        probe = SimulationCache(tmp_path / "probe")
        probe.put(("probe",), _result())
        (path,) = (tmp_path / "probe").glob("*.simres.pkl")
        return path.stat().st_size

    def test_oldest_entries_evicted_first(self, tmp_path):
        size = self._entry_size(tmp_path)
        store = tmp_path / "store"
        uncapped = SimulationCache(store)
        for i in range(3):
            uncapped.put((f"k{i}",), _result(f"r{i}"))
        now = 1_000_000_000
        for i in range(3):  # k0 oldest, k2 newest
            os.utime(uncapped._disk_path((f"k{i}",)), (now + i, now + i))
        capped = SimulationCache(store, max_mb=(3.5 * size) / (1024 * 1024))
        capped.put(("k3",), _result("r3"))
        assert not uncapped._disk_path(("k0",)).exists()
        for name in ("k1", "k2", "k3"):
            assert capped._disk_path((name,)).exists()

    def test_reads_refresh_lru_position(self, tmp_path):
        size = self._entry_size(tmp_path)
        store = tmp_path / "store"
        uncapped = SimulationCache(store)
        for i in range(3):
            uncapped.put((f"k{i}",), _result(f"r{i}"))
        now = 1_000_000_000
        for i in range(3):
            os.utime(uncapped._disk_path((f"k{i}",)), (now + i, now + i))
        # A fresh instance reads k0 from disk, touching its mtime: k1
        # becomes the eviction candidate despite k0's older write.
        reader = SimulationCache(store)
        assert reader.get(("k0",)) is not None
        capped = SimulationCache(store, max_mb=(3.5 * size) / (1024 * 1024))
        capped.put(("k3",), _result("r3"))
        assert capped._disk_path(("k0",)).exists()
        assert not capped._disk_path(("k1",)).exists()

    def test_no_cap_means_no_eviction(self, tmp_path):
        cache = SimulationCache(tmp_path)
        for i in range(8):
            cache.put((f"k{i}",), _result(f"r{i}"))
        assert len(list(tmp_path.glob("*.simres.pkl"))) == 8


_CONTENTION_SCRIPT = """
import pathlib, sys

from repro.exec.cache import SimulationCache
from repro.sim.metrics import SimulationResult

directory = pathlib.Path(sys.argv[1])
tag = sys.argv[2]

def result(label):
    return SimulationResult(
        trace_name="t", memory_name=label, connectivity_name="c",
        accesses=1, sampled_accesses=1, avg_latency=1.0, total_cycles=1,
        avg_energy_nj=1.0, total_energy_nj=1.0, miss_ratio=0.0,
        cost_gates=1.0, memory_cost_gates=1.0, connectivity_cost_gates=0.0,
    )

cache = SimulationCache(directory, max_mb=0.01)
for round_number in range(60):
    for i in range(6):
        key = ("contend", i)
        cache.put(key, result(f"{tag}-{round_number}-{i}"))
        cache._memory.clear()  # force every read through the disk layer
        found = cache.get(key)
        assert found is None or found.memory_name.rsplit("-", 2)[0] in (
            "parent", "child"
        )
    if round_number % 7 == 0:
        # Plant a torn file: readers in either process must treat it
        # as a miss and evict it, never raise.
        victim = cache._disk_path(("contend", round_number % 6))
        try:
            victim.write_bytes(b"torn garbage")
        except OSError:
            pass
print("contention-ok", flush=True)
"""


class TestConcurrentDiskAccess:
    def test_two_processes_share_one_directory(self, tmp_path):
        """Atomic write-rename and corrupt-entry eviction under contention.

        A child process and this one hammer the same six keys in one
        shared cache directory — interleaved puts, forced disk reads,
        LRU eviction from a tiny cap, and periodically planted corrupt
        files. Success means neither process ever crashes and no
        temporary files leak.
        """
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.Popen(
            [sys.executable, "-c", _CONTENTION_SCRIPT, str(tmp_path), "child"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        parent = subprocess.run(
            [sys.executable, "-c", _CONTENTION_SCRIPT, str(tmp_path), "parent"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        child_out, _ = child.communicate(timeout=120)
        assert parent.returncode == 0, parent.stdout + parent.stderr
        assert child.returncode == 0, child_out
        assert "contention-ok" in parent.stdout
        assert "contention-ok" in child_out
        # os.replace never leaves half-written files behind.
        assert not list(tmp_path.glob("*.tmp*"))
        # Whatever survived the contention decodes cleanly.
        survivor_cache = SimulationCache(tmp_path)
        for i in range(6):
            survivor_cache.get(("contend", i))  # must not raise


class TestFailedDiskWrites:
    """A disk layer that cannot be written never fails a finished batch."""

    @pytest.fixture
    def obs_on(self):
        from repro import obs

        was_enabled = obs.enabled()
        obs.reset()
        obs.enable()
        yield obs
        if not was_enabled:
            obs.disable()
        obs.reset()

    def _jobs(self, mem_library):
        return [
            SimulationJob(memory=_arch(mem_library, preset, f"m{i}"))
            for i, preset in enumerate(("cache_4k_16b_1w", "cache_8k_32b_2w"))
        ]

    def test_directory_that_is_a_file(self, tmp_path, tiny_trace, mem_library):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        jobs = self._jobs(mem_library)
        reference = simulate_batch(tiny_trace, jobs, cache=NullCache())
        cache = SimulationCache(directory=blocker)
        report = simulate_batch(tiny_trace, jobs, cache=cache)
        assert report.results == reference.results
        assert report.cache_misses == len(jobs)
        # The memory layer still serves the next lookup.
        again = simulate_batch(tiny_trace, jobs, cache=cache)
        assert again.cache_hits == len(jobs)

    def test_failed_replace_removes_its_temp_file(
        self, tmp_path, tiny_trace, mem_library, obs_on
    ):
        jobs = self._jobs(mem_library)
        reference = simulate_batch(tiny_trace, jobs, cache=NullCache())
        for job in jobs:
            # A directory squatting on the entry's name makes the final
            # os.replace fail after the temp file was written.
            key = simulation_key(tiny_trace, job.memory, None)
            (tmp_path / f"{key_digest(key)}.simres.pkl").mkdir()
        report = simulate_batch(
            tiny_trace, jobs, cache=SimulationCache(directory=tmp_path)
        )
        assert report.results == reference.results
        assert not list(tmp_path.glob("*.tmp*"))
        assert obs_on.snapshot().counters["cache.write_errors"] == len(jobs)


class TestNullCache:
    def test_never_stores(self):
        cache = NullCache()
        cache.put(("k",), _result())
        assert cache.get(("k",)) is None
        assert ("k",) not in cache
        assert len(cache) == 0

    def test_shared_instance_is_null(self):
        assert isinstance(NULL_CACHE, NullCache)


class TestDefaultCache:
    @pytest.fixture(autouse=True)
    def _isolate_default(self):
        set_default_cache(None)
        yield
        set_default_cache(None)

    def test_lazy_singleton(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        first = default_cache()
        assert first is default_cache()
        assert first.directory is None

    def test_env_enables_disk_layer(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        assert default_cache().directory == tmp_path / "cache"

    def test_set_default_cache(self):
        mine = SimulationCache()
        set_default_cache(mine)
        assert default_cache() is mine

    def test_env_configures_the_disk_cap(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(CACHE_MAX_MB_ENV, "5")
        cache = default_cache()
        assert cache.max_mb == 5.0
