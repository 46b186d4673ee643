"""Tests for the persistent execution runtime (repro.exec.runtime).

Covers the shared-trace transport (export/attach roundtrips over every
transport), the runtime lifecycle (lazy pool, close idempotence,
closed-state errors, export memoization), dispatch equivalence (runtime
results bit-identical to serial), the process-wide default runtime's
grow-on-demand semantics, and the engine's batch accounting
(hits + misses + in-batch duplicates cover every job).
"""

import pickle

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.errors import ExplorationError
from repro.exec.cache import NullCache
from repro.exec.engine import SimulationJob, simulate_batch
from repro.exec.runtime import (
    ExecutionRuntime,
    default_runtime,
    set_default_runtime,
)
from repro.trace.events import TRACE_COLUMNS, Trace


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


class TestSharedTraceTransport:
    @pytest.mark.parametrize("transport", ["auto", "shm", "file"])
    def test_roundtrip_is_lossless(self, tiny_trace, transport):
        with tiny_trace.export_shared(transport=transport) as export:
            attached = Trace.attach_shared(export.handle)
            assert attached.name == tiny_trace.name
            assert len(attached) == len(tiny_trace)
            for column in TRACE_COLUMNS:
                assert (
                    getattr(attached, column) == getattr(tiny_trace, column)
                ).all()

    def test_fingerprint_adopted_without_rehash(self, tiny_trace):
        with tiny_trace.export_shared() as export:
            attached = Trace.attach_shared(export.handle)
            assert attached.fingerprint() == tiny_trace.fingerprint()

    def test_attached_columns_are_read_only(self, tiny_trace):
        with tiny_trace.export_shared() as export:
            attached = Trace.attach_shared(export.handle)
            with pytest.raises(ValueError):
                attached.addresses[0] = 1

    def test_handle_is_picklable(self, tiny_trace):
        with tiny_trace.export_shared() as export:
            handle = pickle.loads(pickle.dumps(export.handle))
            attached = Trace.attach_shared(handle)
            assert (attached.addresses == tiny_trace.addresses).all()

    def test_close_is_idempotent(self, tiny_trace):
        export = tiny_trace.export_shared()
        export.close()
        assert export.closed
        export.close()


class TestRuntimeLifecycle:
    def test_serial_runtime_stays_inert(self, tiny_trace, mem_library):
        with ExecutionRuntime(workers=1) as runtime:
            report = simulate_batch(
                tiny_trace, _jobs(mem_library), cache=NullCache(),
                backend=runtime,
            )
            assert len(report.results) == len(_PRESETS)
            assert runtime._pool is None
            assert not runtime._exports

    def test_closed_runtime_rejects_work(self, tiny_trace, mem_library):
        runtime = ExecutionRuntime(workers=2)
        runtime.close()
        assert runtime.closed
        with pytest.raises(ExplorationError):
            runtime.map_simulation_groups(tiny_trace, [_jobs(mem_library)])
        with pytest.raises(ExplorationError):
            runtime.share_trace(tiny_trace)

    def test_close_is_idempotent(self):
        runtime = ExecutionRuntime(workers=2)
        runtime.close()
        runtime.close()
        assert runtime.closed

    def test_share_trace_memoizes_per_fingerprint(self, tiny_trace):
        with ExecutionRuntime(workers=2) as runtime:
            first = runtime.share_trace(tiny_trace)
            second = runtime.share_trace(tiny_trace)
            assert first is second
            assert len(runtime._exports) == 1

    def test_pool_survives_across_batches(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        with ExecutionRuntime(workers=2) as runtime:
            simulate_batch(
                tiny_trace, jobs[:2], cache=NullCache(), backend=runtime
            )
            pool = runtime._pool
            assert pool is not None
            simulate_batch(
                tiny_trace, jobs[2:], cache=NullCache(), backend=runtime
            )
            assert runtime._pool is pool


class TestRuntimeDispatchEquivalence:
    def test_runtime_matches_serial_bit_identically(
        self, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        with ExecutionRuntime(workers=2) as runtime:
            pooled = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=runtime,
            )
        assert pooled.workers == 2
        assert serial.results == pooled.results

    def test_repeated_batches_reuse_one_export(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        with ExecutionRuntime(workers=2) as runtime:
            first = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=runtime,
            )
            second = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=runtime,
            )
            assert len(runtime._exports) == 1
        assert first.results == second.results


class TestDefaultRuntime:
    @pytest.fixture(autouse=True)
    def _isolate_default(self):
        previous = set_default_runtime(None)
        yield
        current = set_default_runtime(previous)
        if current is not None:
            current.close()

    def test_grows_on_demand_and_reuses_when_smaller(self):
        small = default_runtime(1)
        assert default_runtime(1) is small
        bigger = default_runtime(3)
        assert bigger is not small
        assert small.closed
        assert bigger.workers == 3
        assert default_runtime(2) is bigger

    def test_closed_default_is_replaced(self):
        first = default_runtime(2)
        first.close()
        second = default_runtime(2)
        assert second is not first
        assert not second.closed


class TestEstimateAccounting:
    def test_simulation_reports_keep_the_invariant(
        self, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        report = simulate_batch(tiny_trace, jobs, cache=NullCache())
        assert (
            report.cache_hits + report.cache_misses + report.deduplicated
            == len(report.results)
        )
