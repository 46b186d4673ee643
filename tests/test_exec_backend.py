"""Where a batch runs: the ``backend=`` argument.

A batch runs either in process or on an
:class:`~repro.exec.runtime.ExecutionRuntime`, and
:func:`~repro.exec.runtime.resolve_placement` is the one function that
decides which. Covers bit-identity between the two placements, the
placement table for ``simulate_batch`` and for a service job, the
resolver itself, the runtime's in-process one-group rule, and the
CPU-count pool cap.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.config import WORKERS_ENV
from repro.errors import ExecutionError
from repro.exec import (
    ExecutionRuntime,
    NullCache,
    SimulationCache,
    SimulationJob,
    resolve_placement,
    simulate_batch,
)
from repro.exec.runtime import (
    _CAP_WARNED,
    effective_pool_workers,
    set_default_runtime,
)
from repro.service import jobs as jobstates
from repro.service import runner
from repro.service.jobs import Job as ServiceJob
from repro.service.jobs import JobStore
from repro.service.schemas import parse_job_spec

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
    """One ideal-connectivity job per preset, each its own memory
    signature; a batch on a pool splits them into about four contiguous
    chunks per worker, and one in process."""
    return [
        SimulationJob(memory=_arch(mem_library, preset, f"m{i}"))
        for i, preset in enumerate(_PRESETS)
    ]


@pytest.fixture
def isolated_default(monkeypatch):
    """No process-wide default runtime and no ``REPRO_WORKERS``.

    A default the test builds is closed afterwards, and the previous
    one is put back.
    """
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    previous = set_default_runtime(None)
    yield
    current = set_default_runtime(previous)
    if current is not None:
        current.close()


class TestBackendEquivalence:
    def test_serial_backend_matches_engine(self, tiny_trace, mem_library):
        jobs = _jobs(mem_library)
        reference = simulate_batch(
            tiny_trace, jobs, workers=1, cache=NullCache()
        )
        report = simulate_batch(
            tiny_trace, jobs, cache=NullCache(), backend="serial"
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
            tiny_trace, jobs, cache=NullCache(), backend="serial"
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
                tiny_trace, jobs, cache=NullCache(), backend=runtime
            )
            assert runtime.stats.batches == 1
        assert report.results == reference.results
        assert report.backend == "pool"


# -- the placement table ----------------------------------------------------

#: Stands for a 2-worker :class:`ExecutionRuntime` passed as ``backend=``.
RUNTIME = "runtime"


@dataclass(frozen=True)
class Batch:
    """One ``simulate_batch`` call over ``groups`` jobs, each of its own
    memory signature."""

    backend: str | None
    workers: int
    groups: int
    ran: str


@dataclass(frozen=True)
class Job:
    """One service job, whose APEX phase runs a batch of four jobs.

    ``backend`` and ``workers`` are the job spec's, ``daemon`` is the
    daemon's ``--backend``, and ``runner`` the size of the runner
    thread's runtime (``None``: the job runs without one).
    """

    backend: str | None
    workers: int | None
    daemon: str | None
    runner: int | None
    ran: str


# ``ran`` reads "<placement>/<EngineReport.workers> <where>", where
# <placement> is "pool" when the batch was handed to a runtime (the
# passed or runner runtime, or the process-wide default) and "serial"
# when it never left the caller; <where> is "in process" when no pool
# ran the batch and no default runtime was built; "runtime pool" when
# the passed (or runner) runtime's pool ran it; "default pool" when the
# process-wide default runtime was built and its pool ran it; and
# "default idle" when the default was built but ran the batch in
# process. ``EngineReport.backend`` says where the batch ran: "pool"
# exactly when <where> names a pool that ran it, else "serial".
BATCHES = [
    Batch(None, 1, 1, "serial/1 in process"),
    Batch(None, 1, 4, "serial/1 in process"),
    Batch(None, 2, 1, "pool/2 default idle"),
    Batch(None, 2, 4, "pool/2 default pool"),
    Batch("serial", 1, 1, "serial/1 in process"),
    Batch("serial", 1, 4, "serial/1 in process"),
    Batch("serial", 2, 1, "serial/2 in process"),
    Batch("serial", 2, 4, "serial/2 in process"),
    Batch("pool", 1, 1, "serial/1 in process"),
    Batch("pool", 1, 4, "serial/1 in process"),
    Batch("pool", 2, 1, "pool/2 default idle"),
    Batch("pool", 2, 4, "pool/2 default pool"),
    Batch(RUNTIME, 1, 1, "pool/1 in process"),
    Batch(RUNTIME, 1, 4, "pool/1 runtime pool"),
    Batch(RUNTIME, 2, 1, "pool/2 in process"),
    Batch(RUNTIME, 2, 4, "pool/2 runtime pool"),
]

JOBS = [
    Job(None, None, None, None, "serial/1 in process"),
    Job(None, None, None, 1, "serial/1 in process"),
    Job(None, None, None, 2, "pool/2 runtime pool"),
    Job(None, None, "serial", None, "serial/1 in process"),
    Job(None, None, "serial", 1, "serial/1 in process"),
    Job(None, None, "serial", 2, "serial/1 in process"),
    Job(None, None, "pool", None, "serial/1 in process"),
    Job(None, None, "pool", 1, "pool/1 in process"),
    Job(None, None, "pool", 2, "pool/2 runtime pool"),
    Job(None, 1, None, None, "serial/1 in process"),
    Job(None, 1, None, 1, "serial/1 in process"),
    Job(None, 1, None, 2, "serial/1 in process"),
    Job(None, 1, "serial", None, "serial/1 in process"),
    Job(None, 1, "serial", 1, "serial/1 in process"),
    Job(None, 1, "serial", 2, "serial/1 in process"),
    Job(None, 1, "pool", None, "serial/1 in process"),
    Job(None, 1, "pool", 1, "pool/1 in process"),
    Job(None, 1, "pool", 2, "pool/1 runtime pool"),
    Job(None, 2, None, None, "pool/2 default pool"),
    Job(None, 2, None, 1, "pool/2 in process"),
    Job(None, 2, None, 2, "pool/2 runtime pool"),
    Job(None, 2, "serial", None, "serial/2 in process"),
    Job(None, 2, "serial", 1, "serial/2 in process"),
    Job(None, 2, "serial", 2, "serial/2 in process"),
    Job(None, 2, "pool", None, "pool/2 default pool"),
    Job(None, 2, "pool", 1, "pool/2 in process"),
    Job(None, 2, "pool", 2, "pool/2 runtime pool"),
    Job("serial", None, "pool", None, "serial/1 in process"),
    Job("serial", None, "pool", 2, "serial/1 in process"),
    Job("serial", 1, None, None, "serial/1 in process"),
    Job("serial", 1, "pool", None, "serial/1 in process"),
    Job("serial", 1, "pool", 2, "serial/1 in process"),
    Job("serial", 2, "pool", None, "serial/2 in process"),
    Job("serial", 2, "pool", 2, "serial/2 in process"),
    Job("pool", None, "serial", None, "serial/1 in process"),
    Job("pool", None, "serial", 1, "pool/1 in process"),
    Job("pool", None, "serial", 2, "pool/2 runtime pool"),
    Job("pool", 1, "serial", None, "serial/1 in process"),
    Job("pool", 1, "serial", 1, "pool/1 in process"),
    Job("pool", 1, "serial", 2, "pool/1 runtime pool"),
    Job("pool", 2, "serial", None, "pool/2 default pool"),
    Job("pool", 2, "serial", 1, "pool/2 in process"),
    Job("pool", 2, "serial", 2, "pool/2 runtime pool"),
]


def _ran(report, runtime: ExecutionRuntime | None) -> str:
    default = set_default_runtime(None)
    where = []
    if runtime is not None and runtime.stats.batches:
        assert runtime._pool is not None
        where.append("runtime pool")
    if default is not None:
        where.append("default pool" if default.stats.batches else "default idle")
        default.close()
    placed = default is not None or (
        runtime is not None and runtime.last_dispatch is not None
    )
    pooled = any(entry.endswith(" pool") for entry in where)
    assert report.backend == ("pool" if pooled else "serial")
    return f"{'pool' if placed else 'serial'}/{report.workers} " + (
        " + ".join(where) or "in process"
    )


@pytest.mark.usefixtures("isolated_default")
class TestPlacement:
    @pytest.mark.parametrize("row", BATCHES, ids=repr)
    def test_simulate_batch(self, row, tiny_trace, mem_library):
        jobs = _jobs(mem_library)[: row.groups]
        if row.backend != RUNTIME:
            report = simulate_batch(
                tiny_trace, jobs, workers=row.workers, cache=NullCache(),
                backend=row.backend,
            )
            assert _ran(report, None) == row.ran
            return
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, workers=row.workers, cache=NullCache(),
                backend=runtime,
            )
            assert _ran(report, runtime) == row.ran

    @pytest.mark.parametrize("row", JOBS, ids=repr)
    def test_execute_job(self, row, tiny_trace, mem_library, monkeypatch):
        reports = []

        def explore(trace, library, config, hints, workers, cache, backend):
            reports.append(
                simulate_batch(
                    trace, _jobs(mem_library), workers=workers,
                    cache=NullCache(), backend=backend,
                )
            )
            return SimpleNamespace(evaluated=[], selected=[])

        workload = SimpleNamespace(trace=lambda: tiny_trace, pattern_hints={})
        monkeypatch.setattr(runner, "explore_memory_architectures", explore)
        monkeypatch.setattr(runner, "get_workload", lambda *_, **__: workload)
        spec = {"kind": "apex", "workload": "dct", "backend": row.backend,
                "workers": row.workers}
        job = ServiceJob(spec=parse_job_spec(spec))
        store = JobStore()
        store.add(job)
        if row.runner is None:
            runner.execute_job(
                job, store, runner.TenantCaches(), default_backend=row.daemon
            )
            ran = _ran(reports[0], None)
        else:
            with ExecutionRuntime(workers=row.runner) as runtime:
                runner.execute_job(
                    job, store, runner.TenantCaches(), runtime=runtime,
                    default_backend=row.daemon,
                )
                ran = _ran(reports[0], runtime)
        assert job.state == jobstates.DONE, job.error
        assert ran == row.ran


class TestResolveBackend:
    """:func:`resolve_placement` alone."""

    def test_unset_applies_the_default_rule(self):
        assert resolve_placement(None, workers=1) == "serial"
        assert resolve_placement(None, workers=2) == "pool"
        with ExecutionRuntime(workers=2) as runtime:
            assert resolve_placement(None, 2, runtime) is runtime

    def test_unset_workers_take_the_runtime_size(self):
        with ExecutionRuntime(workers=2) as runtime:
            assert resolve_placement(None, runtime=runtime) is runtime
        with ExecutionRuntime(workers=1) as runtime:
            assert resolve_placement(None, runtime=runtime) == "serial"

    def test_pool_name_honours_an_explicit_runtime(self):
        with ExecutionRuntime(workers=2) as runtime:
            assert resolve_placement("pool", 4, runtime) is runtime

    def test_names_resolve(self):
        assert resolve_placement("serial") == "serial"
        assert resolve_placement("pool", workers=2) == "pool"
        # A one-worker default runtime could only run in process.
        assert resolve_placement("pool", workers=1) == "serial"
        with ExecutionRuntime(workers=2) as runtime:
            assert resolve_placement("serial", 2, runtime) == "serial"

    def test_instance_passes_through(self):
        """A runtime passes through, so a resolved placement can be
        handed down as ``backend=`` and resolves to itself again."""
        with ExecutionRuntime(workers=1) as runtime:
            assert resolve_placement(runtime) is runtime
            assert resolve_placement(runtime, 2) is runtime

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutionError, match="unknown backend"):
            resolve_placement("quantum")
        with pytest.raises(ExecutionError, match="unknown backend"):
            resolve_placement("remote")


@pytest.mark.usefixtures("isolated_default")
class TestEngineSelection:
    def test_pool_backend_runs_on_the_explicit_runtime(
        self, tiny_trace, mem_library
    ):
        """``backend=runtime`` dispatches through that runtime, and
        never builds the process-wide default one."""
        jobs = _jobs(mem_library)
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, workers=4, cache=NullCache(),
                backend=runtime,
            )
            assert runtime.stats.batches == 1
        assert set_default_runtime(None) is None
        assert report.backend == "pool"
        assert report.workers == 4

    def test_report_names_the_backend_that_ran(
        self, tiny_trace, mem_library
    ):
        jobs = _jobs(mem_library)
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        one_group = simulate_batch(
            tiny_trace, jobs[:1], workers=2, cache=NullCache()
        )
        pooled = simulate_batch(tiny_trace, jobs, workers=2, cache=NullCache())
        assert serial.backend == "serial"
        # Placed on the default runtime, which runs one job in process.
        assert one_group.backend == "serial"
        assert pooled.backend == "pool"

    def test_all_hit_batch_leaves_the_default_runtime_alone(
        self, tiny_trace, mem_library
    ):
        """A batch that dispatches nothing never builds the default
        runtime, even when it is placed on it."""
        jobs = _jobs(mem_library)
        cache = SimulationCache()
        warm = simulate_batch(tiny_trace, jobs, workers=1, cache=cache)
        for backend in (None, "pool"):
            report = simulate_batch(
                tiny_trace, jobs, workers=2, cache=cache, backend=backend
            )
            # Nothing was dispatched, so no pool ran the batch.
            assert report.backend == "serial"
            assert report.cache_hits == len(jobs)
            assert report.results == warm.results
        assert set_default_runtime(None) is None

    def test_held_backend_rejects_a_runtime_closed_since(
        self, tiny_trace, mem_library
    ):
        """Even an all-hit batch fails on a runtime closed since the
        caller took it: the check precedes the cache."""
        jobs = _jobs(mem_library)
        cache = SimulationCache()
        simulate_batch(tiny_trace, jobs, workers=1, cache=cache)
        runtime = ExecutionRuntime(workers=2)
        runtime.close()
        with pytest.raises(ExecutionError, match="closed runtime"):
            simulate_batch(tiny_trace, jobs, cache=cache, backend=runtime)
        assert cache.memory_hits == 0

    def test_one_group_runs_in_process_on_the_runtime(
        self, tiny_trace, mem_library
    ):
        """A batch of one group never builds the pool or exports the
        trace, even on an explicit runtime."""
        jobs = _jobs(mem_library)[:1]
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(), backend=runtime
            )
            assert runtime._pool is None
            assert not runtime._exports
        assert report.results == serial.results
        assert report.backend == "serial"
        assert report.workers == 2


class TestBackendOwnership:
    def test_caller_instance_stays_open_across_batches(
        self, tiny_trace, mem_library
    ):
        """A batch never closes the runtime it was handed, so every
        batch reuses its one pool."""
        jobs = _jobs(mem_library)
        with ExecutionRuntime(workers=2) as runtime:
            for _ in range(2):
                simulate_batch(
                    tiny_trace, jobs, cache=NullCache(), backend=runtime
                )
                assert not runtime.closed
            assert runtime.stats.batches == 2
        assert runtime.stats.pool_rebuilds == 0


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
