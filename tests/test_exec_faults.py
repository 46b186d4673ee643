"""Fault tolerance: crash recovery, timeouts, and shm hygiene.

The regression surface of the fault-tolerant runtime: a worker
SIGKILLed mid-batch must not fail ``simulate_batch`` (the batch
completes bit-identical to serial on a rebuilt pool), repeated crashes
must degrade to the serial path instead of erroring, a stuck worker
must be reaped by the job timeout, dispatch through a closed runtime
must fail eagerly, and no shared-memory blocks may outlive their owner
— neither on clean close nor after a crash (the startup sweep reclaims
those).

Worker faults are injected through the ``REPRO_FAULT_INJECT`` chaos
hook (see :mod:`repro.exec.runtime`): ``once:<path>`` SIGKILLs exactly
one worker, ``hang:<path>`` parks exactly one worker, ``always`` kills
every worker invocation.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.errors import ExecutionError, ExplorationError
from repro.exec.cache import NullCache
from repro.exec.engine import SimulationJob, simulate_batch
from repro.exec.runtime import (
    FAULT_INJECT_ENV,
    JOB_TIMEOUT_ENV,
    MAX_RETRIES_ENV,
    ExecutionRuntime,
    default_runtime,
    resolve_job_timeout,
    resolve_max_retries,
    set_default_runtime,
)
from repro.trace import shm
from repro.trace.events import Trace

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


def _stale_shm_blocks() -> list[str]:
    """PID-tagged blocks of *this* process still present in /dev/shm."""
    dev_shm = pathlib.Path("/dev/shm")
    if not dev_shm.is_dir():  # pragma: no cover - non-POSIX hosts
        return []
    prefix = f"{shm.SHM_PREFIX}-{os.getpid()}-"
    return [p.name for p in dev_shm.iterdir() if p.name.startswith(prefix)]


class TestCrashRecovery:
    def test_sigkill_mid_batch_completes_bit_identical(
        self, tiny_trace, mem_library, monkeypatch, tmp_path
    ):
        """The headline acceptance criterion: one worker SIGKILL must
        not fail the batch, results must match serial exactly, and the
        pool must have been rebuilt."""
        jobs = _jobs(mem_library)
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        # Exports memoized by other suites' default runtime are
        # legitimately alive; only blocks *this* runtime creates must go.
        preexisting = set(_stale_shm_blocks())
        monkeypatch.setenv(
            FAULT_INJECT_ENV, f"once:{tmp_path / 'crash.marker'}"
        )
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=runtime,
            )
            assert runtime.stats.pool_rebuilds >= 1
            assert runtime.stats.degraded_batches == 0
        assert (tmp_path / "crash.marker").exists(), "no fault was injected"
        assert report.results == serial.results
        assert report.pool_rebuilds >= 1
        assert report.retries >= 1
        assert not report.degraded
        assert set(_stale_shm_blocks()) <= preexisting

    def test_repeated_crashes_degrade_to_serial(
        self, tiny_trace, mem_library, monkeypatch
    ):
        """Killing every worker exhausts the rebuild budget; the batch
        must still complete — serially — rather than raise."""
        jobs = _jobs(mem_library)
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        monkeypatch.setenv(FAULT_INJECT_ENV, "always")
        with ExecutionRuntime(workers=2, max_retries=1) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=runtime,
            )
            assert runtime.last_dispatch is not None
            assert runtime.last_dispatch.degraded
        assert report.results == serial.results
        assert report.degraded
        assert report.pool_rebuilds == 2  # budget of 1 + the final straw

    def test_partial_progress_is_kept_across_rebuilds(
        self, tiny_trace, mem_library, monkeypatch, tmp_path
    ):
        """Chunk bookkeeping: jobs finished before the crash are not
        re-simulated (their chunks are collected, not re-dispatched)."""
        jobs = _jobs(mem_library) * 2  # 8 jobs -> several chunks
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        monkeypatch.setenv(FAULT_INJECT_ENV, f"once:{tmp_path / 'c.marker'}")
        with ExecutionRuntime(workers=2) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=runtime,
            )
            dispatch = runtime.last_dispatch
        assert report.results == serial.results
        assert dispatch.pool_rebuilds >= 1


class TestJobTimeout:
    def test_stuck_worker_is_reaped_and_batch_completes(
        self, tiny_trace, mem_library, monkeypatch, tmp_path
    ):
        jobs = _jobs(mem_library)
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        monkeypatch.setenv(FAULT_INJECT_ENV, f"hang:{tmp_path / 'h.marker'}")
        with ExecutionRuntime(workers=2, job_timeout=1.0) as runtime:
            report = simulate_batch(
                tiny_trace, jobs, cache=NullCache(),
                backend=runtime,
            )
            assert runtime.stats.timeouts >= 1
            assert runtime.stats.pool_rebuilds >= 1
        assert report.results == serial.results
        assert not report.degraded

    def test_timeout_env_parsing(self, monkeypatch):
        monkeypatch.setenv(JOB_TIMEOUT_ENV, "2.5")
        assert resolve_job_timeout() == 2.5
        monkeypatch.delenv(JOB_TIMEOUT_ENV)
        assert resolve_job_timeout() is None
        monkeypatch.setenv(JOB_TIMEOUT_ENV, "soon")
        with pytest.raises(ExecutionError):
            resolve_job_timeout()
        with pytest.raises(ExecutionError):
            resolve_job_timeout(-1.0)

    def test_max_retries_env_parsing(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV, "5")
        assert resolve_max_retries() == 5
        monkeypatch.delenv(MAX_RETRIES_ENV)
        assert resolve_max_retries() == 2
        monkeypatch.setenv(MAX_RETRIES_ENV, "lots")
        with pytest.raises(ExecutionError):
            resolve_max_retries()
        with pytest.raises(ExecutionError):
            resolve_max_retries(-1)


class TestEagerClosedDispatch:
    def test_simulate_many_rejects_closed_runtime(
        self, tiny_trace, mem_library
    ):
        runtime = ExecutionRuntime(workers=2)
        runtime.close()
        with pytest.raises(ExplorationError):
            simulate_batch(
                tiny_trace, _jobs(mem_library), cache=NullCache(),
                backend=runtime,
            )

    def test_execution_error_is_an_exploration_error(self):
        assert issubclass(ExecutionError, ExplorationError)


class TestDefaultRuntimeHealth:
    @pytest.fixture(autouse=True)
    def _isolate_default(self):
        previous = set_default_runtime(None)
        yield
        current = set_default_runtime(previous)
        if current is not None:
            current.close()

    def test_externally_broken_pool_is_replaced(self):
        """A worker dying while the pool is idle must not poison every
        later batch: default_runtime() hands out a fresh runtime."""
        from concurrent.futures.process import BrokenProcessPool

        runtime = default_runtime(2)
        pool = runtime._ensure_pool()
        pool.submit(abs, -1).result()  # spin the workers up
        for process in pool._processes.values():
            process.kill()
        with pytest.raises(BrokenProcessPool):
            pool.submit(abs, -1).result(timeout=30)
        assert not runtime.healthy
        replacement = default_runtime(2)
        assert replacement is not runtime
        assert replacement.healthy
        assert runtime.closed  # the dead one was shut down for us
        replacement.close()

    def test_healthy_runtime_is_reused(self):
        runtime = default_runtime(2)
        assert default_runtime(2) is runtime

    def test_runtime_self_heals_between_batches(self, tiny_trace, mem_library):
        """Pool dispatch on a runtime whose pool died while idle
        silently rebuilds instead of raising."""
        jobs = _jobs(mem_library)
        serial = simulate_batch(tiny_trace, jobs, workers=1, cache=NullCache())
        with ExecutionRuntime(workers=2) as runtime:
            first = simulate_batch(
                tiny_trace, jobs, cache=NullCache(), backend=runtime
            )
            for process in runtime._pool._processes.values():
                process.kill()
            second = simulate_batch(
                tiny_trace, jobs, cache=NullCache(), backend=runtime
            )
        assert first.results == serial.results == second.results


class TestShmHygiene:
    def test_export_uses_pid_tagged_names(self, tiny_trace):
        with tiny_trace.export_shared(transport="shm") as export:
            assert export.handle.block.startswith(
                f"{shm.SHM_PREFIX}-{os.getpid()}-"
            )

    def test_export_registers_and_close_unregisters(
        self, tiny_trace, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(shm, "manifest_dir", lambda: tmp_path)
        export = tiny_trace.export_shared(transport="shm")
        name = export.handle.block
        manifest = tmp_path / f"{os.getpid()}.manifest"
        assert manifest.exists()
        assert f"shm {name}" in manifest.read_text()
        export.close()
        assert ("shm", name) not in shm.registered_resources()
        if manifest.exists():
            assert f"shm {name}" not in manifest.read_text()

    def test_file_transport_is_registered_too(
        self, tiny_trace, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(shm, "manifest_dir", lambda: tmp_path)
        export = tiny_trace.export_shared(transport="file")
        path = export.handle.block
        manifest = tmp_path / f"{os.getpid()}.manifest"
        assert f"file {path}" in manifest.read_text()
        export.close()
        assert not os.path.exists(path)

    def test_runtime_close_leaves_no_blocks(self, tiny_trace, mem_library):
        preexisting = set(_stale_shm_blocks())
        with ExecutionRuntime(workers=2) as runtime:
            simulate_batch(
                tiny_trace, _jobs(mem_library), cache=NullCache(),
                backend=runtime,
            )
        assert set(_stale_shm_blocks()) <= preexisting

    def test_fork_child_cleanup_spares_parent_blocks(self, tiny_trace):
        """The owner-PID guard: a pool worker (fork child) running the
        cleanup path must not unlink blocks it merely inherited."""
        import multiprocessing

        with tiny_trace.export_shared(transport="shm") as export:
            context = multiprocessing.get_context("fork")
            child = context.Process(target=shm.cleanup_registered)
            child.start()
            child.join(timeout=30)
            assert child.exitcode == 0
            attached = Trace.attach_shared(export.handle)
            assert len(attached) == len(tiny_trace)

    def test_stale_sweep_reclaims_dead_process_blocks(
        self, monkeypatch, tmp_path
    ):
        """A process that dies without cleanup leaves a PID-tagged
        block and a manifest; the next runtime's startup sweep must
        unlink both."""
        pytest.importorskip("_posixshmem")
        monkeypatch.setattr(shm, "manifest_dir", lambda: tmp_path)
        script = (
            "import _posixshmem, os, sys\n"
            "name = sys.argv[1]\n"
            "fd = _posixshmem.shm_open('/' + name, "
            "os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)\n"
            "os.ftruncate(fd, 64)\n"
            "os.close(fd)\n"
            "print(os.getpid())\n"
        )
        probe = subprocess.run(
            [sys.executable, "-c", script, f"{shm.SHM_PREFIX}-0-deadproc"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(probe.stdout.strip())
        assert not shm._pid_alive(dead_pid)
        block = f"{shm.SHM_PREFIX}-0-deadproc"
        (tmp_path / f"{dead_pid}.manifest").write_text(f"shm {block}\n")
        assert os.path.exists(f"/dev/shm/{block}")
        swept = shm.sweep_stale()
        assert block in swept
        assert not os.path.exists(f"/dev/shm/{block}")
        assert not (tmp_path / f"{dead_pid}.manifest").exists()

    def test_sweep_spares_live_processes(self, monkeypatch, tmp_path):
        pytest.importorskip("_posixshmem")
        monkeypatch.setattr(shm, "manifest_dir", lambda: tmp_path)
        # Our own manifest (live PID) must never be swept.
        (tmp_path / f"{os.getpid()}.manifest").write_text("shm untouched\n")
        assert shm.sweep_stale() == []
        assert (tmp_path / f"{os.getpid()}.manifest").exists()
