"""CI loopback distributed smoke: two socket workers, Full strategy.

Launches two ``repro worker`` processes on loopback ports, points the
``remote`` backend at them via ``REPRO_WORKER_ADDRS``, runs the
reduced-space Full strategy both serially and distributed, and asserts
the runs are bit-identical — same simulated results, same pareto
front. Exit code 0 means the whole distributed path (trace shipping,
sharded dispatch, job-index merge) reproduces the serial engine
exactly.

Run directly (``python benchmarks/distributed_smoke.py``) with
``PYTHONPATH=src``; no arguments.
"""

import os
import subprocess
import sys


def _spawn_worker():
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ),
    )
    line = process.stdout.readline().strip()
    if not line.startswith("listening on "):
        raise RuntimeError(f"worker failed to start: {line!r}")
    return process, line.removeprefix("listening on ")


def main() -> int:
    processes = []
    addresses = []
    try:
        for _ in range(2):
            process, address = _spawn_worker()
            processes.append(process)
            addresses.append(address)
        os.environ["REPRO_WORKER_ADDRS"] = ",".join(addresses)

        from repro.apex.explorer import ApexConfig
        from repro.conex.explorer import ConExConfig
        from repro.connectivity.library import default_connectivity_library
        from repro.core.strategies import run_full
        from repro.exec import NullCache, resolve_backend
        from repro.memory.library import default_memory_library
        from repro.workloads import get_workload

        apex_config = ApexConfig(
            cache_options=(None, "cache_4k_16b_1w", "cache_16k_32b_2w"),
            stream_buffer_options=(None, "stream_buffer_4"),
            dma_options=(None, "si_dma_32"),
            map_indexed_to_sram=(False,),
            select_count=5,
        )
        conex_config = ConExConfig(
            max_logical_connections=3,
            max_assignments_per_level=48,
            phase1_keep=12,
        )
        workload = get_workload("compress", scale=0.04, seed=1)
        trace = workload.trace()
        hints = dict(workload.pattern_hints)
        args = (
            trace,
            default_memory_library(),
            default_connectivity_library(),
            apex_config,
            conex_config,
        )
        serial = run_full(
            *args, hints=hints, workers=1, cache=NullCache()
        )
        # One remote backend for the whole run: its worker connections
        # are opened once and closed when the block ends.
        with resolve_backend("remote") as backend:
            distributed = run_full(
                *args, hints=hints, cache=NullCache(), backend=backend
            )
        assert (
            distributed.pareto_vectors() == serial.pareto_vectors()
        ), "distributed pareto front differs from serial"
        assert len(distributed.simulated) == len(serial.simulated)
        print(
            f"distributed smoke OK: {len(serial.simulated)} designs over "
            f"{len(addresses)} loopback workers, pareto identical to serial"
        )
        return 0
    finally:
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            process.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
