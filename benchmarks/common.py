"""Shared setup for the benchmark harness.

Each benchmark regenerates one table or figure of the paper. Several
share the same expensive pipeline stages (the compress APEX run feeds
Figures 3, 4, 6 and Table 1), so stages are cached per pytest session,
keyed by workload and configuration.

Benchmark scales are reduced relative to the paper's full SPEC runs —
the trace lengths are chosen so the whole harness completes in minutes
on a laptop while preserving every qualitative shape the paper reports.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib

from repro.apex.explorer import ApexConfig, ApexResult, explore_memory_architectures
from repro.conex.explorer import ConExConfig, ConExResult, explore_connectivity
from repro.config import current_settings
from repro.connectivity.library import default_connectivity_library
from repro.memory.library import default_memory_library
from repro.trace.events import Trace
from repro.workloads import get_workload

#: ``REPRO_BENCH_SMOKE``: shrink workloads and repeat counts to CI smoke
#: size. The one parse of the knob; every benchmark imports this flag.
SMOKE = current_settings().bench_smoke

#: Directory where each benchmark writes its rendered table/figure and
#: its ``BENCH_*.json`` records. Smoke runs write under ``out/smoke/``
#: (gitignored), so their figures never overwrite the committed records.
OUTPUT_DIR = pathlib.Path(__file__).parent / "out"
if SMOKE:
    OUTPUT_DIR = OUTPUT_DIR / "smoke"

#: Trace scales per workload (fractions of the default input sizes).
SCALES = {
    "compress": 0.4,
    "li": 0.12,
    "vocoder": 1.0,
    "dct": 2.0,
    "matmul": 1.5,
}

MEMORY_LIBRARY = default_memory_library()
CONNECTIVITY_LIBRARY = default_connectivity_library()

#: The full APEX configuration used by the figure/table benchmarks.
FULL_APEX = ApexConfig()

#: The ConEx configuration used by the figure/table benchmarks.
FULL_CONEX = ConExConfig(
    max_logical_connections=5,
    max_assignments_per_level=1024,
    phase1_keep=8,
)

#: A cache-only APEX configuration: the paper's "traditional cache"
#: baselines (architectures a and b of Figure 6).
TRADITIONAL_APEX = ApexConfig(
    cache_options=(
        "cache_4k_16b_1w",
        "cache_8k_32b_2w",
        "cache_16k_32b_2w",
        "cache_32k_32b_2w",
    ),
    stream_buffer_options=(None,),
    dma_options=(None,),
    map_indexed_to_sram=(False,),
    select_count=4,
)


@functools.lru_cache(maxsize=None)
def workload(name: str):
    return get_workload(name, scale=SCALES[name], seed=1)


@functools.lru_cache(maxsize=None)
def trace(name: str) -> Trace:
    return workload(name).trace()


@functools.lru_cache(maxsize=None)
def apex_result(name: str, traditional: bool = False) -> ApexResult:
    config = TRADITIONAL_APEX if traditional else FULL_APEX
    return explore_memory_architectures(
        trace(name),
        MEMORY_LIBRARY,
        config,
        hints=workload(name).pattern_hints,
    )


@functools.lru_cache(maxsize=None)
def conex_result(name: str, traditional: bool = False) -> ConExResult:
    apex = apex_result(name, traditional)
    return explore_connectivity(
        trace(name), apex.selected, CONNECTIVITY_LIBRARY, FULL_CONEX
    )


def write_output(stem: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to stdout."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{stem}.txt"
    path.write_text(text + "\n")
    print()
    print(text)


#: Machine-readable serial-vs-parallel timing records (one list entry
#: per benchmark stem; re-runs replace their own entry).
PARALLEL_TIMINGS = OUTPUT_DIR / "BENCH_parallel.json"


def record_parallel_timing(
    stem: str,
    serial_seconds: float,
    parallel_seconds: float,
    workers: int,
    **extra,
) -> dict:
    """Append one serial-vs-parallel timing record to BENCH_parallel.json.

    Records ``cpu_count`` alongside the measurement so a reader can
    tell a genuine speedup apart from pool overhead on a starved
    machine. Returns the record written.
    """
    record = {
        "name": stem,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "workers": workers,
        "speedup": round(serial_seconds / parallel_seconds, 3)
        if parallel_seconds > 0
        else None,
        "cpu_count": os.cpu_count(),
        **extra,
    }
    return _append_record(PARALLEL_TIMINGS, record)


#: Machine-readable reference-vs-kernel single-process timing records
#: (same replace-by-name convention as BENCH_parallel.json).
KERNEL_TIMINGS = OUTPUT_DIR / "BENCH_sim_kernel.json"


#: Machine-readable observability-overhead records (same
#: replace-by-name convention as BENCH_parallel.json).
OBS_TIMINGS = OUTPUT_DIR / "BENCH_obs.json"


def record_obs_timing(stem: str, **fields) -> dict:
    """Append one observability-overhead record to BENCH_obs.json."""
    record = {"name": stem, **fields, "cpu_count": os.cpu_count()}
    return _append_record(OBS_TIMINGS, record)


#: Machine-readable execution-runtime overhead records (same
#: replace-by-name convention as BENCH_parallel.json).
RUNTIME_TIMINGS = OUTPUT_DIR / "BENCH_runtime.json"


def record_runtime_timing(stem: str, **fields) -> dict:
    """Append one execution-runtime record to BENCH_runtime.json.

    Field names are benchmark-specific (dispatch overhead and columnar
    estimation report different quantities); ``cpu_count`` is stamped
    on every record so a reader can judge pool numbers from a starved
    machine fairly.
    """
    record = {"name": stem, **fields, "cpu_count": os.cpu_count()}
    return _append_record(RUNTIME_TIMINGS, record)


#: Machine-readable DRAM channel-scaling records (same replace-by-name
#: convention as BENCH_parallel.json).
CHANNEL_TIMINGS = OUTPUT_DIR / "BENCH_channels.json"


def record_channel_scaling(stem: str, **fields) -> dict:
    """Append one channel-scaling record to BENCH_channels.json.

    Fields are benchmark-specific (per-channel-count cycles and
    speedups); ``cpu_count`` is stamped for parity with the other
    timing files even though the measurement is deterministic.
    """
    record = {"name": stem, **fields, "cpu_count": os.cpu_count()}
    return _append_record(CHANNEL_TIMINGS, record)


#: Machine-readable pareto-extraction timing records (same
#: replace-by-name convention as BENCH_parallel.json).
PARETO_TIMINGS = OUTPUT_DIR / "BENCH_pareto.json"


def record_pareto_timing(stem: str, **fields) -> dict:
    """Append one oracle-vs-sort-and-filter record to BENCH_pareto.json."""
    record = {"name": stem, **fields, "cpu_count": os.cpu_count()}
    return _append_record(PARETO_TIMINGS, record)


#: Machine-readable group-plan memo records (same replace-by-name
#: convention as BENCH_parallel.json).
GROUP_PLAN_TIMINGS = OUTPUT_DIR / "BENCH_group_plan.json"


def record_group_plan_timing(stem: str, **fields) -> dict:
    """Append one empty-vs-shared memo record to BENCH_group_plan.json."""
    record = {"name": stem, **fields, "cpu_count": os.cpu_count()}
    return _append_record(GROUP_PLAN_TIMINGS, record)


#: Machine-readable fresh-interpreter start-up records (same
#: replace-by-name convention as BENCH_parallel.json).
STARTUP_TIMINGS = OUTPUT_DIR / "BENCH_startup.json"


def record_startup_timing(stem: str, **fields) -> dict:
    """Append one start-up record to BENCH_startup.json."""
    record = {"name": stem, **fields, "cpu_count": os.cpu_count()}
    return _append_record(STARTUP_TIMINGS, record)


def _append_record(path: pathlib.Path, record: dict) -> dict:
    """Write ``record`` to ``path``, replacing any same-name entry."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    records = []
    if path.exists():
        try:
            records = json.loads(path.read_text())
        except ValueError:
            records = []
    records = [r for r in records if r.get("name") != record["name"]]
    records.append(record)
    path.write_text(json.dumps(records, indent=2) + "\n")
    return record


def record_kernel_timing(
    stem: str,
    reference_seconds: float,
    kernel_seconds: float,
    accesses: int,
    **extra,
) -> dict:
    """Append one reference-vs-kernel record to BENCH_sim_kernel.json."""
    record = {
        "name": stem,
        "accesses": accesses,
        "reference_seconds": round(reference_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "speedup": round(reference_seconds / kernel_seconds, 3)
        if kernel_seconds > 0
        else None,
        "cpu_count": os.cpu_count(),
        **extra,
    }
    return _append_record(KERNEL_TIMINGS, record)


def record_kernel_summary(stem: str, speedups, **extra) -> dict:
    """Append one aggregate speedup record to BENCH_sim_kernel.json.

    Summarizes a family of reference-vs-kernel pairs (e.g. all sampled
    or all unsampled cases) as min/mean/max speedup, so a reader gets
    the regime-level headline without re-deriving it from the
    per-workload rows.
    """
    values = sorted(float(s) for s in speedups)
    if not values:
        raise ValueError(f"no speedups to summarize for '{stem}'")
    record = {
        "name": stem,
        "cases": len(values),
        "min_speedup": round(values[0], 3),
        "mean_speedup": round(sum(values) / len(values), 3),
        "max_speedup": round(values[-1], 3),
        "cpu_count": os.cpu_count(),
        **extra,
    }
    return _append_record(KERNEL_TIMINGS, record)
