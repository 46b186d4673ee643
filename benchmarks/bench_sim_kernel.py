"""perf2/perf5 — reference-vs-engine single-process simulation timing.

Times ``Simulator.run()`` per workload through the scalar reference
loop (``reference=True``) and through the simulation engine (the
default) on mixed cache/stream/SRAM/uncached architectures, asserting
exact result equality on every pair. Each leg is timed best-of-3, the
two legs alternating which runs first (one repetition in smoke mode),
so host noise between consecutive runs does not land on one leg. Each
workload runs with the paper's time-sampling configuration, and
*compress*, *li*, and *vocoder* add unsampled pairs covering the
whole-trace regime the batched contention walk (perf5) targets.
*compress* also adds two DMA pairs (a ``si_dma_32`` self-indirect DMA
engine): one sampled under AMBA connectivity, which walks every
access, on- and off-window, and one unsampled under ideal
connectivity, which never walks: the engine resolves the DMA stalls
from stall-free issue times, visiting only the accesses that can
stall. Ideal-connectivity DMA runs are the APEX candidate runs of a
compress exploration. The full run uses million-access traces for
*compress* and *li*; ``REPRO_BENCH_SMOKE=1`` shrinks the scales to CI
size (equality still asserted, timing thresholds skipped).

Records land in ``benchmarks/out/BENCH_sim_kernel.json`` via
``common.record_kernel_timing``, plus one ``summary_sampled`` /
``summary_unsampled`` aggregate pair via
``common.record_kernel_summary``. The full run asserts the engine is
at least 2× faster on one of the million-access sampled workloads, at
least 5× faster on the million-access unsampled compress run, and
slower on none (with a small tolerance for timer noise); see
docs/performance.md for the regime-by-regime breakdown.
"""

import time

import numpy as np

import common
from common import SMOKE
from repro.connectivity.architecture import (
    ConnectivityArchitecture,
    build_cluster,
)
from repro.memory.library import mixed_architecture
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import Simulator
from repro.workloads import get_workload

#: Trace scales: compress exceeds one million accesses (the acceptance
#: target) and li approaches it (the interpreter recurses past Python's
#: limits above scale 1.5); the others land in the 150–500k range.
FULL_SCALES = {
    "compress": 25.0,
    "li": 1.5,
    "dct": 30.0,
    "vocoder": 20.0,
    "matmul": 12.0,
}

SMOKE_SCALES = {"compress": 0.4, "dct": 2.0}

#: The paper's sampling configuration — the regime the search runs in.
SAMPLING = SamplingConfig()

#: Tolerated timer noise on the "no slowdown on any workload" check.
NOISE_FLOOR = 0.9

#: Timed repetitions per leg; each leg keeps its fastest.
REPEATS = 1 if SMOKE else 3


def _prewarm_memory(budget_bytes: int) -> None:
    """Touch-and-free ``budget_bytes`` of RAM before timing anything.

    On hosts whose guest RAM is lazily faulted in (microVMs,
    overcommitted containers), the *first* write to each fresh page
    costs orders of magnitude more than the arithmetic the kernel does
    on it, while freed pages are reused cheaply. Faulting the pages in
    once up front moves that one-time host cost out of the timed
    region, so the records measure the simulators — the steady state
    any long-lived search process runs in — rather than the platform's
    page-fault path.
    """
    chunk_words = (64 << 20) // 8
    blocks = []
    remaining = budget_bytes
    while remaining > 0:
        block = np.empty(chunk_words, dtype=np.float64)
        block.fill(1.0)
        blocks.append(block)
        remaining -= block.nbytes
    del blocks


def _amba_connectivity(memory, trace):
    channels = memory.channels(trace)
    on_chip = [c for c in channels if not c.crosses_chip]
    crossing = [c for c in channels if c.crosses_chip]
    clusters = []
    if on_chip:
        preset = common.CONNECTIVITY_LIBRARY.get("ahb")
        clusters.append(build_cluster(on_chip, "ahb", preset.instantiate()))
    if crossing:
        preset = common.CONNECTIVITY_LIBRARY.get("offchip_16")
        clusters.append(
            build_cluster(crossing, "offchip_16", preset.instantiate())
        )
    return ConnectivityArchitecture("amba", clusters)


def _time_pair(stem, trace, memory, connectivity, sampling, **extra):
    """Best-of-``REPEATS`` seconds per leg, legs alternating first."""
    simulator = Simulator(trace, memory, connectivity, sampling)
    seconds = {True: float("inf"), False: float("inf")}
    for repeat in range(REPEATS):
        results = {}
        for reference in (True, False) if repeat % 2 == 0 else (False, True):
            start = time.perf_counter()
            results[reference] = simulator.run(reference=reference)
            seconds[reference] = min(
                seconds[reference], time.perf_counter() - start
            )
        assert results[False] == results[True], (
            f"engine diverged from reference on {stem}"
        )
    return common.record_kernel_timing(
        stem, seconds[True], seconds[False], len(trace), repeats=REPEATS,
        **extra,
    )


def regenerate() -> str:
    scales = SMOKE_SCALES if SMOKE else FULL_SCALES
    _prewarm_memory((128 if SMOKE else 1024) << 20)
    records = []
    for name, scale in scales.items():
        trace = get_workload(name, scale=scale, seed=1).trace()
        memory = mixed_architecture(trace, common.MEMORY_LIBRARY)
        records.append(
            _time_pair(name, trace, memory, None, SAMPLING, sampled=True)
        )
        if name == "compress":
            # One connectivity-loaded pair shows the engine helps
            # beyond the ideal+sampled sweet spot.
            records.append(
                _time_pair(
                    "compress_amba",
                    trace,
                    memory,
                    _amba_connectivity(memory, trace),
                    SAMPLING,
                    sampled=True,
                    conn="amba",
                )
            )
            # DMA runs: the walk visits every access, on- and
            # off-window, since a DMA stall depends on the engine's own
            # earlier arrivals.
            dma_memory = mixed_architecture(
                trace, common.MEMORY_LIBRARY, dma_preset="si_dma_32"
            )
            records.append(
                _time_pair(
                    "compress_dma_amba",
                    trace,
                    dma_memory,
                    _amba_connectivity(dma_memory, trace),
                    SAMPLING,
                    sampled=True,
                    conn="amba",
                    dma="si_dma_32",
                )
            )
            records.append(
                _time_pair(
                    "compress_dma_unsampled",
                    trace,
                    dma_memory,
                    None,
                    None,
                    sampled=False,
                    dma="si_dma_32",
                )
            )
        if name in ("compress", "li", "vocoder"):
            # Unsampled pairs: the whole trace runs through the
            # contention-free columnar path, the regime perf5 targets.
            records.append(
                _time_pair(
                    f"{name}_unsampled", trace, memory, None, None,
                    sampled=False,
                )
            )
    regenerate.records = records
    lines = [
        f"{r['name']}: {r['accesses']} accesses, "
        f"reference {r['reference_seconds']:.2f}s -> "
        f"kernel {r['kernel_seconds']:.2f}s ({r['speedup']}x)"
        for r in records
    ]
    for stem, sampled in (("summary_sampled", True), ("summary_unsampled", False)):
        speedups = [
            r["speedup"] for r in records if bool(r.get("sampled")) is sampled
        ]
        if not speedups:
            continue
        summary = common.record_kernel_summary(
            stem, speedups, mode="sampled" if sampled else "unsampled"
        )
        lines.append(
            f"{summary['name']}: min {summary['min_speedup']}x / "
            f"mean {summary['mean_speedup']}x / "
            f"max {summary['max_speedup']}x over {summary['cases']} pairs"
        )
    return "\n".join(lines)


def test_sim_kernel(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("sim_kernel", text)
    records = regenerate.records
    assert records
    if SMOKE:
        return
    sampled_big = [
        r for r in records if r.get("sampled") and r["accesses"] >= 1_000_000
    ]
    assert sampled_big, "no million-access sampled workload was timed"
    assert max(r["speedup"] for r in sampled_big) >= 2.0, sampled_big
    unsampled = {
        r["name"]: r for r in records if not r.get("sampled")
    }
    assert "compress_unsampled" in unsampled, unsampled
    assert unsampled["compress_unsampled"]["speedup"] >= 5.0, (
        unsampled["compress_unsampled"]
    )
    slow = [r for r in records if r["speedup"] < NOISE_FLOOR]
    assert not slow, f"engine slower than reference: {slow}"
