"""Extension ext2 — DRAM channel scaling on SpMV (PR 10 families).

Sparse matrix-vector product is bandwidth-bound: the row-pointer,
column-index, and value streams hit DRAM concurrently with the
random-indexed x-vector gathers, so a single-channel part serializes
foreground refills behind background writebacks and prefetches. The
``mcdram_*`` presets split that traffic across independent channel
timelines (low-order interleaving spreads consecutive lines round-
robin), and latency should improve monotonically from one to four
channels; block interleaving is reported alongside as the contrast
case — it keeps whole streams on one channel and recovers little.

Emits ``benchmarks/out/BENCH_channels.json`` with the per-channel
cycle counts and speedups. ``REPRO_BENCH_SMOKE=1`` shrinks the trace
to CI size (the monotonicity assertions still run).
"""

import common
from common import SMOKE
from repro.memory.library import mixed_architecture
from repro.sim import simulate
from repro.util.tables import format_table
from repro.workloads import get_workload

SCALE = 0.4 if SMOKE else 1.5

#: dram preset -> (channel count, interleave label).
CONFIGS = (
    ("dram", 1, "-"),
    ("mcdram_2ch", 2, "low"),
    ("mcdram_4ch", 4, "low"),
    ("mcdram_2ch_block", 2, "block"),
)


def _architecture(trace, dram_preset):
    return mixed_architecture(
        trace,
        common.MEMORY_LIBRARY,
        sram_preset="mp_sram_8k_2p",
        dram_preset=dram_preset,
    )


def regenerate() -> str:
    trace = get_workload("spmv", scale=SCALE, seed=7).trace()
    results = {}
    for preset, channels, interleave in CONFIGS:
        result = simulate(
            trace, _architecture(trace, preset), None, None, True
        )
        results[preset] = result
    regenerate.results = results

    base = results["dram"].total_cycles
    rows = []
    record = {"accesses": len(trace.addresses), "scale": SCALE}
    for preset, channels, interleave in CONFIGS:
        result = results[preset]
        speedup = base / result.total_cycles
        rows.append(
            (
                preset,
                str(channels),
                interleave,
                f"{result.total_cycles:,}",
                f"{result.avg_latency:.2f}",
                f"{speedup:.2f}x",
            )
        )
        record[f"{preset}_cycles"] = int(result.total_cycles)
        record[f"{preset}_speedup"] = round(speedup, 3)
    common.record_channel_scaling("spmv_channel_scaling", **record)
    return format_table(
        ["DRAM", "channels", "interleave", "cycles", "avg lat [cyc]", "speedup"],
        rows,
        title="Extension ext2 — SpMV vs DRAM channel count",
    )


def test_channel_scaling(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("channel_scaling", text)
    results = regenerate.results
    one = results["dram"].total_cycles
    two = results["mcdram_2ch"].total_cycles
    four = results["mcdram_4ch"].total_cycles
    # The acceptance bar: latency improves monotonically 1 -> 4
    # channels, strictly overall.
    assert one >= two >= four
    assert four < one
    # Block interleaving keeps streams channel-local; it must not beat
    # low-order interleaving on this streaming-dominated workload.
    assert results["mcdram_2ch_block"].total_cycles >= two
