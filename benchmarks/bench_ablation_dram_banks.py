"""Ablation abl4 — DRAM banking (library-extension experiment).

The default DRAM keeps one open row; the ``dram_4bank`` preset keeps
one per bank with row-interleaving. On workloads whose off-chip
traffic interleaves multiple regions (cache refills from different
structures, stream-buffer prefetches), banking converts row thrashing
into page hits — shorter refills and lower DRAM energy — at zero
on-chip gate cost (the banking lives off-chip).

This quantifies the extension so library users know when the banked
preset is worth selecting via ``ApexConfig.dram_options``.
"""

import common
from repro.apex.architectures import MemoryArchitecture
from repro.sim import simulate
from repro.util.tables import format_table

WORKLOADS = ("compress", "vocoder")


def _architecture(name, banks_preset):
    cache = common.MEMORY_LIBRARY.get("cache_4k_16b_1w").instantiate("cache")
    dram = common.MEMORY_LIBRARY.get(banks_preset).instantiate()
    return MemoryArchitecture(
        f"{name}_{banks_preset}", [cache], dram, {}, "cache"
    )


def regenerate() -> str:
    rows = []
    results = {}
    for name in WORKLOADS:
        trace = common.trace(name)
        single = simulate(trace, _architecture(name, "dram"))
        banked = simulate(trace, _architecture(name, "dram_4bank"))
        single_hits = single.modules  # noqa: F841 (kept for symmetry)
        results[name] = (single, banked)
        for label, result, arch_name in (
            ("1 bank", single, "dram"),
            ("4 banks", banked, "dram_4bank"),
        ):
            page_hits = _page_hit_ratio(trace, arch_name)
            rows.append(
                (
                    name if label == "1 bank" else "",
                    label,
                    f"{result.avg_latency:.2f}",
                    f"{result.avg_energy_nj:.2f}",
                    f"{100 * page_hits:.0f}%",
                )
            )
    regenerate.results = results
    return format_table(
        ["benchmark", "DRAM", "avg lat [cyc]", "energy [nJ]", "page hits"],
        rows,
        title="Ablation abl4 — DRAM banking under a small cache",
    )


def _page_hit_ratio(trace, dram_preset):
    architecture = _architecture(trace.name, dram_preset)
    simulate(trace, architecture)
    dram = architecture.dram
    return dram.page_hits / dram.accesses if dram.accesses else 0.0


def test_ablation_dram_banks(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("ablation_dram_banks", text)
    for name, (single, banked) in regenerate.results.items():
        # Banking never hurts, and helps at least one workload clearly.
        assert banked.avg_latency <= single.avg_latency + 1e-9, name
        assert banked.avg_energy_nj <= single.avg_energy_nj + 1e-9, name
    improvements = [
        single.avg_latency - banked.avg_latency
        for single, banked in regenerate.results.values()
    ]
    assert max(improvements) > 0.1
