"""Tests for DRAM banking, energy breakdown, and the coverage CLI."""

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.errors import ConfigurationError
from repro.memory.dram import Dram
from repro.sim import simulate
from repro.trace.events import AccessKind, TraceBuilder

R = AccessKind.READ


class TestDramBanking:
    def test_banks_validated(self):
        with pytest.raises(ConfigurationError):
            Dram("d", banks=3)
        with pytest.raises(ConfigurationError):
            Dram("d", banks=0)

    def test_interleaved_streams_conflict_on_one_bank(self):
        """Two streams alternating rows thrash a single open row but
        coexist on a banked part."""
        single = Dram("s", banks=1, row_bytes=1024)
        banked = Dram("b", banks=2, row_bytes=1024)
        for i in range(50):
            for dram in (single, banked):
                dram.access(0x0000 + 32 * i, 32, R, i)  # row 0 -> bank 0
                dram.access(0x0400 + 32 * i, 32, R, i)  # row 1 -> bank 1
        assert banked.page_hits > single.page_hits

    def test_same_row_hits_regardless_of_banks(self):
        banked = Dram("b", banks=4)
        banked.access(0x100, 32, R, 0)
        assert banked.access(0x120, 32, R, 1).latency == banked.page_hit_latency

    def test_reset_clears_all_banks(self):
        banked = Dram("b", banks=4)
        for i in range(4):
            banked.access(i * 1024, 32, R, i)
        banked.reset()
        for i in range(4):
            assert banked.latency_for(i * 1024) == banked.core_latency

    def test_banked_preset_in_library(self, mem_library):
        dram = mem_library.get("dram_4bank").instantiate()
        assert isinstance(dram, Dram)
        assert dram.banks == 4

    def test_apex_dram_preset_knob(self, mem_library, compress_trace, compress_workload):
        from repro.apex.explorer import ApexConfig, explore_memory_architectures

        config = ApexConfig(
            cache_options=("cache_4k_16b_1w",),
            stream_buffer_options=(None,),
            dma_options=(None,),
            map_indexed_to_sram=(False,),
            select_count=1,
            dram_options=("dram_4bank",),
        )
        result = explore_memory_architectures(
            compress_trace, mem_library, config, hints=compress_workload.pattern_hints
        )
        assert all(e.architecture.dram.banks == 4 for e in result.evaluated)


class TestEnergyBreakdown:
    def test_breakdown_sums_to_total(self, tiny_trace, cache_architecture):
        result = simulate(tiny_trace, cache_architecture)
        assert sum(result.energy_breakdown.values()) == pytest.approx(
            result.avg_energy_nj
        )
        assert set(result.energy_breakdown) == {"modules", "dram", "connectivity"}

    def test_ideal_connectivity_has_zero_wire_energy(
        self, tiny_trace, cache_architecture
    ):
        result = simulate(tiny_trace, cache_architecture)
        assert result.energy_breakdown["connectivity"] == 0.0
        assert result.connectivity_energy_fraction == 0.0

    def test_connectivity_fraction_small(
        self, compress_trace, cache_architecture, conn_library
    ):
        """The paper's observation: connectivity power is small
        compared to the memory modules/DRAM."""
        from tests.conftest import simple_connectivity

        conn = simple_connectivity(
            cache_architecture, compress_trace, conn_library
        )
        result = simulate(compress_trace, cache_architecture, conn)
        assert 0.0 < result.connectivity_energy_fraction < 0.35

    def test_uncached_energy_is_dram_dominated(self, tiny_trace, mem_library):
        dram = mem_library.get("dram").instantiate()
        arch = MemoryArchitecture("u", [], dram, {}, "dram")
        result = simulate(tiny_trace, arch)
        assert result.energy_breakdown["dram"] > 0.9 * result.avg_energy_nj
        assert result.energy_breakdown["modules"] == 0.0


class TestCoverageCli:
    def test_coverage_command(self, capsys):
        from repro.cli import main

        assert main(["coverage", "vocoder", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "Pruned" in out
        assert "Neighborhood" in out
        assert "Full" in out
        assert "100%" in out  # Full always covers itself
