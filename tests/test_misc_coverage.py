"""Coverage tests for smaller behaviours across the library."""

import numpy as np
import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.apex.explorer import ApexConfig, explore_memory_architectures
from repro.conex.explorer import ConExConfig, connectivity_exploration
from repro.errors import ConfigurationError
from repro.sim import simulate


class TestConExConfigKnobs:
    def test_min_logical_connections_skips_fine_levels(
        self, compress_trace, compress_workload, mem_library, conn_library
    ):
        apex = explore_memory_architectures(
            compress_trace,
            mem_library,
            ApexConfig(
                cache_options=("cache_4k_16b_1w",),
                stream_buffer_options=("stream_buffer_4",),
                dma_options=("si_dma_32",),
                map_indexed_to_sram=(False,),
                select_count=1,
            ),
            hints=compress_workload.pattern_hints,
        )
        evaluated = apex.selected[0]
        coarse_only = ConExConfig(
            max_logical_connections=3,
            min_logical_connections=2,
            max_assignments_per_level=16,
        )
        _, points = connectivity_exploration(
            compress_trace, evaluated, conn_library, coarse_only
        )
        sizes = {len(p.connectivity.clusters) for p in points}
        assert sizes <= {2, 3}
        assert points

    def test_duplicate_signatures_deduplicated(
        self, compress_trace, compress_workload, mem_library, conn_library
    ):
        apex = explore_memory_architectures(
            compress_trace,
            mem_library,
            ApexConfig(
                cache_options=("cache_4k_16b_1w",),
                stream_buffer_options=(None,),
                dma_options=(None,),
                map_indexed_to_sram=(False,),
                select_count=1,
            ),
            hints=compress_workload.pattern_hints,
        )
        _, points = connectivity_exploration(
            compress_trace,
            apex.selected[0],
            conn_library,
            ConExConfig(max_logical_connections=4, max_assignments_per_level=64),
        )
        signatures = [p.connectivity.preset_signature() for p in points]
        assert len(signatures) == len(set(signatures))


class TestDescribeMethods:
    def test_module_describe(self, mem_library):
        for name in ("cache_8k_32b_2w", "sram_4k", "stream_buffer_4",
                     "si_dma_32", "ll_dma_32"):
            module = mem_library.get(name).instantiate()
            text = module.describe()
            assert module.kind in text

    def test_component_repr(self, conn_library):
        component = conn_library.get("ahb").instantiate()
        assert "AhbBus" in repr(component)

    def test_architecture_repr(self, cache_architecture):
        assert "cache_only" in repr(cache_architecture)

    def test_simulator_repr(self, tiny_trace, cache_architecture):
        from repro.sim import Simulator

        simulator = Simulator(tiny_trace, cache_architecture)
        assert "ideal" in repr(simulator)


class TestCliNewWorkloads:
    @pytest.mark.parametrize("name", ["dct", "matmul"])
    def test_trace_command(self, name, capsys):
        from repro.cli import main

        assert main(["trace", name, "--scale", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "accesses" in out


class TestArchitectureEdges:
    def test_architecture_without_modules_is_uncached(
        self, mem_library, tiny_trace
    ):
        dram = mem_library.get("dram").instantiate()
        architecture = MemoryArchitecture("u", [], dram, {}, "dram")
        result = simulate(tiny_trace, architecture)
        assert result.memory_cost_gates == 0.0
        assert result.miss_ratio == 1.0

    def test_two_srams(self, mem_library, tiny_trace):
        sram_a = mem_library.get("sram_1k").instantiate("sram_a")
        sram_b = mem_library.get("sram_1k").instantiate("sram_b")
        dram = mem_library.get("dram").instantiate()
        architecture = MemoryArchitecture(
            "two",
            [sram_a, sram_b],
            dram,
            {"stream": "sram_a", "table": "sram_b"},
            "dram",
        )
        result = simulate(tiny_trace, architecture)
        assert result.miss_ratio == 0.0
        assert result.modules["sram_a"].accesses == 64
        assert result.modules["sram_b"].accesses == 64

    @pytest.mark.parametrize("batch", [False, True])
    def test_negative_latency_guard(self, mem_library, tiny_trace, batch):
        """Modules returning nonsense latencies are caught.

        Covered for both paths: ``batch=True`` keeps the broken
        scalar/batched pair in lockstep (the engine's vectorized guard
        fires), ``batch=False`` honours the ``supports_batch`` contract
        for a scalar-only override, which neither batches nor replays,
        so the run falls back to the reference loop (its guard fires).
        """
        from repro.errors import SimulationError
        from repro.memory.sram import Sram

        class BrokenSram(Sram):
            supports_batch = batch

            def access(self, address, size, kind, tick):
                response = super().access(address, size, kind, tick)
                return type(response)(hit=True, latency=-5)

            def access_many(self, addresses, sizes, kinds):
                response = super().access_many(addresses, sizes, kinds)
                return type(response)(
                    hit=response.hit,
                    latency=np.full(len(addresses), -5, dtype=np.int64),
                )

        broken = BrokenSram("bad", 4096)
        dram = mem_library.get("dram").instantiate()
        architecture = MemoryArchitecture(
            "b", [broken], dram, {"stream": "bad", "table": "bad"}, "dram"
        )
        with pytest.raises(SimulationError):
            simulate(tiny_trace, architecture)

    @pytest.mark.parametrize("first_bad", [20, 36])
    @pytest.mark.parametrize("dma", [False, True])
    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("amba", [False, True])
    def test_negative_latency_guard_every_walk(
        self, mem_library, conn_library, tiny_trace, amba, sampled, dma,
        first_bad,
    ):
        """Every guard of the engine names the reference loop's access.

        The ``stream`` reads sit at even trace indices; from
        ``first_bad`` on, the SRAM serving them answers with a nonsense
        latency. Under the sampling below access 20 is off-window and
        access 36 on-window, so the grid reaches the vectorized guard
        (ideal, no DMA), the off-window span fold (AMBA, sampled, no
        DMA) and the walk's per-row guard over compacted on-window rows
        or, with a replaying DMA engine in the group, over every row.
        """
        from repro.errors import SimulationError
        from repro.memory.sram import Sram
        from repro.sim.sampling import SamplingConfig
        from repro.sim.simulator import Simulator
        from tests.conftest import simple_connectivity

        bad_from = 0x1000 + 2 * first_bad

        class BrokenSram(Sram):
            def access(self, address, size, kind, tick):
                response = super().access(address, size, kind, tick)
                if address < bad_from:
                    return response
                return type(response)(hit=True, latency=-100)

            def access_many(self, addresses, sizes, kinds):
                response = super().access_many(addresses, sizes, kinds)
                latency = np.where(
                    addresses >= bad_from, -100, response.latency
                )
                return type(response)(hit=response.hit, latency=latency)

        def simulator():
            modules = [BrokenSram("bad", 4096)]
            mapping = {"stream": "bad"}
            if dma:
                modules.append(
                    mem_library.get("si_dma_32").instantiate("dma")
                )
                mapping["table"] = "dma"
            memory = MemoryArchitecture(
                "b", modules, mem_library.get("dram").instantiate(),
                mapping, "dram",
            )
            connectivity = (
                simple_connectivity(memory, tiny_trace, conn_library)
                if amba
                else None
            )
            sampling = (
                SamplingConfig(on_window=8, off_ratio=3, warmup=2)
                if sampled
                else None
            )
            return Simulator(tiny_trace, memory, connectivity, sampling)

        with pytest.raises(SimulationError) as reference:
            simulator().run(reference=True)
        with pytest.raises(SimulationError) as engine:
            simulator().run(reference=False)
        assert str(reference.value).startswith(f"access {first_bad} ")
        assert str(engine.value) == str(reference.value)


class TestWorkloadRegistryCompleteness:
    def test_all_seven_registered(self):
        from repro.workloads import workload_names

        assert set(workload_names()) == {
            "compress",
            "dct",
            "li",
            "matmul",
            "spmv",
            "synthetic",
            "vocoder",
        }

    @pytest.mark.parametrize(
        "name",
        ["compress", "dct", "li", "matmul", "spmv", "synthetic", "vocoder"],
    )
    def test_hints_cover_trace_structs(self, name):
        from repro.workloads import get_workload

        workload = get_workload(name, scale=0.1, seed=2)
        trace = workload.trace()
        assert set(workload.pattern_hints) >= set(trace.structs)

    def test_scale_validation_uniform(self):
        from repro.workloads import get_workload

        with pytest.raises(ConfigurationError):
            get_workload("matmul", scale=-1.0)
