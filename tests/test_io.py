"""Unit tests for trace persistence and design-point export."""

import csv
import json

import pytest

from repro.errors import TraceError
from repro.io import (
    export_design_points_csv,
    export_design_points_json,
    load_trace,
    save_trace,
    trace_fingerprint,
)


class TestTraceRoundTrip:
    def test_exact_round_trip(self, tiny_trace, tmp_path):
        path = tmp_path / "tiny.npz"
        save_trace(tiny_trace, path)
        loaded = load_trace(path)
        assert loaded.name == tiny_trace.name
        assert loaded.structs == tiny_trace.structs
        assert (loaded.addresses == tiny_trace.addresses).all()
        assert (loaded.sizes == tiny_trace.sizes).all()
        assert (loaded.kinds == tiny_trace.kinds).all()
        assert (loaded.struct_ids == tiny_trace.struct_ids).all()
        assert (loaded.ticks == tiny_trace.ticks).all()

    def test_round_trip_preserves_simulation(
        self, tiny_trace, tmp_path, cache_architecture
    ):
        from repro.sim import simulate

        path = tmp_path / "t.npz"
        save_trace(tiny_trace, path)
        loaded = load_trace(path)
        original = simulate(tiny_trace, cache_architecture)
        replayed = simulate(loaded, cache_architecture)
        assert original.avg_latency == replayed.avg_latency
        assert original.avg_energy_nj == replayed.avg_energy_nj

    def test_workload_trace_round_trip(self, compress_trace, tmp_path):
        path = tmp_path / "compress.npz"
        save_trace(compress_trace, path)
        loaded = load_trace(path)
        assert len(loaded) == len(compress_trace)
        assert loaded.counts_by_struct() == compress_trace.counts_by_struct()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "ghost.npz")

    def test_non_trace_npz_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "other.npz"
        np.savez(path, something=np.arange(4))
        with pytest.raises(TraceError):
            load_trace(path)

    @pytest.mark.parametrize(
        "content",
        [b"not a trace\n", b"", b"PK\x03\x04 torn archive"],
        ids=["text", "empty", "torn-zip"],
    )
    def test_file_that_is_not_an_archive_rejected(self, tmp_path, content):
        path = tmp_path / "bogus.npz"
        path.write_bytes(content)
        with pytest.raises(TraceError, match="not a trace file"):
            load_trace(path)

    def test_non_integer_version_rejected(self, tiny_trace, tmp_path):
        import numpy as np

        path = tmp_path / "t.npz"
        save_trace(tiny_trace, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["version"] = np.str_("two")
        bad = tmp_path / "bad-version.npz"
        np.savez_compressed(bad, **arrays)
        with pytest.raises(TraceError, match="not a trace file"):
            load_trace(bad)

    def test_corrupt_column_rejected(self, compress_trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(compress_trace, path)
        blob = bytearray(path.read_bytes())
        middle = len(blob) // 2
        for index in range(middle, middle + 64):
            blob[index] ^= 0xFF  # flip bytes inside a compressed column
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceError, match="not a trace file"):
            load_trace(path)


class TestFingerprintPersistence:
    def test_round_trip_preserves_identity(self, tiny_trace, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(tiny_trace, path)
        assert load_trace(path).fingerprint() == tiny_trace.fingerprint()

    def test_stored_fingerprint_readable_without_loading(
        self, tiny_trace, tmp_path
    ):
        path = tmp_path / "t.npz"
        save_trace(tiny_trace, path)
        assert trace_fingerprint(path) == tiny_trace.fingerprint()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceError):
            trace_fingerprint(tmp_path / "ghost.npz")

    def test_tampered_columns_detected(self, tiny_trace, tmp_path):
        import numpy as np

        path = tmp_path / "t.npz"
        save_trace(tiny_trace, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {key: data[key] for key in data.files}
        addresses = arrays["addresses"].copy()
        addresses[0] += 64
        arrays["addresses"] = addresses
        tampered = tmp_path / "tampered.npz"
        np.savez_compressed(tampered, **arrays)
        with pytest.raises(TraceError):
            load_trace(tampered)

    def test_version1_files_still_load(self, tiny_trace, tmp_path):
        import numpy as np

        path = tmp_path / "v1.npz"
        np.savez_compressed(
            path,
            version=np.int64(1),
            name=np.str_(tiny_trace.name),
            addresses=tiny_trace.addresses,
            sizes=tiny_trace.sizes,
            kinds=tiny_trace.kinds,
            struct_ids=tiny_trace.struct_ids,
            ticks=tiny_trace.ticks,
            structs=np.array(tiny_trace.structs, dtype=np.str_),
        )
        loaded = load_trace(path)
        assert loaded.fingerprint() == tiny_trace.fingerprint()
        with pytest.raises(TraceError):
            trace_fingerprint(path)


@pytest.fixture(scope="module")
def simulated_points():
    from repro.apex.explorer import ApexConfig, explore_memory_architectures
    from repro.conex.explorer import ConExConfig, explore_connectivity
    from repro.connectivity.library import default_connectivity_library
    from repro.memory.library import default_memory_library
    from repro.workloads import get_workload

    workload = get_workload("vocoder", scale=0.3, seed=1)
    trace = workload.trace()
    apex = explore_memory_architectures(
        trace,
        default_memory_library(),
        ApexConfig(
            cache_options=(None, "cache_4k_16b_1w"),
            stream_buffer_options=(None,),
            dma_options=(None,),
            map_indexed_to_sram=(False,),
            select_count=2,
        ),
        hints=workload.pattern_hints,
    )
    conex = explore_connectivity(
        trace,
        apex.selected,
        default_connectivity_library(),
        ConExConfig(max_logical_connections=3, max_assignments_per_level=8, phase1_keep=3),
    )
    return conex.simulated


class TestDesignPointExport:
    def test_json_export(self, simulated_points, tmp_path):
        path = tmp_path / "points.json"
        export_design_points_json(simulated_points, path)
        payload = json.loads(path.read_text())
        rows = payload["design_points"]
        assert len(rows) == len(simulated_points)
        assert all("cost_gates" in r and "label" in r for r in rows)
        assert all(isinstance(r["memory_modules"], list) for r in rows)

    def test_csv_export(self, simulated_points, tmp_path):
        path = tmp_path / "points.csv"
        export_design_points_csv(simulated_points, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(simulated_points)
        for row in rows:
            assert float(row["cost_gates"]) > 0
            assert float(row["avg_latency_cycles"]) >= 1.0

    def test_exports_agree(self, simulated_points, tmp_path):
        json_path = tmp_path / "p.json"
        csv_path = tmp_path / "p.csv"
        export_design_points_json(simulated_points, json_path)
        export_design_points_csv(simulated_points, csv_path)
        json_rows = json.loads(json_path.read_text())["design_points"]
        with open(csv_path) as handle:
            csv_rows = list(csv.DictReader(handle))
        for j, c in zip(json_rows, csv_rows):
            assert j["label"] == c["label"]
            assert abs(j["cost_gates"] - float(c["cost_gates"])) < 0.1
