"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestListingCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("compress", "li", "vocoder", "dct", "synthetic"):
            assert name in out

    def test_libraries(self, capsys):
        assert main(["libraries"]) == 0
        out = capsys.readouterr().out
        assert "memory IP library" in out
        assert "connectivity IP library" in out
        assert "cache_8k_32b_2w" in out
        assert "ahb" in out


class TestTraceCommand:
    def test_profile_printed(self, capsys):
        assert main(["trace", "vocoder", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "accesses" in out
        assert "speech_in" in out

    def test_save_round_trips(self, tmp_path, capsys):
        path = tmp_path / "trace.npz"
        assert main(["trace", "dct", "--scale", "0.3", "--save", str(path)]) == 0
        assert path.exists()
        from repro.io import load_trace

        trace = load_trace(path)
        assert len(trace) > 0

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "quake"])


class TestApexCommand:
    def test_selection_printed(self, capsys):
        assert main(["apex", "vocoder", "--scale", "0.3", "--select", "3"]) == 0
        out = capsys.readouterr().out
        assert "selected 3" in out or "selected" in out
        assert "gates" in out


class TestExploreCommand:
    def test_full_report_and_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        report_path = tmp_path / "report.txt"
        code = main(
            [
                "explore",
                "vocoder",
                "--scale",
                "0.3",
                "--select",
                "3",
                "--keep",
                "4",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ConEx exploration report" in out
        assert "knee-point recommendation" in out
        assert "Final pareto designs" in out
        assert csv_path.exists() and json_path.exists()
        payload = json.loads(json_path.read_text())
        assert payload["design_points"]
        assert "knee-point recommendation" in report_path.read_text()


class TestNamedBackend:
    def test_coverage_opens_one_pool_backend_per_command(
        self, monkeypatch, capsys
    ):
        import repro.cli
        from repro.exec.runtime import ExecutionRuntime, set_default_runtime

        built = []

        class RecordingRuntime(ExecutionRuntime):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.cli, "ExecutionRuntime", RecordingRuntime)
        previous = set_default_runtime(None)
        try:
            code = main(
                ["coverage", "vocoder", "--scale", "0.1", "--backend",
                 "pool", "--jobs", "2"]
            )
        finally:
            default = set_default_runtime(previous)
        assert code == 0
        assert "Pareto coverage" in capsys.readouterr().out
        # Every batch of the three strategies ran on the command's one
        # runtime, never on the process-wide default, and the command
        # closed it on exit.
        assert default is None
        assert len(built) == 1
        assert built[0].stats.batches >= 1
        assert built[0].closed
