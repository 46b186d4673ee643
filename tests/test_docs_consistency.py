"""Documentation consistency: the docs reference what actually exists.

Guards against doc rot: the experiment index's benchmark files, the
README's example commands, the packages named in the architecture
docs, and the ``REPRO_*`` knobs the prose names must all exist, the
``Settings`` docstring table must list every field, and the figures
``docs/performance.md`` quotes from the ``BENCH_*.json`` records must
match those records.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def read(name):
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_all_indexed_benchmarks_exist(self):
        referenced = set(
            re.findall(r"benchmarks/bench_[a-z0-9_]+\.py", read("DESIGN.md"))
        )
        assert referenced, "experiment index lists no benchmarks"
        for path in referenced:
            assert (ROOT / path).exists(), path

    def test_every_benchmark_is_indexed(self):
        referenced = set(
            re.findall(r"benchmarks/bench_[a-z0-9_]+\.py", read("DESIGN.md"))
        )
        on_disk = {
            f"benchmarks/{p.name}"
            for p in (ROOT / "benchmarks").glob("bench_*.py")
        }
        assert on_disk <= referenced, on_disk - referenced

    def test_inventory_names_importable_packages(self):
        import importlib

        for package in re.findall(r"`repro\.([a-z]+)`", read("DESIGN.md")):
            importlib.import_module(f"repro.{package}")
        # Every dotted `repro.a.b[.c]` citation in the prose docs must
        # name an importable module or an attribute reachable from one,
        # so deleting a module cannot leave citations behind.
        docs = ["DESIGN.md", "README.md"] + [
            f"docs/{p.name}" for p in sorted((ROOT / "docs").glob("*.md"))
        ]
        unresolved = []
        for doc in docs:
            for name in set(re.findall(r"`(repro(?:\.\w+)+)", read(doc))):
                parts = name.split(".")
                for cut in range(len(parts), 0, -1):
                    try:
                        owner = importlib.import_module(".".join(parts[:cut]))
                    except ModuleNotFoundError:
                        continue
                    for attribute in parts[cut:]:
                        owner = getattr(owner, attribute, None)
                    if owner is None:
                        unresolved.append(f"{doc}: {name}")
                    break
        assert not unresolved, unresolved


class TestReadme:
    def test_example_commands_exist(self):
        for path in re.findall(r"examples/[a-z_]+\.py", read("README.md")):
            assert (ROOT / path).exists(), path

    def test_every_example_is_listed(self):
        listed = set(re.findall(r"examples/[a-z_]+\.py", read("README.md")))
        on_disk = {
            f"examples/{p.name}" for p in (ROOT / "examples").glob("*.py")
        }
        assert on_disk <= listed, on_disk - listed

    def test_companion_docs_referenced_and_present(self):
        text = read("README.md")
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            assert name in text
            assert (ROOT / name).exists()


class TestExperimentsDoc:
    def test_references_real_outputs(self):
        for stem in re.findall(r"out/([a-z0-9_]+)\.txt", read("EXPERIMENTS.md")):
            bench_candidates = list(
                (ROOT / "benchmarks").glob("bench_*.py")
            )
            # Each referenced artifact must have a producing benchmark.
            producers = [
                p for p in bench_candidates if stem.split("_")[0] in p.name
            ]
            assert producers, stem

    def test_table2_measured_columns_match_the_output(self):
        """The measured time, coverage and distance columns of Table 2
        quote ``benchmarks/out/table2_coverage.txt``."""
        measured = [
            line.split()
            for line in read("benchmarks/out/table2_coverage.txt").splitlines()
            if line.split()[:1] in (["compress"], ["vocoder"])
        ]
        assert len(measured) == 6, measured
        text = read("EXPERIMENTS.md")
        start = text.index("## Table 2")
        section = text[start : text.index("\n## ", start + 1)]
        rows = {
            tuple(cells[:2]): cells
            for cells in (
                [cell.strip() for cell in line.strip("|").split("|")]
                for line in section.splitlines()
                if line.startswith(("| compress |", "| vocoder |"))
            )
        }
        assert len(rows) == 6, sorted(rows)
        for bench, strategy, time, coverage, cost, perf, energy in measured:
            cells = rows[(bench, strategy)]
            expected_dist = (
                f"{cost.rstrip('%')} / {perf.rstrip('%')} / {energy}"
            )
            assert (cells[3], cells[5], cells[7]) == (
                time, coverage, expected_dist
            ), (bench, strategy, cells)

    def test_reproduction_commands_present(self):
        text = read("EXPERIMENTS.md")
        assert "pytest tests/" in text
        assert "pytest benchmarks/ --benchmark-only" in text


class TestDocsDirectory:
    @pytest.mark.parametrize(
        "name", ["architecture.md", "calibration.md", "extending.md",
                 "api.md", "limitations.md", "performance.md",
                 "observability.md", "service.md"]
    )
    def test_docs_exist_and_nonempty(self, name):
        path = ROOT / "docs" / name
        assert path.exists()
        assert len(path.read_text()) > 500

    def test_calibration_constants_match_source(self):
        """Spot-check documented constants against the code."""
        from repro.connectivity import wire
        from repro.memory import area, energy

        text = read("docs/calibration.md")
        assert f"| `GATES_PER_SRAM_BIT` | {area.GATES_PER_SRAM_BIT} |" in text
        assert f"| `PAD_CAP_PF` | {wire.PAD_CAP_PF} |" in text
        assert f"| `DRAM_ACTIVATE_NJ` | {int(energy.DRAM_ACTIVATE_NJ)} |" in text


#: Prose docs that may name ``REPRO_*`` environment variables.
_KNOB_DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + [
    f"docs/{p.name}" for p in sorted((ROOT / "docs").glob("*.md"))
]


class TestConfigDocs:
    def test_every_documented_env_var_exists(self):
        from repro import config

        defined = {
            value
            for value in vars(config).values()
            if isinstance(value, str) and value.startswith("REPRO_")
        }
        unknown = []
        for doc in _KNOB_DOCS:
            for name in set(re.findall(r"\bREPRO_[A-Z0-9_]+", read(doc))):
                if name.endswith("_"):
                    # A wildcard such as `REPRO_SERVICE_*` must still
                    # cover at least one real knob.
                    if not any(knob.startswith(name) for knob in defined):
                        unknown.append(f"{doc}: {name}*")
                elif name not in defined:
                    unknown.append(f"{doc}: {name}")
        assert not unknown, unknown

    def test_settings_table_lists_every_field(self):
        from dataclasses import fields

        from repro.config import Settings

        table = dict(
            re.findall(
                r"^\s*``(\w+)``\s+``(REPRO_\w+)``", Settings.__doc__, re.M
            )
        )
        assert set(table) == {spec.name for spec in fields(Settings)}


class TestPerformanceDoc:
    def test_batch_evaluator_figures_match_the_json(self):
        """The perf6 trajectory row and the batch-evaluator prose quote
        the ``full_strategy_batch`` record of ``BENCH_parallel.json``."""
        import json

        records = json.loads(
            (ROOT / "benchmarks/out/BENCH_parallel.json").read_text()
        )
        record = next(
            r for r in records if r["name"] == "full_strategy_batch"
        )
        text = read("docs/performance.md")
        row = next(
            line
            for line in text.splitlines()
            if line.startswith("|") and "`BENCH_parallel.json`, perf6" in line
        )
        start = text.index("## Cross-candidate batch evaluation")
        # Whitespace-normalized, so a figure may wrap across lines.
        prose = " ".join(text[start : text.index("\n## ", start + 1)].split())
        expected = [
            f"{record['speedup']}×",
            f"per-run {record['serial_seconds']:.2f} s",
            f"batch {record['parallel_seconds']:.2f} s",
            f"{record['simulated']} candidates",
            f"{record['batch_groups']} memory-signature groups",
        ]
        for where, section in (("perf6 row", row), ("prose", prose)):
            missing = [figure for figure in expected if figure not in section]
            assert not missing, (where, missing)
        # No other speedup figure may sit in the row, and every
        # single-process figure in the prose is the recorded one.
        assert re.findall(r"\d+(?:\.\d+)?×", row) == [expected[0]], row
        quoted = re.findall(r"(\d+(?:\.\d+)?×) single-process", prose)
        assert quoted and set(quoted) == {expected[0]}, quoted

    def test_parallel_engine_row_matches_the_json(self):
        """The parallel-engine trajectory row quotes the
        ``full_strategy`` record of ``BENCH_parallel.json``."""
        import json

        records = json.loads(
            (ROOT / "benchmarks/out/BENCH_parallel.json").read_text()
        )
        record = next(r for r in records if r["name"] == "full_strategy")
        rows = [
            line
            for line in read("docs/performance.md").splitlines()
            if line.startswith("| parallel engine (`BENCH_parallel.json`)")
        ]
        assert len(rows) == 1, rows
        pool = min(record["workers"], record["cpu_count"])
        expected = [
            f"{record['simulated']} simulations",
            f"workers={record['workers']}",
            f"serial {record['serial_seconds']:.2f} s",
            f"parallel {record['parallel_seconds']:.2f} s",
            f"on {record['cpu_count']} CPUs",
            f"pool capped at {pool} processes",
            f"{record['speedup']:.2f}×",
        ]
        missing = [figure for figure in expected if figure not in rows[0]]
        assert not missing, missing
        # The only speedup in the row is the recorded one.
        assert re.findall(r"\d+(?:\.\d+)?×", rows[0]) == [expected[-1]]

    def test_one_engine_row_matches_the_json(self):
        """The one-engine trajectory row quotes the ``summary_sampled``
        and ``summary_unsampled`` records of ``BENCH_sim_kernel.json``,
        and its sampled minimum is the sampled DMA pair's speedup."""
        import json

        records = json.loads(
            (ROOT / "benchmarks/out/BENCH_sim_kernel.json").read_text()
        )
        by_name = {r["name"]: r for r in records}
        rows = [
            line
            for line in read("docs/performance.md").splitlines()
            if line.startswith("| one engine, ")
        ]
        assert len(rows) == 1, rows
        expected = []
        for mode in ("sampled", "unsampled"):
            summary = by_name[f"summary_{mode}"]
            expected.append(
                f"{summary['min_speedup']:.1f}× / "
                f"{summary['mean_speedup']:.1f}× / "
                f"{summary['max_speedup']:.1f}× over {summary['cases']} pairs"
            )
            expected.append(f"{summary['cpu_count']} CPUs")
        missing = [figure for figure in expected if figure not in rows[0]]
        assert not missing, missing
        # The six summary figures are the only speedups in the row.
        assert len(re.findall(r"\d+(?:\.\d+)?×", rows[0])) == 6, rows[0]
        dma = [r for r in records if "dma" in r and r["sampled"]]
        assert [r["speedup"] for r in dma] == [
            by_name["summary_sampled"]["min_speedup"]
        ]

    @pytest.mark.parametrize(
        "label, record_name, figures",
        [
            (
                "persistent runtime",
                "batch_dispatch",
                lambda r: [
                    f"{r['batches']} × {r['jobs_per_batch']}-job batches",
                    f"{r['accesses'] / 1e6:.2f} M accesses",
                    f"serial {r['serial_seconds']:.2f} s",
                    f"cold pools {r['cold_pool_seconds']:.2f} s",
                    f"persistent {r['persistent_seconds']:.2f} s",
                    f"on {r['cpu_count']} CPUs",
                    f"reads {r['overhead_ratio']:.1f}×",
                ],
            ),
            (
                "crash recovery",
                "crash_recovery",
                lambda r: [
                    f"{r['jobs']}-job batch",
                    f"clean {r['clean_seconds']:.2f} s",
                    f"faulted {r['faulted_seconds']:.2f} s",
                    f"+{r['recovery_seconds']:.2f} s",
                ],
            ),
            (
                "columnar Phase I",
                "columnar_phase1",
                lambda r: [
                    f"{r['candidates']} compress candidates",
                    f"per-candidate {r['scalar_seconds']:.3f} s",
                    f"columnar {r['columnar_seconds']:.3f} s",
                    f"{r['speedup']:.1f}×",
                ],
            ),
        ],
        ids=["persistent-runtime", "crash-recovery", "columnar-phase1"],
    )
    def test_runtime_rows_match_the_json(self, label, record_name, figures):
        """Each ``BENCH_runtime.json`` row of the perf trajectory quotes
        that file's record."""
        import json

        records = json.loads(
            (ROOT / "benchmarks/out/BENCH_runtime.json").read_text()
        )
        record = next(r for r in records if r["name"] == record_name)
        rows = [
            line
            for line in read("docs/performance.md").splitlines()
            if line.startswith(f"| {label} (`BENCH_runtime.json`)")
        ]
        assert len(rows) == 1, (label, rows)
        expected = figures(record)
        missing = [figure for figure in expected if figure not in rows[0]]
        assert not missing, (label, missing)
        if record_name == "columnar_phase1":
            # The only speedup in the row is the recorded one.
            assert re.findall(r"\d+(?:\.\d+)?×", rows[0]) == [expected[-1]]

    def test_pareto_figures_match_the_json(self):
        """The pareto-extraction table and trajectory row quote the
        records of ``BENCH_pareto.json``."""
        import json

        records = json.loads(
            (ROOT / "benchmarks/out/BENCH_pareto.json").read_text()
        )
        assert records and not any(r["smoke"] for r in records), records
        lines = read("docs/performance.md").splitlines()
        for record in records:
            rows = [
                line for line in lines
                if line.startswith(f"| `{record['name']}` |")
            ]
            assert len(rows) == 1, (record["name"], rows)
            cells = [cell.strip() for cell in rows[0].strip("|").split("|")]
            assert cells[1:] == [
                str(record["calls"]),
                f"{record['points']:,}",
                f"{record['largest_call']:,}",
                str(record["kept"]),
                f"{record['oracle_seconds']:.4f} s",
                f"{record['sort_filter_seconds']:.4f} s",
                f"{record['speedup']}×",
                str(record["cpu_count"]),
            ], rows[0]
        spmv = next(r for r in records if r["name"] == "spmv_op")
        rows = [
            line for line in lines
            if line.startswith("| pareto extraction (`BENCH_pareto.json`)")
        ]
        assert len(rows) == 1, rows
        expected = [
            f"{spmv['points']:,} points in {spmv['calls']} calls",
            f"oracle {spmv['oracle_seconds']:.4f} s",
            f"sort-and-filter {spmv['sort_filter_seconds']:.4f} s",
            f"on {spmv['cpu_count']} CPUs",
            f"{spmv['speedup']}×",
        ]
        missing = [figure for figure in expected if figure not in rows[0]]
        assert not missing, missing
        assert re.findall(r"\d+(?:\.\d+)?×", rows[0]) == [expected[-1]]

    def test_group_plan_row_matches_the_json(self):
        """The group-plan trajectory row quotes the record of
        ``BENCH_group_plan.json``."""
        import json

        records = json.loads(
            (ROOT / "benchmarks/out/BENCH_group_plan.json").read_text()
        )
        assert len(records) == 1 and not records[0]["smoke"], records
        record = records[0]
        rows = [
            line
            for line in read("docs/performance.md").splitlines()
            if line.startswith("| group plans (`BENCH_group_plan.json`")
        ]
        assert len(rows) == 1, rows
        expected = [
            f"{record['groups']} groups, {record['members']} members",
            f"empty memo {record['fresh_build_seconds']:.4f} s "
            f"({record['fresh_outcome_builds']} module runs)",
            f"shared memo {record['shared_build_seconds']:.4f} s "
            f"({record['shared_outcome_builds']} module runs, "
            f"{record['shared_outcome_hits']} memo hits)",
            f"on {record['cpu_count']} CPUs",
            f"{record['build_speedup']}×",
        ]
        missing = [figure for figure in expected if figure not in rows[0]]
        assert not missing, missing
        assert re.findall(r"\d+(?:\.\d+)?×", rows[0]) == [expected[-1]]

    def test_service_memory_rows_match_the_json(self):
        """The memory-soak table quotes every record of
        ``BENCH_service_memory.json``, this tree's and the baseline's."""
        import json

        records = json.loads(
            (ROOT / "benchmarks/out/BENCH_service_memory.json").read_text()
        )
        assert records and not any(r["smoke"] for r in records), records
        lines = read("docs/performance.md").splitlines()
        for record in records:
            rows = [
                line for line in lines
                if line.startswith(f"| `{record['name']}` |")
            ]
            assert len(rows) == 1, (record["name"], rows)
            cells = [cell.strip() for cell in rows[0].strip("|").split("|")]
            daemon, children = record["self_mb"], record["children_mb"]
            assert cells[1:] == [
                record["source"],
                str(record["misses"]),
                f"{daemon[0]:.1f} → {daemon[-1]:.1f} MB",
                f"{children[0]:.1f} → {children[-1]:.1f} MB",
                f"{record['growth_mb_per_miss']:.3f} MB/miss",
                f"{record['tree_growth_mb_per_miss']:.3f} MB/miss",
                str(record["memory_entries"]),
                f"{record['hit_s_p50']:.4f} s",
                f"{record['miss_s_p50']:.3f} s",
                str(record["cpu_count"]),
            ], rows[0]

    def test_startup_rows_match_the_json(self):
        """The start-up table quotes every record of
        ``BENCH_startup.json``, this tree's and the baseline's."""
        import json

        records = json.loads(
            (ROOT / "benchmarks/out/BENCH_startup.json").read_text()
        )
        assert records and not any(r["smoke"] for r in records), records
        lines = read("docs/performance.md").splitlines()
        for record in records:
            rows = [
                line for line in lines
                if line.startswith(f"| `{record['name']}` |")
            ]
            assert len(rows) == 1, (record["name"], rows)
            cells = [cell.strip() for cell in rows[0].strip("|").split("|")]
            run = record["run_s"]
            assert cells[1:] == [
                record["source"],
                f"{record['process_s']:.3f} s",
                f"{record['import_s']:.3f} s",
                "—" if run is None else f"{run:.3f} s",
                f"{record['peak_rss_mb']:.1f} MB",
                str(record["modules"]),
                ", ".join(record["heavy_modules"]) or "none",
                str(record["cpu_count"]),
            ], rows[0]
