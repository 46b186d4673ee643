"""Start-up: what a fresh interpreter pays to load repro and explore once.

A CLI command, a perfbench cold-compress run and every pool worker
start from a fresh interpreter, so whatever ``import repro`` loads is
paid on every run. Two legs, each timed in its own fresh interpreter
with every ``REPRO_*`` variable removed from its environment:

* ``import`` — ``import repro`` alone;
* ``serial_dct`` — ``import repro``, then one ``run_memorex`` on dct
  at scale 0.02 with ``workers=1`` (the exploration perfbench's
  cold-compress runs as its warm-up).

Each record holds the best of :data:`REPEATS` wall times for the whole
process (interpreter start to exit: what a user waits for), for the
import and for the exploration, the median peak RSS, the number of
loaded modules, and which optional heavy stacks were loaded (networkx
and the process-pool stack). The legs run one process at a time,
interleaved.

``python benchmarks/bench_startup.py --baseline REV`` also times the
``src/`` tree of git revision ``REV``, interleaved with this tree and
alternating which side runs first, and records it as
``baseline_<leg>`` with the revision named, so ``docs/performance.md``
quotes both sides from one file. Records land in
``benchmarks/out/BENCH_startup.json``; ``REPRO_BENCH_SMOKE=1`` runs
two repeats and writes under ``benchmarks/out/smoke/``.
"""

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import common
from common import SMOKE

REPEATS = 2 if SMOKE else 7

LEGS = ("import", "serial_dct")

#: Stacks only an optional feature needs: ``to_networkx()`` and a
#: runtime that builds its process pool.
HEAVY_MODULES = ("networkx", "multiprocessing", "concurrent.futures.process")

# Peak RSS is the process's own VmHWM: ``ru_maxrss`` survives exec, so
# a child spawned from a bigger parent would report the parent's peak.
_CHILD = f"""
import json, resource, sys, time
start = time.perf_counter()
import repro
imported = time.perf_counter()
if sys.argv[1] == "serial_dct":
    from repro.workloads import get_workload
    result = repro.run_memorex(get_workload("dct", scale=0.02), workers=1)
    assert result.selected_points
done = time.perf_counter()
try:
    with open("/proc/self/status") as status:
        peak_kb = next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )
except OSError:  # no procfs: fall back to the inherited maximum
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "import_s": imported - start,
    "run_s": done - imported,
    "peak_rss_mb": peak_kb / 1024,
    "modules": len(sys.modules),
    "heavy_modules": [m for m in {HEAVY_MODULES!r} if m in sys.modules],
}}))
"""


def _run_once(leg: str, src: pathlib.Path) -> dict:
    start = time.perf_counter()
    probe = subprocess.run(
        [sys.executable, "-c", _CHILD, leg],
        capture_output=True,
        text=True,
        env=common.fresh_env(src),
        timeout=300,
    )
    process_s = time.perf_counter() - start
    if probe.returncode != 0:
        raise RuntimeError(f"{leg} on {src} failed:\n{probe.stderr}")
    sample = json.loads(probe.stdout.strip().splitlines()[-1])
    sample["process_s"] = process_s
    return sample


def _record(name: str, source: str, leg: str, samples: list[dict]) -> dict:
    return common.record_startup_timing(
        name,
        source=source,
        repeats=len(samples),
        process_s=round(min(s["process_s"] for s in samples), 3),
        import_s=round(min(s["import_s"] for s in samples), 3),
        run_s=round(min(s["run_s"] for s in samples), 3)
        if leg == "serial_dct"
        else None,
        peak_rss_mb=round(
            statistics.median(s["peak_rss_mb"] for s in samples), 1
        ),
        modules=samples[0]["modules"],
        heavy_modules=samples[0]["heavy_modules"],
        python=platform.python_version(),
        smoke=SMOKE,
    )


def regenerate(baseline: str | None = None) -> str:
    with tempfile.TemporaryDirectory(prefix="startup-") as scratch:
        trees = [("", "working tree", common.REPO_ROOT / "src")]
        if baseline is not None:
            revision, src = common.revision_src(baseline, pathlib.Path(scratch))
            trees.append(("baseline_", revision, src))
        samples = {(prefix, leg): [] for prefix, _, _ in trees for leg in LEGS}
        for repeat in range(REPEATS):
            order = trees if repeat % 2 == 0 else trees[::-1]
            for leg in LEGS:
                for prefix, _, src in order:
                    samples[prefix, leg].append(_run_once(leg, src))
    records = [
        _record(prefix + leg, source, leg, samples[prefix, leg])
        for prefix, source, _ in trees
        for leg in LEGS
    ]
    lines = [f"start-up, fresh interpreters, best of {REPEATS}"]
    for r in records:
        run = f", run {r['run_s']:.3f}s" if r["run_s"] is not None else ""
        lines.append(
            f"  {r['name']:<22} ({r['source']}): process {r['process_s']:.3f}s, "
            f"import {r['import_s']:.3f}s{run}, "
            f"peak RSS {r['peak_rss_mb']:.1f} MB, {r['modules']} modules, "
            f"heavy: {', '.join(r['heavy_modules']) or 'none'}"
        )
    return "\n".join(lines)


def test_startup(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("startup", text)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        metavar="REV",
        help="also time the src/ tree of this git revision",
    )
    common.write_output("startup", regenerate(parser.parse_args().baseline))
