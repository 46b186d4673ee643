"""perf11 — daemon memory soak: does RSS level off under repeat jobs?

The service daemon lives for days, so whatever it keeps per job adds
up. This benchmark runs the service-repeat job mix in one fresh
interpreter, the way a ``repro serve`` runner thread does: one
:class:`~repro.service.runner.TenantCaches` over a cache directory, one
:class:`~repro.service.jobs.JobStore`, and one 2-worker
:class:`~repro.exec.runtime.ExecutionRuntime`, driven through
:func:`~repro.service.runner.execute_job`. Each round is one cache
miss (an ``apex`` job on compress at scale 0.1 with a seed no earlier
round used) and then nine cache hits (``apex`` on vocoder at scale
0.2, one fixed seed).

After every miss the child reads its own ``VmRSS`` and the ``VmRSS``
of each of its children (the pool workers and the pool's helper
process) from ``/proc``. The record holds both series, the growth per
miss fitted by least squares over the second half of the run (after
the warm-up that fills the bounded stores), for the daemon alone and
for the whole process tree, the number of results the tenant cache
holds in memory at the end, and the median hit and miss job times.

Gate (full and smoke runs): the daemon's second-half growth stays
under :data:`GROWTH_GATE_MB` per miss. A store that keeps something
per miss for the daemon's life shows here as a steady slope; bounded
stores level off. The tree's growth is recorded, not gated: the
workers' RSS moves by a few tenths of a MB between samples.

``python benchmarks/bench_service_memory.py --baseline REV`` also soaks
the ``src/`` tree of git revision ``REV`` and records it as
``baseline_soak`` with the revision named (not gated), so
``docs/performance.md`` quotes both sides from one file. Records land
in ``benchmarks/out/BENCH_service_memory.json``;
``REPRO_BENCH_SMOKE=1`` runs fewer rounds and writes under
``benchmarks/out/smoke/``. Needs Linux ``/proc``.
"""

import argparse
import json
import pathlib
import platform
import subprocess
import sys
import tempfile

import common
from common import SMOKE

#: Cache-missing jobs per soak (each followed by :data:`HITS_PER_MISS`
#: hits). Smoke still runs past the warm-up, so its second half sees
#: the bounded stores full.
MISSES = 16 if SMOKE else 30
HITS_PER_MISS = 9

#: Ceiling on the daemon's fitted second-half RSS growth, MB per miss.
#: The unbounded stores grew it about 2.4 MB a miss.
GROWTH_GATE_MB = 0.5

# The child reads /proc directly: the soak must not import anything
# the daemon would not.
_CHILD = """
import json, os, statistics, sys, time

from repro.exec.runtime import ExecutionRuntime
from repro.service.jobs import Job, JobStore
from repro.service.runner import TenantCaches, execute_job
from repro.service.schemas import parse_job_spec

cache_dir, misses, hits_per_miss = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
HIT = {"kind": "apex", "workload": "vocoder", "scale": 0.2, "workers": 2, "seed": 1}
MISS = {"kind": "apex", "workload": "compress", "scale": 0.1, "workers": 2}


def rss_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024
    except OSError:  # the process exited between listing and reading
        pass
    return 0.0


def children():
    pids = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as listing:
                pids.update(int(pid) for pid in listing.read().split())
        except OSError:
            pass
    return sorted(pids)


caches = TenantCaches(cache_dir)
store = JobStore()


def run(spec):
    job = Job(spec=parse_job_spec(spec))
    store.add(job)
    start = time.perf_counter()
    execute_job(job, store, caches, runtime=runtime)
    elapsed = time.perf_counter() - start
    if job.state != "done":
        raise SystemExit(f"job {spec} ended {job.state}: {job.error}")
    return elapsed


with ExecutionRuntime(workers=2) as runtime:
    run(HIT)  # fill the hit's cache entries
    self_mb, children_mb, hit_s, miss_s = [], [], [], []
    for round_number in range(misses):
        miss_s.append(run(dict(MISS, seed=1000 + round_number)))
        self_mb.append(rss_mb("self"))
        children_mb.append(sum(rss_mb(pid) for pid in children()))
        hit_s.extend(run(HIT) for _ in range(hits_per_miss))
    print(json.dumps({
        "self_mb": self_mb,
        "children_mb": children_mb,
        "hit_s_p50": statistics.median(hit_s),
        "miss_s_p50": statistics.median(miss_s),
        "memory_entries": len(caches.get("default")),
    }))
"""


def _slope(values: list[float]) -> float:
    """Least-squares growth per step of ``values``."""
    n = len(values)
    mean_x = (n - 1) / 2
    mean_y = sum(values) / n
    covariance = sum((x - mean_x) * (y - mean_y) for x, y in enumerate(values))
    variance = sum((x - mean_x) ** 2 for x in range(n))
    return covariance / variance


def _soak(src: pathlib.Path) -> dict:
    with tempfile.TemporaryDirectory(prefix="soak-cache-") as cache_dir:
        probe = subprocess.run(
            [sys.executable, "-c", _CHILD, cache_dir,
             str(MISSES), str(HITS_PER_MISS)],
            capture_output=True,
            text=True,
            env=common.fresh_env(src),
            timeout=1800,
        )
    if probe.returncode != 0:
        raise RuntimeError(f"soak on {src} failed:\n{probe.stderr}")
    return json.loads(probe.stdout.strip().splitlines()[-1])


def _record(name: str, source: str, soak: dict) -> dict:
    total = [a + b for a, b in zip(soak["self_mb"], soak["children_mb"])]
    half = len(total) // 2
    return common.record_service_memory(
        name,
        source=source,
        misses=MISSES,
        hits_per_miss=HITS_PER_MISS,
        self_mb=[round(value, 1) for value in soak["self_mb"]],
        children_mb=[round(value, 1) for value in soak["children_mb"]],
        growth_mb_per_miss=round(_slope(soak["self_mb"][half:]), 3),
        tree_growth_mb_per_miss=round(_slope(total[half:]), 3),
        memory_entries=soak["memory_entries"],
        hit_s_p50=round(soak["hit_s_p50"], 4),
        miss_s_p50=round(soak["miss_s_p50"], 3),
        python=platform.python_version(),
        smoke=SMOKE,
    )


def _line(r: dict) -> str:
    return (
        f"  {r['name']:<13} ({r['source']}): daemon "
        f"{r['self_mb'][0]:.1f} -> {r['self_mb'][-1]:.1f} MB, children "
        f"{r['children_mb'][0]:.1f} -> {r['children_mb'][-1]:.1f} MB; "
        f"second-half growth {r['growth_mb_per_miss']:+.3f} MB/miss "
        f"(tree {r['tree_growth_mb_per_miss']:+.3f}); "
        f"{r['memory_entries']} results in memory; "
        f"hit p50 {r['hit_s_p50']:.4f}s, miss p50 {r['miss_s_p50']:.3f}s"
    )


def regenerate(baseline: str | None = None) -> str:
    records = [_record("soak", "working tree", _soak(common.REPO_ROOT / "src"))]
    if baseline is not None:
        with tempfile.TemporaryDirectory(prefix="soak-src-") as scratch:
            revision, src = common.revision_src(baseline, pathlib.Path(scratch))
            records.append(_record("baseline_soak", revision, _soak(src)))
    lines = [
        f"service memory soak: {MISSES} rounds of 1 miss + "
        f"{HITS_PER_MISS} hits, 2 workers, RSS after each miss"
    ]
    lines.extend(_line(r) for r in records)
    growth = records[0]["growth_mb_per_miss"]
    assert growth < GROWTH_GATE_MB, (
        f"the daemon still grows {growth:.3f} MB per miss over the second half "
        f"(gate {GROWTH_GATE_MB} MB)"
    )
    return "\n".join(lines)


def test_service_memory(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("service_memory", text)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        metavar="REV",
        help="also soak the src/ tree of this git revision (not gated)",
    )
    common.write_output(
        "service_memory", regenerate(parser.parse_args().baseline)
    )
