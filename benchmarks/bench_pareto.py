"""perf8 — pareto extraction: sort-and-filter against the all-pairs oracle.

Every exploration layer reduces its candidates to a pareto front
through :func:`repro.util.pareto.pareto_indices`: APEX over
(cost, miss ratio), Phase I over each memory architecture's estimates,
Phase II over the simulated designs. This benchmark captures the
objective vectors those calls really receive and times two ways of
extracting the front from them:

* the **oracle** — the definition, every point tested against every
  other with :func:`~repro.util.pareto.dominates` in pure Python;
* **sort-and-filter** — ``pareto_indices`` itself: a lexicographic
  sort, then each point tested with NumPy row operations against the
  front kept so far.

Three records, at the call sizes of the perfbench workloads:

* ``compress_apex`` — the APEX call of one compress exploration (scale
  0.05, input 0: 240 two-objective candidates);
* ``compress_phase1`` — that exploration's largest Phase I call (714
  three-objective estimates of one memory architecture);
* ``spmv_op`` — every call of one spmv exploration (scale 0.2, input 0),
  which together offer 3,171 points, as one warm-spmv op does.

Each record asserts the two paths return identical indices. Full runs
take the best of :data:`REPEATS` and assert the sort-and-filter path is
at least :data:`SPEEDUP_FLOOR` times faster; ``REPRO_BENCH_SMOKE=1``
checks equality only. Records land in
``benchmarks/out/BENCH_pareto.json``.
"""

import time

import common
from common import SMOKE
import repro.util.pareto as pareto
from repro import run_memorex
from repro.util.pareto import dominates
from repro.workloads import get_workload

REPEATS = 1 if SMOKE else 3

SPEEDUP_FLOOR = 5.0


def all_pairs_indices(points):
    """The definition: indices no other point dominates, in input order."""
    return [
        i
        for i, p in enumerate(points)
        if not any(dominates(q, p) for j, q in enumerate(points) if j != i)
    ]


def captured_calls(name: str, scale: float) -> list[list[tuple]]:
    """The vectors every ``pareto_indices`` call of one exploration gets."""
    calls = []
    original = pareto.pareto_indices

    def recording(points):
        calls.append(list(points))
        return original(points)

    pareto.pareto_indices = recording
    try:
        run_memorex(get_workload(name, scale=scale, seed=0), workers=1)
    finally:
        pareto.pareto_indices = original
    return calls


def _best_time(function, calls) -> tuple[float, list]:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        results = [function(points) for points in calls]
        best = min(best, time.perf_counter() - start)
    return best, results


def measure(stem: str, calls: list[list[tuple]]) -> dict:
    oracle_seconds, expected = _best_time(all_pairs_indices, calls)
    sort_filter_seconds, got = _best_time(pareto.pareto_indices, calls)
    assert got == expected, stem
    return common.record_pareto_timing(
        stem,
        calls=len(calls),
        points=sum(len(points) for points in calls),
        largest_call=max(len(points) for points in calls),
        kept=sum(len(indices) for indices in got),
        repeats=REPEATS,
        oracle_seconds=round(oracle_seconds, 4),
        sort_filter_seconds=round(sort_filter_seconds, 4),
        speedup=round(oracle_seconds / sort_filter_seconds, 1)
        if sort_filter_seconds > 0
        else None,
        smoke=SMOKE,
    )


def regenerate() -> str:
    compress = captured_calls("compress", 0.05)
    spmv = captured_calls("spmv", 0.2)
    records = [
        measure("compress_apex", [compress[0]]),
        measure("compress_phase1", [max(compress, key=len)]),
        measure("spmv_op", spmv),
    ]
    regenerate.records = records
    lines = ["pareto extraction: all-pairs oracle vs sort-and-filter"]
    for r in records:
        lines.append(
            f"  {r['name']:<16} {r['points']:>5} points in {r['calls']} "
            f"call(s), {r['kept']:>4} kept: "
            f"oracle {r['oracle_seconds']:.4f}s, "
            f"sort-and-filter {r['sort_filter_seconds']:.4f}s "
            f"({r['speedup']}x)"
        )
    return "\n".join(lines)


def test_pareto_extraction(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("pareto_extraction", text)
    if not SMOKE:
        for record in regenerate.records:
            assert record["speedup"] >= SPEEDUP_FLOOR, record
