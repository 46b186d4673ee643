"""perf4 — observability overhead on the simulation hot path.

The :mod:`repro.obs` layer promises to be effectively free: near-zero
when disabled (the default), and a small bounded cost when enabled.
This benchmark holds it to that promise with two measurements over a
serial ``simulate_batch`` batch (cache disabled, so every run is real
simulation work):

* **Enabled overhead** — the same batch timed with recording off and
  on; the enabled wall time must stay within 5% of the disabled one.
  The two legs alternate run by run (and so does which leg of a pair
  runs first), each keeping its best of N, so drift within the process
  falls on both legs alike instead of on whichever ran second.
  While enabled, every memory-signature group records its
  ``sim.batch.group`` span, every simulation its run counters, and the
  engine the batch accounting — the full instrumentation cost.
* **Disabled overhead** — what the instrumentation costs when nobody
  asked for it. The in-simulation call sites all guard on one
  module-global boolean (``span()`` additionally returns a shared
  no-op singleton), so the cost is estimated as (disabled per-call
  cost, microbenchmarked over 200k calls) x (calls per batch, counted
  from an enabled run's registry), as a fraction of the batch wall
  time. It must stay under 1%.

``REPRO_BENCH_SMOKE=1`` shrinks the trace and repeat count for CI; the
threshold assertions only fire on full runs (a loaded CI box can miss
a 5% timing bar without that saying anything about the layer). Records
land in ``benchmarks/out/BENCH_obs.json``.
"""

import time

import common
from common import SMOKE
from repro import obs
from repro.apex.architectures import MemoryArchitecture
from repro.exec import NullCache, SimulationJob, simulate_batch
from repro.workloads import get_workload

TRACE_SCALE = 0.3 if SMOKE else 2.0

#: Best-of-N timing repeats per leg.
REPEATS = 2 if SMOKE else 5

#: Disabled-mode microbenchmark iterations (span + incr per loop).
MICRO_CALLS = 50_000 if SMOKE else 200_000

ENABLED_OVERHEAD_LIMIT = 5.0  # percent
DISABLED_OVERHEAD_LIMIT = 1.0  # percent

_PRESETS = ("cache_8k_32b_2w", "cache_16k_32b_2w", "cache_32k_32b_2w")


def _jobs():
    jobs = []
    for preset in _PRESETS:
        cache = common.MEMORY_LIBRARY.get(preset).instantiate("cache")
        dram = common.MEMORY_LIBRARY.get("dram").instantiate()
        memory = MemoryArchitecture(
            f"obs_{preset}", [cache], dram, {}, "cache"
        )
        jobs.append(SimulationJob(memory=memory))
    return jobs


def _time_legs(trace, jobs) -> tuple[float, float]:
    """Best-of-``REPEATS`` seconds with recording off and on.

    Each repeat times one batch per leg, the disabled leg first on even
    repeats and the enabled leg first on odd ones. Only the enabled
    batches record, so the registry ends up holding exactly
    ``REPEATS`` batches' spans and counters.
    """
    best = {False: float("inf"), True: float("inf")}
    try:
        for repeat in range(REPEATS):
            for enabled in (repeat % 2 == 1, repeat % 2 == 0):
                if enabled:
                    obs.enable()
                else:
                    obs.disable()
                start = time.perf_counter()
                simulate_batch(trace, jobs, workers=1, cache=NullCache())
                best[enabled] = min(
                    best[enabled], time.perf_counter() - start
                )
    finally:
        obs.disable()
    return best[False], best[True]


def _disabled_call_cost() -> float:
    """Per-call seconds of a disabled span() + incr() pair."""
    assert not obs.enabled()
    start = time.perf_counter()
    for _ in range(MICRO_CALLS):
        obs.span("bench.noop")
        obs.incr("bench.noop")
    return (time.perf_counter() - start) / (2 * MICRO_CALLS)


def regenerate() -> str:
    trace = get_workload("compress", scale=TRACE_SCALE, seed=1).trace()
    jobs = _jobs()

    obs.disable()
    obs.reset()
    disabled_seconds, enabled_seconds = _time_legs(trace, jobs)
    snapshot = obs.snapshot()
    per_call = _disabled_call_cost()

    # Every span records one paired call site and every counter key at
    # least one incr; REPEATS identical batches ran while enabled.
    span_calls = sum(count for count, _, _ in snapshot.spans.values())
    counter_calls = len(snapshot.counters) * REPEATS
    calls_per_batch = (span_calls + counter_calls) / REPEATS
    disabled_percent = (
        100.0 * calls_per_batch * per_call / disabled_seconds
        if disabled_seconds > 0
        else 0.0
    )
    enabled_percent = (
        100.0 * (enabled_seconds - disabled_seconds) / disabled_seconds
        if disabled_seconds > 0
        else 0.0
    )
    obs.reset()

    record = common.record_obs_timing(
        "obs_overhead",
        accesses=len(trace),
        jobs=len(jobs),
        repeats=REPEATS,
        disabled_seconds=round(disabled_seconds, 4),
        enabled_seconds=round(enabled_seconds, 4),
        enabled_overhead_percent=round(enabled_percent, 3),
        disabled_call_ns=round(per_call * 1e9, 2),
        calls_per_batch=round(calls_per_batch, 1),
        disabled_overhead_percent=round(disabled_percent, 5),
        smoke=SMOKE,
    )
    regenerate.record = record
    return (
        f"obs overhead over {len(jobs)} jobs x {len(trace)} accesses: "
        f"disabled {disabled_seconds:.3f}s, enabled {enabled_seconds:.3f}s "
        f"({enabled_percent:+.2f}%); disabled call site "
        f"{per_call * 1e9:.0f}ns -> {disabled_percent:.4f}% of the batch"
    )


def test_obs_overhead(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("obs_overhead", text)

    record = regenerate.record
    # The structural guarantees hold at any scale.
    assert record["disabled_call_ns"] < 2_000, record
    assert not obs.enabled()
    assert obs.span("a") is obs.span("b")
    # Timing bars only on full runs: smoke boxes are too noisy.
    if not SMOKE:
        assert (
            record["enabled_overhead_percent"] <= ENABLED_OVERHEAD_LIMIT
        ), record
        assert (
            record["disabled_overhead_percent"] <= DISABLED_OVERHEAD_LIMIT
        ), record
