"""Ideal-connectivity replay stalls: the walk-free resolver vs the oracles.

Under ideal connectivity no member walks. A DMA engine's replay stalls
are priced by :func:`repro.sim.batch._add_replay_stalls`, which
computes a block of members' stall-free issue times with one cumsum
and visits only the replay hits whose slack against them is positive;
:func:`repro.sim.batch._check_latency` then raises for a row under one
cycle. These tests hold them to the two oracles they must reproduce
bit for bit:

* a scalar recurrence over random affine recordings (the reference
  loop's lag update with the :class:`~repro.memory.module.ReplayTrace`
  stall term), as a Hypothesis property;
* ``Simulator.run(reference=True)`` for both DMA engine kinds, posted
  writes on and off, sampled and unsampled, alone, in a group, and
  with two engines in one architecture, where one engine's stalls
  shift the other's arrivals through the lag.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apex.architectures import MemoryArchitecture
from repro.errors import SimulationError
from repro.exec import NullCache, SimulationJob, simulate_batch
from repro.memory.library import default_memory_library, mixed_architecture
from repro.sim.batch import (
    GroupPlan,
    TracePlan,
    _add_replay_stalls,
    _check_latency,
    _replay_terms,
)
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import Simulator
from repro.workloads import get_workload

MEM_LIBRARY = default_memory_library()

#: Small windows, so every trace crosses many on/off boundaries.
SAMPLING = SamplingConfig(on_window=256, off_ratio=9, warmup=32)


@functools.lru_cache(maxsize=None)
def _trace(workload: str):
    scale = {"compress": 0.12, "li": 0.08}[workload]
    return get_workload(workload, scale=scale, seed=7).trace()


# -- the resolver against a scalar recurrence -------------------------------


def _ideal_latency_column(ticks, base, posted, rows, srcs, ready):
    """One member's raw latency column: a block of one."""
    latency = base[None, :].copy()
    _add_replay_stalls(ticks, latency, [posted], [(rows, srcs, ready)])
    _check_latency(latency[0])
    return latency[0]


def _scalar_recurrence(ticks, base, posted, terms):
    """The reference loop's lag recurrence, one row at a time.

    ``terms`` maps a row to ``(src, ready)``: the row is served no
    earlier than ``issue[src] + ready``.
    """
    issue = []
    latency = []
    lag = 0
    for k, tick in enumerate(ticks):
        issue.append(tick + lag)
        lat = base[k]
        if k in terms:
            src, ready = terms[k]
            lat += max(0, issue[src] + ready - issue[k])
        if lat < 1:
            raise SimulationError(f"access {k} completed in {lat} cycles")
        latency.append(lat)
        lag += (1 if posted is not None and posted[k] else lat) - 1
    return latency


@st.composite
def _recordings(draw):
    """A random run: ticks, base latencies, posted rows, replay terms."""
    n = draw(st.integers(1, 80))
    gaps = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    ticks = np.cumsum(gaps, dtype=np.int64)
    base = np.array(
        draw(st.lists(st.integers(1, 40), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    if draw(st.booleans()):
        # A nonsense module latency that trips the guard.
        base[draw(st.integers(0, n - 1))] = draw(st.integers(-60, 0))
    posted = None
    if draw(st.booleans()):
        posted = np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
    # Several modules, each with its own backing delay.
    delays = draw(st.lists(st.integers(0, 60), min_size=1, max_size=3))
    terms = {}
    for k in range(1, n):
        if draw(st.integers(0, 2)):
            src = draw(st.integers(0, k - 1))
            alpha = draw(st.integers(0, 3))
            beta = draw(st.integers(0, 50))
            delay = delays[draw(st.integers(0, len(delays) - 1))]
            terms[k] = (src, alpha * delay + beta)
    return ticks, base, posted, terms


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_recordings())
def test_property_resolver_matches_scalar_recurrence(recording):
    ticks, base, posted, terms = recording
    rows = np.array(sorted(terms), dtype=np.int64)
    srcs = np.array([terms[k][0] for k in rows.tolist()], dtype=np.int64)
    ready = np.array([terms[k][1] for k in rows.tolist()], dtype=np.int64)
    try:
        expected = _scalar_recurrence(
            ticks.tolist(), base.tolist(), posted, terms
        )
    except SimulationError as error:
        with pytest.raises(SimulationError) as raised:
            _ideal_latency_column(ticks, base, posted, rows, srcs, ready)
        assert str(raised.value) == str(error)
        return
    latency = _ideal_latency_column(ticks, base, posted, rows, srcs, ready)
    assert latency.tolist() == expected
    # Stalls only ever add to the stall-free latency.
    assert np.all(latency >= base)


# -- single DMA engines against the reference loop --------------------------


#: The equivalence suite's DMA grid runs these modes on li.
IDEAL_DMA_GRID = list(
    itertools.product(
        ("si_dma_32", "ll_dma_32"), (False, True), ("unsampled", "sampled")
    )
)


@pytest.mark.parametrize("dma_preset,posted,sampling_mode", IDEAL_DMA_GRID)
def test_ideal_dma_matches_reference(dma_preset, posted, sampling_mode):
    trace = _trace("compress")
    memory = mixed_architecture(trace, MEM_LIBRARY, dma_preset=dma_preset)
    sampling = SAMPLING if sampling_mode == "sampled" else None
    simulator = Simulator(trace, memory, None, sampling, posted)
    reference = simulator.run(reference=True)
    assert simulator.run(reference=False) == reference


def test_ideal_dma_group_matches_reference():
    """One ideal-pass unit serves ideal DMA members of every run mode."""
    trace = _trace("li")
    memory = mixed_architecture(trace, MEM_LIBRARY, dma_preset="si_dma_32")
    jobs = [
        SimulationJob(memory, None, sampling, posted)
        for sampling, posted in itertools.product(
            (None, SAMPLING), (False, True)
        )
    ]
    report = simulate_batch(trace, jobs, workers=1, cache=NullCache())
    assert report.batch_groups == 1
    for job, result in zip(jobs, report.results):
        assert result == Simulator(
            trace, memory, None, job.sampling, job.posted_writes
        ).run(reference=True)


# -- two DMA engines in one architecture ------------------------------------


def _two_engine_memory(trace):
    """A self-indirect and a linked-list DMA engine beside a cache.

    On the li trace both engines stall: the self-indirect one on the
    symbol table, the linked-list one on the cons heap.
    """
    mapping = {struct: "cache" for struct in trace.structs}
    mapping["symbol_table"] = "dma_si"
    mapping["cons_heap"] = "dma_ll"
    return MemoryArchitecture(
        "two_dma",
        [
            MEM_LIBRARY.get("cache_8k_32b_2w").instantiate("cache"),
            MEM_LIBRARY.get("si_dma_32").instantiate("dma_si"),
            MEM_LIBRARY.get("ll_dma_32").instantiate("dma_ll"),
        ],
        MEM_LIBRARY.get("dram_4bank").instantiate(),
        mapping,
        "dram",
    )


def test_two_engines_stall_each_other():
    """The scenario the two-engine test relies on actually occurs.

    Both engines stall, their hits interleave in trace order, and some
    hit of one engine has a stall of the other between its source and
    itself, so resolving either engine alone would misprice it.
    """
    trace = _trace("li")
    simulator = Simulator(trace, _two_engine_memory(trace))
    simulator._install_backing_hints()
    gplan = GroupPlan(TracePlan(trace), simulator)
    assert len(gplan.replay) == 2
    rows, srcs, ready = _replay_terms(simulator, gplan)
    assert np.all(np.diff(rows) > 0)
    base = gplan.mlat + gplan.core
    latency = _ideal_latency_column(trace.ticks, base, None, rows, srcs, ready)
    stalled = latency > base
    engines = sorted(gplan.replay)
    stall_rows = {
        gid: np.flatnonzero(stalled & (gplan.gid == gid)) for gid in engines
    }
    assert all(len(stall_rows[gid]) for gid in engines)
    first, second = engines
    assert stall_rows[first][0] < stall_rows[second][-1]
    assert stall_rows[second][0] < stall_rows[first][-1]
    crossed = False
    for row, src in zip(rows.tolist(), srcs.tolist()):
        other = [gid for gid in engines if gid != gplan.gid[row]][0]
        between = stall_rows[other]
        if np.any((between > src) & (between < row)):
            crossed = True
            break
    assert crossed


@pytest.mark.parametrize("posted", [False, True])
@pytest.mark.parametrize("sampled", [False, True])
def test_two_engines_match_reference(posted, sampled):
    trace = _trace("li")
    memory = _two_engine_memory(trace)
    simulator = Simulator(
        trace, memory, None, SAMPLING if sampled else None, posted
    )
    reference = simulator.run(reference=True)
    assert simulator.run(reference=False) == reference
