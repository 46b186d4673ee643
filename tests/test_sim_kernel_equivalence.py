"""Golden equivalence: the simulation engine vs the reference loop.

The contract of :mod:`repro.sim.batch` is exact — not approximate —
equality: for any trace, architecture, connectivity, sampling, and
write model, ``run(reference=False)`` must return a
:class:`SimulationResult` equal field-for-field (including every float,
stats dict, and per-channel counter) to ``run(reference=True)``. This
suite asserts it across all five workloads × sampling on/off × posted
writes on/off × {ideal, AMBA, mux} connectivity, plus module-level
batch-vs-scalar property checks for each ``supports_batch`` module.

The cross-candidate batch evaluator (:func:`repro.exec.simulate_batch`)
inherits the same contract: its per-candidate results must be
bit-identical to independent runs and to the reference, for pure
columnar groups, DMA (replay-walk) members, and singleton groups alike,
under any ordering of the submitted job list.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apex.architectures import MemoryArchitecture
from repro.connectivity.architecture import (
    ConnectivityArchitecture,
    build_cluster,
)
from repro.connectivity.library import default_connectivity_library
from repro.exec import NullCache, SimulationJob, simulate_batch
from repro.memory.cache import Cache, WritePolicy
from repro.memory.dram import Dram
from repro.memory.library import default_memory_library, mixed_architecture
from repro.memory.stream_buffer import StreamBuffer
from repro.sim.batch import clear_plan_registry
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import reference_requested, simulate
from repro.trace.events import AccessKind, TraceBuilder
from repro.workloads import get_workload

#: Scales chosen so every workload's trace spans multiple sampling
#: periods (so off-window spans actually run) while the grid stays fast.
WORKLOAD_SCALES = {
    "compress": 0.12,
    "li": 0.08,
    "vocoder": 0.5,
    "dct": 1.0,
    "matmul": 1.0,
}

#: Small windows → many on/off transitions per trace.
SAMPLING = SamplingConfig(on_window=256, off_ratio=9, warmup=32)

CONNECTIVITY_MODES = ("ideal", "amba", "mux")

MEM_LIBRARY = default_memory_library()
CONN_LIBRARY = default_connectivity_library()


@functools.lru_cache(maxsize=None)
def _trace(workload: str):
    return get_workload(workload, scale=WORKLOAD_SCALES[workload], seed=7).trace()


@functools.lru_cache(maxsize=None)
def _architecture(workload: str):
    return mixed_architecture(_trace(workload), MEM_LIBRARY)


def _connectivity(memory, trace, mode: str):
    if mode == "ideal":
        return None
    channels = memory.channels(trace)
    on_chip = [c for c in channels if not c.crosses_chip]
    crossing = [c for c in channels if c.crosses_chip]
    clusters = []
    if mode == "amba":
        if on_chip:
            preset = CONN_LIBRARY.get("ahb")
            clusters.append(build_cluster(on_chip, "ahb", preset.instantiate()))
    else:
        # Point-to-point muxes: one component per on-chip channel.
        preset = CONN_LIBRARY.get("mux")
        for channel in on_chip:
            clusters.append(
                build_cluster([channel], "mux", preset.instantiate())
            )
    if crossing:
        preset = CONN_LIBRARY.get("offchip_16")
        clusters.append(
            build_cluster(crossing, "offchip_16", preset.instantiate())
        )
    return ConnectivityArchitecture(mode, clusters)


GRID = list(
    itertools.product(
        sorted(WORKLOAD_SCALES),
        ("unsampled", "sampled"),
        (False, True),
        CONNECTIVITY_MODES,
    )
)


@pytest.mark.parametrize("workload,sampling_mode,posted,conn_mode", GRID)
def test_kernel_matches_reference(workload, sampling_mode, posted, conn_mode):
    trace = _trace(workload)
    memory = _architecture(workload)
    connectivity = _connectivity(memory, trace, conn_mode)
    sampling = SAMPLING if sampling_mode == "sampled" else None
    reference = simulate(
        trace, memory, connectivity, sampling, posted, reference=True
    )
    kernel = simulate(
        trace, memory, connectivity, sampling, posted, reference=False
    )
    # SimulationResult is a frozen dataclass: == covers every numeric
    # field, the module/channel/struct stats dicts, and the energy
    # breakdown, all compared exactly.
    assert kernel == reference


#: DMA-heavy grid: tick-dependent modules force the replay walk,
#: crossed with sampling, posted writes, and connectivity so the
#: stall re-pricing is exercised against every contention regime.
DMA_GRID = list(
    itertools.product(
        ("unsampled", "sampled"),
        (False, True),
        CONNECTIVITY_MODES,
        ("si_dma_32", "ll_dma_32"),
    )
)


@pytest.mark.parametrize("sampling_mode,posted,conn_mode,dma_preset", DMA_GRID)
def test_kernel_matches_reference_with_dma(
    sampling_mode, posted, conn_mode, dma_preset
):
    """DMA-mapped structures run the replay walk; results stay exact."""
    trace = _trace("li")
    memory = mixed_architecture(trace, MEM_LIBRARY, dma_preset=dma_preset)
    connectivity = _connectivity(memory, trace, conn_mode)
    sampling = SAMPLING if sampling_mode == "sampled" else None
    reference = simulate(
        trace, memory, connectivity, sampling, posted, reference=True
    )
    kernel = simulate(
        trace, memory, connectivity, sampling, posted, reference=False
    )
    assert kernel == reference


def test_environment_opt_out(monkeypatch):
    """``REPRO_REFERENCE_SIM=1`` routes default runs to the reference."""
    monkeypatch.delenv("REPRO_REFERENCE_SIM", raising=False)
    assert not reference_requested()
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv("REPRO_REFERENCE_SIM", value)
        assert reference_requested()
    monkeypatch.setenv("REPRO_REFERENCE_SIM", "0")
    assert not reference_requested()
    # Either way the result is the same object value.
    trace = _trace("matmul")
    memory = _architecture("matmul")
    monkeypatch.setenv("REPRO_REFERENCE_SIM", "1")
    via_env = simulate(trace, memory, None, SAMPLING)
    via_env_unsampled = simulate(trace, memory, None, None)
    monkeypatch.delenv("REPRO_REFERENCE_SIM")
    assert simulate(trace, memory, None, SAMPLING) == via_env
    # Unsampled cross-check: the env-routed reference equals the
    # default kernel on a whole-trace run too.
    assert simulate(trace, memory, None, None) == via_env_unsampled


# -- module-level batch-vs-scalar properties --------------------------------


def _random_columns(seed: int, n: int = 600, span: int = 1 << 14):
    rng = np.random.default_rng(seed)
    mixed = np.where(
        rng.random(n) < 0.6,
        np.cumsum(rng.integers(1, 9, n)) % span,  # mostly sequential
        rng.integers(0, span, n),  # with random jumps
    )
    return (
        mixed.astype(np.int64),
        rng.choice([1, 2, 4, 8], n).astype(np.int32),
        rng.integers(0, 2, n).astype(np.int8),
    )


def _scalar_replay(module, addresses, sizes, kinds):
    columns = ([], [], [], [], [])
    for i in range(len(addresses)):
        response = module.access(
            int(addresses[i]),
            int(sizes[i]),
            AccessKind(int(kinds[i])),
            tick=0,
        )
        for column, value in zip(
            columns,
            (
                response.hit,
                response.latency,
                response.refill_bytes,
                response.writeback_bytes,
                response.prefetch_bytes,
            ),
        ):
            column.append(value)
    return columns


def _assert_batch_matches(make_module, seed):
    addresses, sizes, kinds = _random_columns(seed)
    scalar_module, batch_module = make_module(), make_module()
    hits, latencies, refills, writebacks, prefetches = _scalar_replay(
        scalar_module, addresses, sizes, kinds
    )
    # Split in two to check state carries across batch boundaries.
    mid = len(addresses) // 3
    halves = [
        batch_module.access_many(addresses[:mid], sizes[:mid], kinds[:mid]),
        batch_module.access_many(addresses[mid:], sizes[mid:], kinds[mid:]),
    ]

    def merged(field):
        parts = []
        for half, count in zip(halves, (mid, len(addresses) - mid)):
            column = getattr(half, field)
            parts.append(
                np.zeros(count, dtype=np.int64) if column is None else column
            )
        return np.concatenate(parts)

    assert merged("hit").astype(bool).tolist() == hits
    assert merged("latency").tolist() == latencies
    assert merged("refill_bytes").tolist() == refills
    assert merged("writeback_bytes").tolist() == writebacks
    assert merged("prefetch_bytes").tolist() == prefetches
    assert (scalar_module.hits, scalar_module.misses) == (
        batch_module.hits,
        batch_module.misses,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "policy", [WritePolicy.WRITE_BACK, WritePolicy.WRITE_THROUGH]
)
def test_cache_access_many_matches_access(seed, policy):
    _assert_batch_matches(
        lambda: Cache(
            "c", capacity=2048, line_size=32, associativity=2,
            write_policy=policy,
        ),
        seed,
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("depth", [2, 4])
def test_stream_buffer_access_many_matches_access(seed, depth):
    _assert_batch_matches(
        lambda: StreamBuffer("s", depth=depth, line_size=32), seed
    )


# -- property tests: random traces vs the reference -------------------------
#
# Hypothesis drives randomly shaped traces through both paths. Two
# properties matter most to the engine: (a) tick-dependent modules
# (DMA engines) recorded once and re-priced by the replay walk must
# reproduce exactly the latencies the access-by-access reference
# produces, and (b) the compacted on-window contention walk must
# reproduce every per-channel wait/busy counter. ``SimulationResult``
# equality covers both, but the channel counters are also asserted
# explicitly so a regression names the broken accounting rather than
# just "results differ".


@st.composite
def _random_traces(draw):
    seed = draw(st.integers(min_value=0, max_value=1 << 20))
    n = draw(st.integers(min_value=64, max_value=320))
    max_gap = draw(st.integers(min_value=0, max_value=3))
    rng = np.random.default_rng(seed)
    builder = TraceBuilder(f"prop_{seed}_{n}_{max_gap}")
    # A fixed cyclic pointer chain: re-traversals make the linked-list
    # DMA's stable-pointer recovery (and its burst path) actually fire.
    chain = [int(c) * 16 for c in rng.permutation(24)]
    cursor = 0
    for _ in range(n):
        choice = int(rng.integers(0, 4))
        if choice == 0:
            builder.read(chain[cursor % len(chain)], 4, "chain")
            cursor += 1
        elif choice == 1:
            builder.read(int(rng.integers(0, 1 << 9)) * 4, 4, "stream")
        elif choice == 2:
            builder.write(int(rng.integers(0, 1 << 12)), 8, "table")
        else:
            builder.read(
                int(rng.integers(0, 1 << 12)),
                int(rng.choice([1, 2, 4, 8])),
                "table",
            )
        if max_gap:
            builder.compute(int(rng.integers(0, max_gap + 1)))
    return builder.build()


#: Tight windows relative to the 64–320-access traces above, so every
#: example crosses several on/off boundaries.
_PROP_SAMPLING = SamplingConfig(on_window=32, off_ratio=3, warmup=8)

_PROP_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_PROP_SETTINGS
@given(
    trace=_random_traces(),
    dma_preset=st.sampled_from(["si_dma_32", "ll_dma_32"]),
    posted=st.booleans(),
    sampled=st.booleans(),
)
def test_property_tick_dependent_modules_match_reference(
    trace, dma_preset, posted, sampled
):
    """Chunked segment advancement equals access-by-access stepping."""
    memory = MemoryArchitecture(
        "prop_dma",
        [
            MEM_LIBRARY.get(dma_preset).instantiate("dma"),
            MEM_LIBRARY.get("cache_4k_16b_1w").instantiate("cache"),
        ],
        MEM_LIBRARY.get("dram_4bank").instantiate(),
        {"chain": "dma", "stream": "cache"},
        "dram",
    )
    sampling = _PROP_SAMPLING if sampled else None
    reference = simulate(trace, memory, None, sampling, posted, reference=True)
    kernel = simulate(trace, memory, None, sampling, posted, reference=False)
    assert kernel == reference


@_PROP_SETTINGS
@given(
    trace=_random_traces(),
    conn_mode=st.sampled_from(["amba", "mux"]),
    posted=st.booleans(),
    sampled=st.booleans(),
)
def test_property_channel_contention_matches_reference(
    trace, conn_mode, posted, sampled
):
    """The vectorized contention pass reproduces every channel counter."""
    memory = mixed_architecture(trace, MEM_LIBRARY)
    connectivity = _connectivity(memory, trace, conn_mode)
    sampling = _PROP_SAMPLING if sampled else None
    reference = simulate(
        trace, memory, connectivity, sampling, posted, reference=True
    )
    kernel = simulate(
        trace, memory, connectivity, sampling, posted, reference=False
    )
    assert kernel == reference
    assert set(kernel.channels) == set(reference.channels)
    for name, channel in kernel.channels.items():
        mirror = reference.channels[name]
        assert channel.total_wait_cycles == mirror.total_wait_cycles, name
        assert channel.busy_cycles == mirror.busy_cycles, name
        assert channel.transactions == mirror.transactions, name


# -- cross-candidate batch evaluation (perf6) -------------------------------
#
# :func:`repro.exec.simulate_batch` evaluates same-memory-signature
# candidates as one planned job, sharing the trace plan and module
# outcome columns across the group. Its contract is the same exactness
# as the kernel itself: every per-candidate result must equal an
# independent ``simulate()`` call bit for bit — and, transitively, the
# scalar reference. The grid below asserts both directly; the
# mixed-group test adds DMA (replay-walk) members and a singleton
# group; the Hypothesis property pins the signature partitioning as
# order-independent (``results[i]`` tracks ``jobs[i]`` under any
# permutation of the submitted list).

BATCH_GRID = list(
    itertools.product(("li", "dct"), ("unsampled", "sampled"), (False, True))
)


@pytest.mark.parametrize("workload,sampling_mode,posted", BATCH_GRID)
def test_simulate_batch_matches_run_and_reference(
    workload, sampling_mode, posted
):
    trace = _trace(workload)
    memory = _architecture(workload)
    sampling = SAMPLING if sampling_mode == "sampled" else None
    jobs = [
        SimulationJob(
            memory=memory,
            connectivity=_connectivity(memory, trace, mode),
            sampling=sampling,
            posted_writes=posted,
        )
        for mode in CONNECTIVITY_MODES
    ]
    report = simulate_batch(trace, jobs, workers=1, cache=NullCache())
    # The ideal member is one unit, the priced ones share a group plan.
    assert report.batch_groups == 2
    assert len(report.results) == len(jobs)
    for job, result in zip(jobs, report.results):
        independent = simulate(
            trace, memory, job.connectivity, sampling, posted
        )
        assert result == independent
        reference = simulate(
            trace, memory, job.connectivity, sampling, posted, reference=True
        )
        assert result == reference


def test_simulate_batch_mixed_groups_and_dma_members():
    """DMA members, varied sampling/posted, and a singleton group."""
    trace = _trace("li")
    plain = _architecture("li")
    si_dma = mixed_architecture(trace, MEM_LIBRARY, dma_preset="si_dma_32")
    ll_dma = mixed_architecture(trace, MEM_LIBRARY, dma_preset="ll_dma_32")
    jobs = []
    # Group 1: the plain architecture with per-member sampling and
    # posted-write deltas — sharing is keyed on memory signature only,
    # so members of one group may disagree on everything else.
    for mode in CONNECTIVITY_MODES:
        jobs.append(
            SimulationJob(
                memory=plain,
                connectivity=_connectivity(plain, trace, mode),
                sampling=None if mode == "amba" else SAMPLING,
                posted_writes=(mode == "mux"),
            )
        )
    # Group 2: DMA-mapped structures route through the replay walk.
    for mode in ("ideal", "amba"):
        jobs.append(
            SimulationJob(
                memory=si_dma,
                connectivity=_connectivity(si_dma, trace, mode),
                sampling=SAMPLING,
            )
        )
    # Group 3: a single-member group still round-trips the batch path.
    jobs.append(
        SimulationJob(
            memory=ll_dma,
            connectivity=_connectivity(ll_dma, trace, "mux"),
            posted_writes=True,
        )
    )
    clear_plan_registry()  # cover the cold plan build too
    report = simulate_batch(trace, jobs, workers=1, cache=NullCache())
    # The two ideal members are one unit; the priced ones make three
    # memory-signature groups.
    assert report.batch_groups == 4
    assert len(report.results) == len(jobs)
    for job, result in zip(jobs, report.results):
        independent = simulate(
            trace,
            job.memory,
            job.connectivity,
            job.sampling,
            job.posted_writes,
        )
        assert result == independent
        reference = simulate(
            trace,
            job.memory,
            job.connectivity,
            job.sampling,
            job.posted_writes,
            reference=True,
        )
        assert result == reference


@functools.lru_cache(maxsize=None)
def _permutation_pool():
    """Fixed six-job pool spanning two memory signatures, plus each
    job's expected result (computed once via independent simulation)."""
    trace = _trace("li")
    pool = []
    for memory in (
        _architecture("li"),
        mixed_architecture(trace, MEM_LIBRARY, dma_preset="si_dma_32"),
    ):
        for mode in CONNECTIVITY_MODES:
            pool.append(
                SimulationJob(
                    memory=memory,
                    connectivity=_connectivity(memory, trace, mode),
                    sampling=_PROP_SAMPLING,
                    posted_writes=(mode == "mux"),
                )
            )
    expected = tuple(
        simulate(
            trace,
            job.memory,
            job.connectivity,
            job.sampling,
            job.posted_writes,
        )
        for job in pool
    )
    return tuple(pool), expected


@_PROP_SETTINGS
@given(order=st.permutations(list(range(6))))
def test_property_batch_partitioning_order_independent(order):
    """``results[i]`` tracks ``jobs[i]`` whatever order groups arrive in."""
    pool, expected = _permutation_pool()
    jobs = [pool[i] for i in order]
    report = simulate_batch(_trace("li"), jobs, workers=1, cache=NullCache())
    # One unit of the two ideal jobs, one group per priced signature.
    assert report.batch_groups == 3
    for position, original in enumerate(order):
        assert report.results[position] == expected[original]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("banks", [1, 4])
def test_dram_open_row_latencies_match_access(seed, banks):
    addresses, sizes, kinds = _random_columns(seed, span=1 << 18)
    scalar, batched = (
        Dram("d", row_bytes=1024, banks=banks) for _ in range(2)
    )
    expected = [
        scalar.access(int(a), int(s), AccessKind(int(k)), tick=0).latency
        for a, s, k in zip(addresses, sizes, kinds)
    ]
    mid = len(addresses) // 2
    got = np.concatenate(
        [
            batched.open_row_latencies(addresses[:mid]),
            batched.open_row_latencies(addresses[mid:]),
        ]
    )
    assert got.tolist() == expected
    assert (scalar.accesses, scalar.page_hits) == (
        batched.accesses,
        batched.page_hits,
    )
    assert scalar._open_rows == batched._open_rows
