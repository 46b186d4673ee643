"""The ideal-connectivity pass against the scalar reference loop.

Every ``connectivity=None`` candidate — each APEX candidate, and an
ideal :meth:`Simulator.run` — goes through the block evaluator
(:func:`repro.sim.batch._evaluate_members`) on its own layout,
whatever its memory signature. This file is its differential case
table: each :class:`Case` row is a trace slice × a memory family ×
sampling on or off × posted writes on or off, and every member must
equal ``Simulator.run(reference=True)`` bit for bit, alone and inside
batches that cross the block boundary. It also covers a
same-signature :func:`~repro.sim.batch.evaluate_group` call that mixes
ideal and priced members, the chunked dispatch of ideal misses over a
2-worker runtime, and the reference loop's error for an access
completing in under one cycle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import pytest

from repro.apex.architectures import MemoryArchitecture
from repro.channels import DRAM
from repro.errors import SimulationError
from repro.exec import ExecutionRuntime, NullCache, SimulationJob, simulate_batch
from repro.memory.library import default_memory_library, mixed_architecture
from repro.memory.sram import Sram
from repro.sim import batch
from repro.sim.batch import TracePlan, evaluate_group
from repro.sim.sampling import SamplingConfig
from repro.sim.simulator import Simulator, reference_requested
from repro.workloads import get_workload
from tests.conftest import simple_connectivity

MEM_LIBRARY = default_memory_library()

#: Small windows, so every trace crosses several on/off boundaries.
SAMPLING = SamplingConfig(on_window=256, off_ratio=3, warmup=32)


@functools.lru_cache(maxsize=None)
def _trace(name: str):
    """A whole small trace, or a slice from the middle of a longer one.

    Each keeps every structure of its workload, so any mapping of the
    workload validates.
    """
    if name == "compress":
        return get_workload("compress", scale=0.05, seed=7).trace()
    assert name == "li[24000:26000]"
    return get_workload("li", scale=0.04, seed=7).trace().slice(24000, 26000)


def _cache_only(trace):
    dram = MEM_LIBRARY.get("dram").instantiate()
    cache = MEM_LIBRARY.get("cache_4k_16b_1w").instantiate("cache")
    return MemoryArchitecture("cache", [cache], dram, {}, "cache")


def _dram_only(trace):
    dram = MEM_LIBRARY.get("dram_4bank").instantiate()
    return MemoryArchitecture("dram", [], dram, {}, DRAM)


def _multiport(trace):
    """The smallest structures on a 2-port SRAM, the rest cached."""
    sram = MEM_LIBRARY.get("mp_sram_8k_2p").instantiate("mp")
    cache = MEM_LIBRARY.get("cache_8k_32b_2w").instantiate("cache")
    mapping, used = {}, 0
    for struct in sorted(trace.structs, key=trace.footprint):
        if used + trace.footprint(struct) <= sram.capacity:
            mapping[struct] = "mp"
            used += trace.footprint(struct)
    return MemoryArchitecture(
        "mp", [sram, cache], MEM_LIBRARY.get("dram").instantiate(), mapping,
        "cache",
    )


def _stream_buffers(trace):
    """Every other structure on a stream buffer, the rest uncached."""
    stream = MEM_LIBRARY.get("stream_buffer_4").instantiate("stream")
    mapping = {struct: "stream" for struct in trace.structs[::2]}
    return MemoryArchitecture(
        "sb", [stream], MEM_LIBRARY.get("dram").instantiate(), mapping, DRAM
    )


def _two_dma(trace):
    """A self-indirect and a linked-list DMA engine beside a cache."""
    first, second = trace.structs[:2]
    return MemoryArchitecture(
        "two_dma",
        [
            MEM_LIBRARY.get("cache_8k_32b_2w").instantiate("cache"),
            MEM_LIBRARY.get("si_dma_32").instantiate("dma_si"),
            MEM_LIBRARY.get("ll_dma_32").instantiate("dma_ll"),
        ],
        MEM_LIBRARY.get("dram_4bank").instantiate(),
        {first: "dma_si", second: "dma_ll"},
        "cache",
    )


#: family -> architecture builder over a trace. Every call builds fresh
#: module instances.
FAMILIES = {
    "dram": _dram_only,
    "mcdram_2ch": lambda trace: mixed_architecture(
        trace, MEM_LIBRARY, name="mcdram", dram_preset="mcdram_2ch"
    ),
    "multiport_sram": _multiport,
    "cache": _cache_only,
    "stream_buffers": _stream_buffers,
    "si_dma": lambda trace: mixed_architecture(
        trace, MEM_LIBRARY, name="si", dma_preset="si_dma_32"
    ),
    "ll_dma": lambda trace: mixed_architecture(
        trace, MEM_LIBRARY, name="ll", dma_preset="ll_dma_32"
    ),
    "two_dma": _two_dma,
}


@dataclass(frozen=True)
class Case:
    """One ideal-connectivity member: a trace, a family and a run mode."""

    trace: str
    family: str
    sampled: bool
    posted: bool

    def job(self) -> SimulationJob:
        return SimulationJob(
            memory=FAMILIES[self.family](_trace(self.trace)),
            sampling=SAMPLING if self.sampled else None,
            posted_writes=self.posted,
        )


CASES = [
    Case(trace, family, sampled, posted)
    for trace, family, sampled, posted in itertools.product(
        ("compress", "li[24000:26000]"), FAMILIES, (False, True),
        (False, True),
    )
]


@functools.lru_cache(maxsize=None)
def _reference(case: Case):
    job = case.job()
    return Simulator(
        _trace(case.trace), job.memory, None, job.sampling, job.posted_writes
    ).run(reference=True)


def _cases_of(trace: str) -> list[Case]:
    return [case for case in CASES if case.trace == trace]


def _block_size(trace: str) -> int:
    return max(1, batch._BLOCK_ELEMENTS // len(_trace(trace)))


def _served(jobs: int) -> int:
    """The members the engine serves: none when ``REPRO_REFERENCE_SIM``
    sends every job to the reference loop."""
    return 0 if reference_requested() else jobs


# -- every case alone ---------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=repr)
def test_case_matches_reference(case):
    """A batch of one and an ideal ``Simulator.run`` both reproduce
    the reference loop."""
    trace = _trace(case.trace)
    results, delta = evaluate_group(trace, [case.job()], TracePlan(trace))
    assert delta == _served(1)
    assert results == [_reference(case)]
    job = case.job()
    single = Simulator(
        trace, job.memory, None, job.sampling, job.posted_writes
    ).run(reference=False)
    assert single == _reference(case)


# -- batches across the block boundary ---------------------------------------


@dataclass(frozen=True)
class Shape:
    """A batch of ``size`` jobs cycling over a trace's cases."""

    trace: str
    name: str

    def cases(self) -> list[Case]:
        cases = _cases_of(self.trace)
        size = {
            "one job": 1,
            "one full block": _block_size(self.trace),
            "one block plus one": _block_size(self.trace) + 1,
            "every case": len(cases),
        }[self.name]
        return [cases[i % len(cases)] for i in range(size)]


SHAPES = [
    Shape(trace, name)
    for trace in ("compress", "li[24000:26000]")
    for name in (
        "one job", "one full block", "one block plus one", "every case",
    )
]


@pytest.mark.parametrize("shape", SHAPES, ids=repr)
def test_batch_matches_reference(shape):
    """Mixed memory signatures, sampling schedules and posted modes in
    one batch, on a shared trace plan whose memo members hit."""
    trace = _trace(shape.trace)
    cases = shape.cases()
    assert len(cases) >= 1
    if shape.name == "one block plus one":
        assert len(cases) > _block_size(shape.trace)
    results, delta = evaluate_group(
        trace, [case.job() for case in cases], TracePlan(trace)
    )
    assert delta == _served(len(cases))
    assert results == [_reference(case) for case in cases]


def test_engine_runs_one_ideal_group():
    """``simulate_batch`` makes one dispatch unit of every ideal miss."""
    cases = _cases_of("compress")
    report = simulate_batch(
        _trace("compress"), [case.job() for case in cases], workers=1,
        cache=NullCache(),
    )
    assert report.batch_groups == 1
    assert report.delta_pass_candidates == _served(len(cases))
    assert list(report.results) == [_reference(case) for case in cases]


# -- ideal and priced members of one signature ------------------------------


@pytest.mark.parametrize(
    "family", ["cache", "mcdram_2ch", "stream_buffers", "si_dma", "two_dma"]
)
def test_mixed_ideal_and_priced_members(family, conn_library):
    """One ``evaluate_group`` call: each ideal member builds its own
    layout and the priced ones share one, and one fold serves both."""
    trace = _trace("compress")
    memory = FAMILIES[family](trace)
    connectivity = simple_connectivity(memory, trace, conn_library)
    jobs = [
        SimulationJob(memory, None, None, False),
        SimulationJob(memory, connectivity, None, False),
        SimulationJob(memory, None, SAMPLING, True),
        SimulationJob(memory, connectivity, SAMPLING, True),
    ]
    results, delta = evaluate_group(trace, jobs, TracePlan(trace))
    assert delta == _served(len(jobs))
    for job, result in zip(jobs, results):
        assert result == Simulator(
            trace, job.memory, job.connectivity, job.sampling,
            job.posted_writes,
        ).run(reference=True)


# -- chunked dispatch ---------------------------------------------------------


def test_two_worker_chunks_match_in_process():
    """On a 2-worker pool the ideal misses split into contiguous chunks,
    about four per worker; the pooled results equal the in-process
    ones."""
    trace = _trace("compress")
    jobs = [case.job() for case in _cases_of("compress")]
    serial = simulate_batch(trace, jobs, workers=1, cache=NullCache())
    with ExecutionRuntime(workers=2) as runtime:
        pooled = simulate_batch(
            trace, jobs, cache=NullCache(), backend=runtime
        )
        assert runtime.stats.batches == 1
    assert serial.batch_groups == 1
    assert pooled.backend == "pool"
    assert pooled.batch_groups == 4 * runtime.workers
    assert pooled.results == serial.results


# -- the sub-cycle guard ------------------------------------------------------


def _instant_sram(trace, struct: str) -> MemoryArchitecture:
    """``struct`` on an SRAM that answers in zero cycles."""
    sram = Sram("sp", 1 << 20)
    sram.access_latency = 0  # below the constructor's floor
    return MemoryArchitecture(
        f"instant_{struct}", [sram, _cache_only(trace).modules["cache"]],
        MEM_LIBRARY.get("dram").instantiate(), {struct: "sp"}, "cache",
    )


def test_sub_cycle_access_raises_the_reference_error():
    """The first failing job in job order raises the reference loop's
    error, though a later job fails at an earlier row."""
    trace = _trace("compress")
    rows = {
        struct: int(trace.struct_ids.tolist().index(trace.struct_id(struct)))
        for struct in trace.structs
    }
    early, late = sorted(trace.structs, key=rows.get)[:2]
    failing = SimulationJob(memory=_instant_sram(trace, late))
    earlier_row = SimulationJob(memory=_instant_sram(trace, early))
    with pytest.raises(SimulationError) as expected:
        Simulator(trace, failing.memory).run(reference=True)
    assert str(expected.value) == f"access {rows[late]} completed in 0 cycles"
    jobs = [Case("compress", "cache", False, False).job(), failing,
            earlier_row]
    with pytest.raises(SimulationError) as raised:
        evaluate_group(trace, jobs, TracePlan(trace))
    assert str(raised.value) == str(expected.value)


# -- the reference fallback ---------------------------------------------------


class _ScalarOnlySram(Sram):
    """An SRAM that neither batches nor records a replay."""

    supports_batch = False


def test_unbatchable_member_runs_the_reference_loop():
    """A member whose module the engine cannot run takes the reference
    loop alone; the rest of its batch stays in the ideal pass."""
    trace = _trace("compress")
    first, second = _cases_of("compress")[:2]
    scalar = MemoryArchitecture(
        "scalar",
        [_ScalarOnlySram("sp", 1 << 20), _cache_only(trace).modules["cache"]],
        MEM_LIBRARY.get("dram").instantiate(),
        {trace.structs[0]: "sp"},
        "cache",
    )
    jobs = [first.job(), SimulationJob(memory=scalar), second.job()]
    results, delta = evaluate_group(trace, jobs, TracePlan(trace))
    assert delta == _served(2)
    assert results == [
        _reference(first),
        Simulator(trace, scalar).run(reference=True),
        _reference(second),
    ]
