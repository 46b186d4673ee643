"""The trace plan's module-outcome memo (``TracePlan.module_outcome``).

A group plan runs a module only when no earlier plan over the same
trace ran an equally configured module on the same structures. These
tests check the memo against plans built on a fresh :class:`TracePlan`
(an empty memo) for every batch-capable and replay-recordable module
family, and pin its key and its bound.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.apex.architectures import MemoryArchitecture
from repro.channels import DRAM
from repro.exec import SimulationJob
from repro.memory.cache import Cache
from repro.memory.dma import SelfIndirectDma
from repro.memory.dram import Dram
from repro.memory.linked_list_dma import LinkedListDma
from repro.memory.multiport import MultiPortSram
from repro.memory.sram import Sram
from repro.memory.stream_buffer import StreamBuffer
from repro.sim import batch
from repro.sim.batch import TracePlan, evaluate_group
from repro.sim.simulator import Simulator
from repro.trace.events import TraceBuilder
from tests.conftest import simple_connectivity

#: family -> (module factory, structures it serves). Every call of a
#: factory returns a fresh instance of the same configuration.
FAMILIES = {
    "cache": (
        lambda: Cache("c", 1024, line_size=32, associativity=2),
        ("stream", "table"),
    ),
    "stream_buffer": (
        lambda: StreamBuffer("sb", depth=4, line_size=32),
        ("stream",),
    ),
    "sram": (lambda: Sram("sp", 4096), ("small",)),
    "multiport_sram": (
        lambda: MultiPortSram("mp", 4096, ports=2),
        ("small", "table"),
    ),
    "self_indirect_dma": (
        lambda: SelfIndirectDma("dma", entries=16, node_size=16, lookahead=4),
        ("list",),
    ),
    "linked_list_dma": (
        lambda: LinkedListDma("ll", entries=16, node_size=16, lookahead=4),
        ("list",),
    ),
}

#: One configuration attribute changed per family: each variant must
#: miss the memo its base configuration filled.
VARIANTS = {
    "cache_ways": (
        lambda: Cache("c", 1024, line_size=32, associativity=2),
        lambda: Cache("c", 1024, line_size=32, associativity=4),
        ("stream", "table"),
    ),
    "dma_lookahead": (
        lambda: SelfIndirectDma("dma", entries=16, node_size=16, lookahead=4),
        lambda: SelfIndirectDma("dma", entries=16, node_size=16, lookahead=2),
        ("list",),
    ),
    "stream_depth": (
        lambda: StreamBuffer("sb", depth=4, line_size=32),
        lambda: StreamBuffer("sb", depth=8, line_size=32),
        ("stream",),
    ),
}


def _trace():
    """Four structures: a stream, a pointer chase, a table, a small array."""
    builder = TraceBuilder("memo")
    node = 0
    for i in range(600):
        builder.read(0x10000 + 4 * i, 4, "stream")
        builder.compute(1)
        builder.read(0x40000 + node * 16, 8, "list")
        node = (node * 7 + 3) % 128
        if i % 3 == 0:
            builder.write(0x80000 + 8 * ((i * 13) % 96), 8, "table")
        builder.read(0x90000 + 4 * (i % 64), 4, "small")
    return builder.build()


TRACE = _trace()


def _arch(modules, mapping, dram=None):
    """An architecture over ``modules``; unmapped structures go uncached."""
    return MemoryArchitecture(
        "memo", modules, dram or Dram("dram", banks=2), mapping, DRAM
    )


def _served(module, structs, others=(), mapping=None, dram=None):
    """``module`` serving ``structs``, beside ``others`` and ``mapping``."""
    return _arch(
        [module, *others],
        {**{s: module.name for s in structs}, **(mapping or {})},
        dram,
    )


def _plan_state(gplan) -> dict:
    """Every array and fold entry a group plan hands to its members."""
    state = {
        name: getattr(gplan, name)
        for name in (
            "gid", "uncached", "mlat", "refill", "offpath", "dram_mask",
            "core", "sizes64",
        )
    }
    state["node_sizes"] = dict(gplan.node_sizes)
    for gid, recording in gplan.replay.items():
        for field in dataclasses.fields(recording):
            state[f"replay{gid}.{field.name}"] = getattr(recording, field.name)
    for gid, positions in gplan.positions_of.items():
        state[f"positions{gid}"] = positions
    for entry in gplan.fold:
        for index, value in enumerate(entry):
            state[f"fold{entry[0]}.{index}"] = value
    return state


def _assert_same_plan(shared, fresh) -> None:
    assert shared.replay_ok and fresh.replay_ok
    a, b = _plan_state(shared), _plan_state(fresh)
    assert a.keys() == b.keys()
    for key in a:
        if a[key] is None or b[key] is None:
            assert a[key] is None and b[key] is None, key
        elif isinstance(a[key], dict):
            assert a[key] == b[key], key
        else:
            assert np.array_equal(a[key], b[key]), key


@pytest.fixture
def counting():
    """Observability on, counters zeroed; yields a counter reader."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        yield lambda name: obs.snapshot().counters.get(name, 0)
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_shared_plan_matches_fresh_plan(family):
    make, structs = FAMILIES[family]
    shared = TracePlan(TRACE)
    # Fill the memo: every family on its structures, then a second
    # instance of the target configuration on the target structures
    # under another architecture (another module beside it, another
    # DRAM).
    for other_make, other_structs in FAMILIES.values():
        shared.group_plan(_served(other_make(), other_structs))
    rest = {s: "rest" for s in TRACE.structs if s not in structs}
    shared.group_plan(
        _served(make(), structs, [Cache("rest", 2048, 16, 1)], rest,
                dram=Dram("dram", core_latency=30))
    )
    filled = len(shared._outcomes)

    memory = _served(make(), structs, [Cache("rest", 2048, 16, 1)], rest)
    # A reference run leaves the target's own modules warm: an outcome
    # must come from a freshly reset module either way.
    Simulator(TRACE, memory).run(reference=True)
    from_shared = shared.group_plan(memory)
    assert len(shared._outcomes) == filled  # every module was a hit
    # Shared columns cannot be written through.
    assert not any(o.latency.flags.writeable for o in shared._outcomes.values())
    _assert_same_plan(from_shared, TracePlan(TRACE).group_plan(memory))


def test_one_config_on_different_structs_makes_two_entries():
    plan = TracePlan(TRACE)
    make, _ = FAMILIES["cache"]
    plan.group_plan(_served(make(), ("table",)))
    plan.group_plan(_served(make(), ("stream",)))
    plan.group_plan(_served(make(), ("table",)))
    signature = make().config_signature()
    keys = [key for key in plan._outcomes if key[0] == signature]
    struct_ids = sorted(key[1] for key in keys)
    assert struct_ids == sorted(
        [(TRACE.structs.index("table"),), (TRACE.structs.index("stream"),)]
    )


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_changed_config_misses_the_memo(variant, counting):
    make_base, make_changed, structs = VARIANTS[variant]
    plan = TracePlan(TRACE)
    plan.group_plan(_served(make_base(), structs))
    assert counting("sim.batch.module_outcome_builds") == 1
    memory = _served(make_changed(), structs)
    changed = plan.group_plan(memory)
    assert counting("sim.batch.module_outcome_builds") == 2
    assert counting("sim.batch.module_outcome_hits") == 0
    _assert_same_plan(changed, TracePlan(TRACE).group_plan(memory))
    plan.group_plan(_served(make_base(), structs))
    assert counting("sim.batch.module_outcome_hits") == 1


@pytest.mark.parametrize("family", ["self_indirect_dma", "linked_list_dma"])
def test_dma_delays_share_one_recording(family, counting, conn_library):
    make, structs = FAMILIES[family]
    plan = TracePlan(TRACE)
    fast = _served(make(), structs, dram=Dram("dram", core_latency=20))
    slow = _served(make(), structs, dram=Dram("dram", core_latency=45))
    jobs = [
        SimulationJob(memory=fast),
        SimulationJob(
            memory=fast,
            connectivity=simple_connectivity(fast, TRACE, conn_library),
        ),
        SimulationJob(memory=slow),
    ]
    delays = {
        Simulator(TRACE, job.memory, job.connectivity)._dma_backing_delay(
            make().name, 16
        )
        for job in jobs
    }
    assert len(delays) == 3
    results, _ = evaluate_group(TRACE, jobs[:2], plan)
    slow_results, _ = evaluate_group(TRACE, jobs[2:], plan)
    # The fast ideal member records; the fast priced member's group
    # plan and the slow ideal member each hit that recording.
    assert counting("sim.batch.module_outcome_builds") == 1
    assert counting("sim.batch.module_outcome_hits") == 2
    (outcome,) = plan._outcomes.values()
    (recording,) = plan.group_plan(slow).replay.values()
    assert recording is outcome.replay
    for job, result in zip(jobs, results + slow_results):
        reference = Simulator(
            TRACE, job.memory, job.connectivity
        ).run(reference=True)
        assert result == reference


def test_memo_never_exceeds_its_bound():
    plan = TracePlan(TRACE)
    limit = batch._MODULE_OUTCOME_LIMIT
    names = [f"c{i}" for i in range(limit + 8)]
    for name in names:
        plan.group_plan(
            _served(Cache(name, 1024), ("table",), [Sram("sp", 4096)],
                    {"small": "sp"})
        )
        assert len(plan._outcomes) <= limit
    assert len(plan._outcomes) == limit
    # Least recently used out: the SRAM outcome every plan hits stays,
    # the first caches went.
    kept = {key[0] for key in plan._outcomes}
    assert Sram("sp", 4096).config_signature() in kept
    assert Cache(names[-1], 1024).config_signature() in kept
    assert Cache(names[0], 1024).config_signature() not in kept
