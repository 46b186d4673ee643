"""The simulation engine: shared trace plans, one member layout, two latency rules.

Every non-reference simulation runs here. :meth:`Simulator.run
<repro.sim.simulator.Simulator.run>` evaluates itself as a batch of one
(:func:`evaluate_single`), and explorations evaluate many candidates
over one trace (:func:`evaluate_group`). A candidate is either *ideal*
(``connectivity=None``, every APEX candidate) or *priced* (a Phase II
design), and both kinds take one path:

* **per trace** — a :class:`TracePlan` holds sampling masks, the write
  column, each structure's rows, the tick list backing the contention
  walk, and a bounded memo of module outcomes. An outcome is what one
  module does over the structures routed to it, which its
  configuration alone determines, so it is keyed by
  (``config_signature()``, served struct ids) and shared by every
  architecture that has such a module. For batch-capable modules (see
  :attr:`repro.memory.module.MemoryModule.supports_batch`) an outcome
  is the ``access_many`` columns; for the tick-affine DMA engines a
  symbolic :class:`~repro.memory.module.ReplayTrace` recording
  (:meth:`~repro.memory.module.MemoryModule.record_replay`) whose
  stall terms are re-priced per member against its arrivals and
  backing delay. An outcome also carries its scalar counter folds
  (hits, byte sums, transaction counts), computed once. The registry
  behind :func:`trace_plan` keeps the few live traces for
  :func:`evaluate_group`; a single run builds a private plan and drops
  it with the run.
* **one layout per memory architecture** — a :class:`GroupPlan`
  scatters the architecture's module outcomes into whole-run columns
  and folds their counters. Module state evolution is
  tick-independent, so one merged DRAM open-row pass over the run's
  transactions (each access makes at most one) serves every member of
  the layout, and with it each row's memory-only energy terms. A
  priced memory-signature group builds one layout that its members
  share; an ideal member builds its own inside its block, which drops
  it once the member's rows are filled. No layout is retained: the
  outcomes it reads are the costly part, and the memo keeps those.
* **one block evaluator, two latency rules** — members go through
  blocks of member × row arrays (:data:`_BLOCK_ELEMENTS`). An ideal
  member's latency is its layout's stall-free column: one 2-D cumsum
  gives every DMA member's stall-free issue times, and
  :func:`_add_replay_stalls` visits only the replay hits whose slack
  against them is positive. No channel contends, so nothing walks. A
  priced member walks (:func:`_walk`): one integer loop over its
  connectivity-priced transfer columns, driven by the run's sampling
  spans, over the on-window rows, or every row when a module of the
  layout replays, since a replay module's latency depends on its own
  arrivals, and adds its wire energy terms to its per-access energy
  (:func:`_priced_energy`). Members are then sub-blocked by
  (sampling, posted writes), and each sub-block folds its lag,
  per-structure sums and energy column-wise (:func:`_fold_measured`).

Results are **bit-identical** to the scalar reference loop
(:meth:`Simulator.run(reference=True) <repro.sim.simulator.Simulator.run>`):
the walk replicates the reference recurrence's update order over the
shared columns, and the energy fold's vector
expressions replicate the reference loop's float accumulation order
term by term (``np.cumsum`` is a sequential left fold, also along
a block's rows, and adding an exact ``0.0`` is the identity).
``tests/test_sim_kernel_equivalence.py`` and
``tests/test_ideal_pass.py`` assert it.

The reference loop is the only other path. It runs when
``REPRO_REFERENCE_SIM=1`` requests it, and for a candidate with a
module that is neither batch-capable nor replay-recordable (or a
non-batchable DRAM), so correctness never depends on a module opting
in.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from repro import obs
from repro.channels import DRAM
from repro.errors import SimulationError
from repro.memory.energy import (
    DRAM_ACTIVATE_NJ,
    DRAM_PAGE_ACCESS_NJ,
    DRAM_PER_BYTE_NJ,
)
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import (
    RunState,
    Simulator,
    prime_module,
    reference_requested,
)
from repro.timing.batch import transfer_timing_columns
from repro.trace.events import AccessKind

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.apex.architectures import MemoryArchitecture
    from repro.sim.sampling import SamplingConfig
    from repro.trace.events import Trace

__all__ = [
    "GroupPlan",
    "TracePlan",
    "clear_plan_registry",
    "evaluate_group",
    "evaluate_single",
    "trace_plan",
]

_WRITE_CODE = int(AccessKind.WRITE)


class _JobLike(Protocol):
    """What :func:`evaluate_group` needs from a work item.

    Structurally matched by :class:`repro.exec.engine.SimulationJob`
    (the sim layer does not import the exec layer).
    """

    memory: "MemoryArchitecture"
    connectivity: object | None
    sampling: "SamplingConfig | None"
    posted_writes: bool


#: Module outcomes retained per trace plan (distinct module configs
#: over distinct served structures), least recently used first out. An
#: outcome is never larger than the group plan that built it: at most
#: 25 bytes a row for a batch module, and a replay recording plus 8,
#: against a plan's whole-run columns (at least 58 bytes a row) plus
#: its recordings. So the memo retains no more than 32 group plans did.
_MODULE_OUTCOME_LIMIT = 32

#: Trace plans retained process-wide (distinct trace fingerprints).
#: :mod:`repro.exec.runtime` bounds a runtime's shared trace exports
#: and a worker's attached traces by the same count.
_TRACE_PLAN_LIMIT = 4

#: Elements of each member × row array of a block: a block holds
#: ``max(1, _BLOCK_ELEMENTS // len(trace))`` members, so its arrays
#: stay at 128 KiB (int64) whatever the trace length.
_BLOCK_ELEMENTS = 1 << 14


@dataclass
class _Group:
    """One routing target of a member simulator."""

    target: str
    module: object  # MemoryModule | None for direct-DRAM routes
    cpu_state: object  # the simulator's CPU-side channel state
    backing_state: object | None  # its DRAM-side channel state, if any
    batchable: bool
    struct_ids: tuple = ()  # the trace structures routed here


def _build_groups(sim: Simulator) -> tuple[list[_Group], np.ndarray]:
    """One :class:`_Group` per routing target, plus the struct→gid map."""
    channels = sim._channels
    groups: list[_Group] = []
    served: list[list[int]] = []
    index_of: dict[str, int] = {}
    struct_group = np.empty(len(sim._routes), dtype=np.int64)
    for struct_id, route in enumerate(sim._routes):
        gid = index_of.get(route.target)
        if gid is None:
            gid = len(groups)
            index_of[route.target] = gid
            module = route.module
            groups.append(
                _Group(
                    target=route.target,
                    module=module,
                    cpu_state=channels[route.cpu_channel],
                    backing_state=(
                        channels[route.backing_channel]
                        if route.backing_channel >= 0
                        else None
                    ),
                    batchable=module is None or bool(
                        getattr(type(module), "supports_batch", False)
                    ),
                )
            )
            served.append([])
        struct_group[struct_id] = gid
        served[gid].append(struct_id)
    for group, struct_ids in zip(groups, served):
        group.struct_ids = tuple(struct_ids)
    return groups, struct_group


class _Fold(NamedTuple):
    """One routing target's counter folds.

    Everything a member adds to its run state and channel counters
    apart from transfer timing: accesses, hits, CPU-side bytes, and
    the refill and background transactions and bytes on the backing
    channel.
    """

    gid: int
    uncached: bool
    count: int
    hits: int
    size_sum: int
    r_count: int
    r_sum: int
    bg_count: int
    off_sum: int


def _target_fold(
    plan: "TracePlan",
    gid: int,
    group: _Group,
    outcome: "_ModuleOutcome | None",
) -> _Fold:
    """``group``'s counter folds from the plan's per-structure sums and
    its module outcome (``None`` for a direct-DRAM route)."""
    count, size_sum = plan.served_totals(group.struct_ids)
    if outcome is None:
        return _Fold(gid, True, count, 0, size_sum, 0, 0, 0, 0)
    if group.backing_state is None:
        # A module without a DRAM channel never misses to DRAM.
        return _Fold(gid, False, count, outcome.hits, size_sum, 0, 0, 0, 0)
    return _Fold(
        gid, False, count, outcome.hits, size_sum,
        outcome.r_count, outcome.r_sum, outcome.bg_count,
        outcome.off_sum,
    )


def _fold_counters(
    state: RunState, groups: list[_Group], folds: "Iterable[_Fold]"
) -> None:
    """Add every target's counter folds to one member's run state."""
    for fold in folds:
        group = groups[fold.gid]
        count = fold.count
        if fold.uncached:
            # Uncached: straight to DRAM over the off-chip connection.
            counts = state.module_counts[DRAM]
            counts[0] += count
            counts[2] += count
            state.misses += count
        else:
            counts = state.module_counts[group.target]
            counts[0] += count
            counts[1] += fold.hits
            counts[2] += count - fold.hits
            state.misses += count - fold.hits
            back_state = group.backing_state
            if back_state is not None:
                back_state.bytes_moved += fold.r_sum + fold.off_sum
                back_state.transactions += fold.r_count
                back_state.background_transactions += fold.bg_count
        cpu_state = group.cpu_state
        cpu_state.bytes_moved += fold.size_sum
        cpu_state.transactions += count


class TracePlan:
    """Reusable per-trace planning state shared across candidates.

    Holds the columns every candidate evaluation needs but no candidate
    changes: the write mask, sampling masks per distinct
    :meth:`~repro.sim.sampling.SamplingConfig.key`, each structure's
    rows, the tick and write lists for the walk (built on the first
    walk), and the memo of module outcomes that every
    :class:`GroupPlan` over the trace draws from
    (:meth:`module_outcome`).
    """

    def __init__(self, trace: "Trace") -> None:
        self.trace = trace
        self.write_mask = trace.kinds == _WRITE_CODE
        self._sampling: dict = {}
        self._outcomes: "OrderedDict[tuple, _ModuleOutcome]" = OrderedDict()

    @cached_property
    def sizes64(self) -> np.ndarray:
        """The access sizes as int64 (read-only)."""
        sizes = self.trace.sizes.astype(np.int64)
        sizes.flags.writeable = False
        return sizes

    @cached_property
    def _struct_rows(self) -> tuple[list, list, list]:
        """Per structure: its rows in trace order, count and byte sum."""
        struct_ids = self.trace.struct_ids
        order = np.argsort(struct_ids, kind="stable")
        order.flags.writeable = False
        bounds = np.searchsorted(
            struct_ids[order], np.arange(len(self.trace.structs) + 1)
        ).tolist()
        rows = [order[a:b] for a, b in zip(bounds, bounds[1:])]
        sizes = self.sizes64
        return (
            rows,
            [len(r) for r in rows],
            [int(sizes[r].sum()) for r in rows],
        )

    def rows_of(self, struct_ids: tuple) -> np.ndarray:
        """The rows of the structures ``struct_ids``, in trace order."""
        rows = self._struct_rows[0]
        if len(struct_ids) == 1:
            return rows[struct_ids[0]]
        return np.sort(np.concatenate([rows[s] for s in struct_ids]))

    def served_totals(self, struct_ids: tuple) -> tuple[int, int]:
        """``(accesses, bytes)`` of the structures ``struct_ids``."""
        _, counts, byte_sums = self._struct_rows
        return (
            sum(counts[s] for s in struct_ids),
            sum(byte_sums[s] for s in struct_ids),
        )

    @cached_property
    def ticks_l(self) -> list:
        """Issue ticks as a Python list (built on the first walk)."""
        return self.trace.ticks.tolist()

    @cached_property
    def write_l(self) -> list:
        """Posted-write column as a Python list (built on first use)."""
        return self.write_mask.tolist()

    def sampling_columns(
        self, sampling: "SamplingConfig | None"
    ) -> tuple[np.ndarray | None, np.ndarray | None, int]:
        """``(on_mask, counted_mask, measured)`` for one schedule.

        ``(None, None, n)`` for unsampled runs; cached per
        :meth:`SamplingConfig.key` so candidates sharing a schedule
        share the mask materialization.
        """
        key = None if sampling is None else sampling.key()
        columns = self._sampling.get(key)
        if columns is None:
            n = len(self.trace)
            if sampling is None:
                columns = (None, None, n)
            else:
                on_mask, counted = sampling.masks(n)
                columns = (on_mask, counted, int(np.count_nonzero(counted)))
            self._sampling[key] = columns
        return columns

    def group_plan(self, memory: "MemoryArchitecture") -> "GroupPlan":
        """A :class:`GroupPlan` for the memory architecture.

        Every call builds a fresh plan; the modules it runs are shared
        through :meth:`module_outcome`, so a plan whose modules earlier
        plans already ran pays only its DRAM pass and counter folds.
        """
        with obs.span("sim.batch.build_group_plan"):
            # A connectivity-free lead: routes and modules are all the
            # plan reads, and it validates once per group.
            return GroupPlan(self, Simulator(self.trace, memory))

    def module_outcome(
        self, module, struct_ids: tuple, positions: np.ndarray
    ) -> "_ModuleOutcome | None":
        """``module``'s outcome over the rows of ``struct_ids``, memoised.

        Keyed by ``(module.config_signature(), struct_ids)``: an outcome
        is computed from a freshly reset (and, for a DMA engine,
        freshly primed) module over exactly those rows, so any module
        of equal configuration serving the same structures reproduces
        it. A replay recording is symbolic in the backing delay, which
        :meth:`~repro.memory.module.MemoryModule.config_signature`
        leaves out, so members with different delays share it too.
        ``positions`` are the rows of ``struct_ids`` in trace order.
        ``None`` when the module can be neither batched nor recorded.
        """
        key = (module.config_signature(), struct_ids)
        outcome = self._outcomes.get(key)
        if outcome is not None:
            self._outcomes.move_to_end(key)
            if obs.enabled():
                obs.incr("sim.batch.module_outcome_hits")
            return outcome
        outcome = _run_module(self.trace, module, struct_ids, positions)
        if outcome is None:
            return None
        self._outcomes[key] = outcome
        while len(self._outcomes) > _MODULE_OUTCOME_LIMIT:
            self._outcomes.popitem(last=False)
        if obs.enabled():
            obs.incr("sim.batch.module_outcome_builds")
        return outcome


class _ModuleOutcome:
    """One module's columns over its rows, shared by every member.

    ``off`` is the off-critical-path backing traffic (writeback plus
    prefetch bytes, or ``None`` when the module has neither);
    ``replay`` is the :class:`~repro.memory.module.ReplayTrace` of a
    tick-affine DMA engine, ``None`` for a batch-capable module. The
    counter folds are computed once here: ``hits``, the refill
    transactions ``r_count`` and bytes ``r_sum``, and the background
    transactions ``bg_count`` and bytes ``off_sum``. Every column is
    made read-only, since every member that hits the memo shares it.
    """

    __slots__ = (
        "latency", "hit", "refill", "off", "replay", "node_size",
        "hits", "r_count", "r_sum", "bg_count", "off_sum",
    )

    def __init__(self, latency, hit, refill, off, replay=None, node_size=0):
        self.latency = latency
        self.hit = hit
        self.refill = refill
        self.off = off
        self.replay = replay
        self.node_size = node_size
        self.hits = int(np.count_nonzero(hit))
        self.r_count = 0 if refill is None else int(np.count_nonzero(refill))
        self.r_sum = 0 if refill is None else int(refill.sum(dtype=np.int64))
        self.bg_count = 0 if off is None else int(np.count_nonzero(off))
        self.off_sum = 0 if off is None else int(off.sum())
        columns = [latency, hit, refill, off]
        if replay is not None:
            columns += [getattr(replay, name) for name in replay.__slots__]
        for column in columns:
            if column is not None:
                column.flags.writeable = False


def _run_module(
    trace: "Trace", module, struct_ids: tuple, positions: np.ndarray
) -> _ModuleOutcome | None:
    """Reset, prime and run ``module`` over the rows ``positions``."""
    prime_module(module, trace, struct_ids)
    sizes = trace.sizes[positions].astype(np.int64)
    kinds = trace.kinds[positions]
    if getattr(type(module), "supports_batch", False):
        batch = module.access_many(trace.addresses[positions], sizes, kinds)
        writeback = batch.writeback_bytes
        prefetch = batch.prefetch_bytes
        if writeback is None:
            off = prefetch
        elif prefetch is None:
            off = writeback
        else:
            off = writeback + prefetch
        return _ModuleOutcome(
            batch.latency, batch.hit, batch.refill_bytes, off
        )
    recording = (
        module.record_replay(sizes, kinds)
        if getattr(type(module), "supports_replay", False)
        else None
    )
    if recording is None:
        return None
    return _ModuleOutcome(
        recording.latency,
        recording.hit,
        recording.refill_bytes,
        recording.writeback_bytes + recording.prefetch_bytes,
        recording,
        int(getattr(module, "node_size", 0)),
    )


class _WalkLists:
    """A group plan's per-row Python lists for the contention walk.

    Plain list indexing beats any per-row tuple machinery in CPython;
    the rarely-read lists are only indexed on the rows needing them.
    The replay lists exist only when the group has a replay module.
    """

    __slots__ = (
        "gid", "refill", "bg", "core", "dch", "rsrc", "ralpha", "rbeta",
    )


class GroupPlan:
    """One memory architecture's layout over a :class:`TracePlan`.

    Built from a *lead* :class:`Simulator` over the architecture: once
    per priced memory-signature group, whose members share it, and once
    per ideal member, from that member's own simulator. Each routed
    module's outcome comes from the trace plan's memo
    (:meth:`TracePlan.module_outcome`), which runs the lead's module
    only when no earlier layout ran an equally configured one on the
    same structures. Module behaviour (state evolution, hit and byte
    columns) is configuration-determined, and architectures with equal
    signatures have identical module names, routes, and channel sets,
    so the columns transfer to every member verbatim. Only the stall
    *latency* of a replay module depends on the member — kept symbolic
    in the recording and re-priced per member. The DRAM is reset and
    its open-row pass run for every layout, and each row's memory-only
    energy terms follow from it: ``e_dram`` (rows × 2: the
    refill-or-uncached DRAM transaction, then the background burst in
    page mode, the reference loop's order) and ``e_module`` (the module
    access), each ``0.0`` where absent.
    ``replay_ok`` is false when a module (or the DRAM) can be neither
    batched nor recorded; the layout then holds nothing else and its
    members run the reference loop.
    """

    def __init__(self, plan: TracePlan, lead: Simulator) -> None:
        trace = plan.trace
        dram = lead.memory.dram
        groups, struct_group = _build_groups(lead)
        self.targets = [group.target for group in groups]
        self.replay_ok = bool(getattr(type(dram), "supports_batch", False))
        if not self.replay_ok:
            return
        dram.reset()
        n = len(trace)
        self.sizes64 = plan.sizes64
        uncached = np.zeros(n, dtype=bool)
        mlat = np.zeros(n, dtype=np.int64)
        refill = np.zeros(n, dtype=np.int64)
        offpath = np.zeros(n, dtype=np.int64)
        module_nj = np.zeros(n, dtype=np.float64)
        #: gid -> ReplayTrace for the tick-affine modules.
        self.replay: dict[int, object] = {}
        self.node_sizes: dict[int, int] = {}
        self.positions_of: dict[int, np.ndarray] = {}
        self.fold: list[_Fold] = []

        for gid, group in enumerate(groups):
            positions = plan.rows_of(group.struct_ids)
            if not len(positions):
                continue
            self.positions_of[gid] = positions
            module = group.module
            if module is None:
                uncached[positions] = True
                self.fold.append(_target_fold(plan, gid, group, None))
                continue
            outcome = plan.module_outcome(module, group.struct_ids, positions)
            if outcome is None:
                self.replay_ok = False
                return
            if outcome.replay is not None:
                self.replay[gid] = outcome.replay
                self.node_sizes[gid] = outcome.node_size
            mlat[positions] = outcome.latency
            module_nj[positions] = module.access_energy_nj
            fold = _target_fold(plan, gid, group, outcome)
            self.fold.append(fold)
            if fold.r_count:
                refill[positions] = outcome.refill
            if fold.bg_count:
                offpath[positions] = outcome.off

        self._struct_group = struct_group
        self._struct_ids = trace.struct_ids
        self.uncached = uncached
        self.mlat = mlat
        self.refill = refill
        self.offpath = offpath
        self.dram_mask = uncached | (refill > 0)
        # The merged open-row pass: each access makes at most one DRAM
        # transaction (uncached or refill) and background bursts never
        # touch row state, so the run's DRAM stream is exactly the
        # masked rows in trace order.
        self.core = np.zeros(n, dtype=np.int64)
        dram_idx = np.flatnonzero(self.dram_mask)
        self.merged_dram = int(len(dram_idx))
        if self.merged_dram:
            self.core[dram_idx] = dram.open_row_latencies(
                trace.addresses[dram_idx]
            )
        self.has_replay = bool(self.replay)
        self._channel_column = (
            dram.channel_column if dram.channels > 1 else None
        )
        self._addresses = trace.addresses
        # Priced as the reference loop prices them: a transaction pays
        # an activation unless it hits the open row, and a background
        # burst runs in page mode.
        self.e_dram = np.zeros((n, 2), dtype=np.float64)
        transaction = DRAM_PAGE_ACCESS_NJ + DRAM_PER_BYTE_NJ * self.dram_bytes
        np.add(
            transaction, DRAM_ACTIVATE_NJ, out=transaction,
            where=self.core != dram.page_hit_latency,
        )
        self.e_dram[self.dram_mask, 0] = transaction[self.dram_mask]
        background = offpath > 0
        self.e_dram[background, 1] = (
            DRAM_PAGE_ACCESS_NJ + DRAM_PER_BYTE_NJ * offpath[background]
        )
        self.e_module = module_nj

    @cached_property
    def gid(self) -> np.ndarray:
        """Each row's routing-target index (built for the first walk)."""
        return self._struct_group[self._struct_ids]

    @property
    def dram_bytes(self) -> np.ndarray:
        """Each row's DRAM transaction bytes, read where ``dram_mask``
        is set: its size when uncached, its refill otherwise."""
        return np.where(self.uncached, self.sizes64, self.refill)

    def dram_channels(self, sel, count: int) -> list:
        """DRAM channel indices of the ``count`` rows ``sel``, as a list."""
        if self._channel_column is None:
            return [0] * count
        return self._channel_column(self._addresses)[sel].tolist()

    @cached_property
    def walk_lists(self) -> _WalkLists:
        """The whole-run walk lists, built on the first walk."""
        lists = _WalkLists()
        lists.gid = self.gid.tolist()
        lists.refill = (self.refill > 0).tolist()
        lists.bg = (self.offpath > 0).tolist()
        lists.core = self.core.tolist()
        lists.dch = self.dram_channels(slice(None), len(lists.gid))
        lists.rsrc = lists.ralpha = lists.rbeta = None
        if self.has_replay:
            n = len(self.gid)
            stall_src = np.full(n, -1, dtype=np.int64)
            stall_alpha = np.zeros(n, dtype=np.int64)
            stall_beta = np.zeros(n, dtype=np.int64)
            for gid, recording in self.replay.items():
                positions = self.positions_of[gid]
                stall_src[positions] = recording.stall_src
                stall_alpha[positions] = recording.stall_alpha
                stall_beta[positions] = recording.stall_beta
            lists.rsrc = stall_src.tolist()
            lists.ralpha = stall_alpha.tolist()
            lists.rbeta = stall_beta.tolist()
        return lists


# -- trace-plan registry ----------------------------------------------------

_PLANS: "OrderedDict[str, TracePlan]" = OrderedDict()


def trace_plan(trace: "Trace") -> TracePlan:
    """The trace's :class:`TracePlan`, from the process-wide registry."""
    fingerprint = trace.fingerprint()
    plan = _PLANS.get(fingerprint)
    if plan is not None:
        _PLANS.move_to_end(fingerprint)
        if obs.enabled():
            obs.incr("sim.batch.traceplan_hits")
        return plan
    plan = TracePlan(trace)
    _PLANS[fingerprint] = plan
    while len(_PLANS) > _TRACE_PLAN_LIMIT:
        _PLANS.popitem(last=False)
    if obs.enabled():
        obs.incr("sim.batch.traceplan_builds")
    return plan


def clear_plan_registry() -> None:
    """Drop every cached trace plan (tests and benchmarks)."""
    _PLANS.clear()


# -- entry points -----------------------------------------------------------


def evaluate_single(sim: Simulator) -> SimulationResult | None:
    """:meth:`Simulator.run`'s engine path: ``sim`` as a batch of one.

    Uses a private :class:`TracePlan` (never the registry, so separate
    runs stay independent and a long trace's walk lists die with the
    run) whose outcomes ``sim``'s own modules compute, and its DMA
    engines carry this run's backing hint. ``sim`` is the lead of its
    own layout. Returns ``None`` when a module can be neither batched
    nor recorded; the caller then runs the reference loop, which
    re-primes every module.
    """
    sim._install_backing_hints()
    return _evaluate_block(TracePlan(sim.trace), [sim], None)[0]


def evaluate_group(
    trace: "Trace",
    jobs: "Sequence[_JobLike]",
    plan: TracePlan | None = None,
) -> tuple[list[SimulationResult], int]:
    """Evaluate one dispatch unit of candidates over ``trace``.

    Ideal members (``connectivity is None``) may carry any memory
    signatures: each builds its own layout inside its block. Priced
    members must share one memory
    :meth:`~repro.apex.architectures.MemoryArchitecture.signature`
    (the callers group them by exactly that key) and share one
    :class:`GroupPlan`. Returns ``(results, delta_candidates)`` with
    ``results[i]`` bit-identical to ``Simulator(trace, ...).run()`` of
    ``jobs[i]``; ``delta_candidates`` counts the members the engine
    served — the rest ran the reference loop (it was requested, or a
    member module neither batches nor replays).
    """
    jobs = list(jobs)
    if not jobs:
        return [], 0
    if plan is None:
        plan = trace_plan(trace)
    if reference_requested():
        return [_reference_run(trace, job) for job in jobs], 0
    results: list = [None] * len(jobs)
    ideal = [i for i, job in enumerate(jobs) if job.connectivity is None]
    priced = [i for i, job in enumerate(jobs) if job.connectivity is not None]
    if ideal:
        with obs.span("sim.batch.ideal"):
            served = _evaluate_members(
                plan, (_job_simulator(trace, jobs[i]) for i in ideal)
            )
        for i, result in zip(ideal, served):
            results[i] = result
    if priced:
        gplan = plan.group_plan(jobs[priced[0]].memory)
        with obs.span("sim.batch.group"):
            served = _evaluate_members(
                plan,
                (
                    _job_simulator(trace, jobs[i], validated=True)
                    for i in priced
                ),
                gplan,
            )
        for i, result in zip(priced, served):
            results[i] = result
    delta = 0
    for i, result in enumerate(results):
        if result is None:
            results[i] = _reference_run(trace, jobs[i])
        else:
            delta += 1
    if obs.enabled():
        obs.incr("sim.batch.groups")
        obs.incr("sim.batch.delta_pass_candidates", delta)
    return results, delta


def _job_simulator(
    trace: "Trace", job: "_JobLike", validated: bool = False
) -> Simulator:
    """``job``'s simulator over ``trace``."""
    return Simulator(
        trace,
        job.memory,
        job.connectivity,
        job.sampling,
        job.posted_writes,
        validated=validated,
    )


def _reference_run(trace: "Trace", job: "_JobLike") -> SimulationResult:
    """One job through the scalar reference loop."""
    return _job_simulator(trace, job).run(reference=True)


# -- the block evaluator ----------------------------------------------------


def _evaluate_members(
    plan: TracePlan,
    sims: Iterable[Simulator],
    gplan: GroupPlan | None = None,
) -> list[SimulationResult | None]:
    """Every simulator in ``sims``, block by block.

    ``gplan`` is the layout every member shares (a priced signature
    group); with ``None`` each member builds its own inside its block.
    Results are ordered like ``sims``; ``None`` marks a member that
    must run the reference loop (its layout is not ``replay_ok``).
    Blocks take consecutive members, so errors surface in member order
    within a block and block by block.
    """
    per_block = max(1, _BLOCK_ELEMENTS // len(plan.trace))
    sims = iter(sims)
    results: list = []
    while True:
        block = list(islice(sims, per_block))
        if not block:
            return results
        results += _evaluate_block(plan, block, gplan)


def _evaluate_block(
    plan: TracePlan, sims: list[Simulator], gplan: GroupPlan | None
) -> list[SimulationResult | None]:
    """One block of members; see the module docstring."""
    trace = plan.trace
    n = len(trace)
    # Rows grouped by (sampling schedule, posted writes), so every
    # sub-block is a contiguous slice sharing its masks.
    by_key: dict = {}
    for index, sim in enumerate(sims):
        key = (
            None if sim.sampling is None else sim.sampling.key(),
            sim.posted_writes,
        )
        by_key.setdefault(key, []).append(index)
    sub_blocks = list(by_key.values())
    order = [index for indices in sub_blocks for index in indices]
    row_of = np.argsort(order).tolist()

    k = len(sims)
    # A member left to the reference loop keeps an inert row.
    latency = np.ones((k, n), dtype=np.int64)
    energy = np.zeros((k, n), dtype=np.float64)
    e_dram = np.zeros((k, n, 2), dtype=np.float64)
    e_module = np.zeros((k, n), dtype=np.float64)
    states: list = [None] * k
    terms: list = [None] * k
    # In member order, so the first walk to fail raises. A member's
    # rows are filled as soon as its layout is built, so an ideal
    # member's layout is dropped before the next one's is built.
    for index, sim in enumerate(sims):
        layout = GroupPlan(plan, sim) if gplan is None else gplan
        if not layout.replay_ok:
            continue
        groups, _ = _build_groups(sim)
        if [group.target for group in groups] != layout.targets:
            raise SimulationError(
                "batch group plan does not match the candidate's routing"
            )
        row = row_of[index]
        state = states[row] = RunState(sim)
        _fold_counters(state, groups, layout.fold)
        e_dram[row] = layout.e_dram
        e_module[row] = layout.e_module
        on_mask, counted, _ = plan.sampling_columns(sim.sampling)
        if sim.connectivity is None:
            np.add(layout.mlat, layout.core, out=latency[row])
            if layout.replay:
                terms[row] = _replay_terms(sim, layout)
            # Every wire term is an exact 0.0 under ideal connectivity,
            # so leaving them out is bit-identical.
            np.add(layout.e_dram[:, 0], layout.e_dram[:, 1], out=energy[row])
            energy[row] += layout.e_module
        else:
            latency[row] = _walk(sim, state, groups, plan, layout, on_mask)
            state.energy_wires += _priced_energy(
                layout, groups, counted, energy[row]
            )
        if obs.enabled():
            if sim.connectivity is None:
                obs.incr("sim.batch.ideal_members")
            if layout.merged_dram:
                obs.incr("sim.kernel.openrow_merged_passes")
                obs.incr(
                    "sim.kernel.openrow_merged_accesses", layout.merged_dram
                )
            if not layout.has_replay:
                n_on = n if on_mask is None else int(np.count_nonzero(on_mask))
                obs.incr("sim.kernel.onwindow_batched", n_on)
    _add_replay_stalls(
        trace.ticks,
        latency,
        [
            plan.write_mask if sims[index].posted_writes else None
            for index in order
        ],
        terms,
    )
    lowest = latency.min(axis=1).tolist()
    start = 0
    for indices in sub_blocks:
        stop = start + len(indices)
        if any(state is not None for state in states[start:stop]):
            _fold_measured(
                plan,
                sims[indices[0]],
                states[start:stop],
                latency[start:stop],
                energy[start:stop],
                e_dram[start:stop],
                e_module[start:stop],
            )
        start = stop

    results: list = []
    for sim, row in zip(sims, row_of):
        state = states[row]
        if state is None:
            results.append(None)
            continue
        if lowest[row] < 1:
            _check_latency(latency[row])
        results.append(sim._finalize(state))
    return results


def _fold_measured(
    plan: TracePlan,
    sim: Simulator,
    states: list,
    latency: np.ndarray,
    energy: np.ndarray,
    e_dram: np.ndarray,
    e_module: np.ndarray,
) -> None:
    """Fold one sub-block's lag and measured-window statistics.

    Every member shares ``sim``'s sampling schedule and posted-write
    mode; ``states`` are their run states (``None`` for a row left to
    the reference loop). ``latency`` holds the members' raw (pre
    posted-write) latency rows, ``energy`` each access's energy, and
    ``e_dram`` (members × rows × 2) and ``e_module`` their layouts'
    memory-only energy terms.

    Replicates the reference loop's accumulation order exactly: the
    running totals are sequential left folds (``np.cumsum``) over the
    counted rows, with each access's two DRAM terms in reference order
    via a row-major reshape. They are taken in place: the block's
    columns are not read again.
    """
    trace = plan.trace
    n = len(trace)
    _, counted, measured = plan.sampling_columns(sim.sampling)
    eff = (
        np.where(plan.write_mask, np.int64(1), latency)
        if sim.posted_writes
        else latency
    )
    lags = (eff.sum(axis=1) - n).tolist()
    for state, lag in zip(states, lags):
        if state is not None:
            state.lag += lag
            state.measured += measured
    if not measured:
        return
    if counted is not None:
        eff = eff[:, counted]
        energy = energy[:, counted]
        e_dram = e_dram[:, counted]
        e_module = e_module[:, counted]
    struct_col = (
        trace.struct_ids if counted is None else trace.struct_ids[counted]
    )
    n_structs = len(trace.structs)
    counts = np.bincount(struct_col, minlength=n_structs).tolist()
    k = len(states)
    # float64 bincount weights stay exact below 2**53.
    totals = (
        np.bincount(
            (struct_col + n_structs * np.arange(k)[:, None]).ravel(),
            weights=eff.ravel(),
            minlength=k * n_structs,
        )
        .astype(np.int64)
        .reshape(k, n_structs)
        .tolist()
    )
    latency_sums = eff.sum(axis=1).tolist()
    energy_sums = np.cumsum(energy, axis=1, out=energy)[:, -1].tolist()
    module_sums = np.cumsum(e_module, axis=1, out=e_module)[:, -1].tolist()
    e_dram = e_dram.reshape(k, -1)
    dram_sums = np.cumsum(e_dram, axis=1, out=e_dram)[:, -1].tolist()
    for i, state in enumerate(states):
        if state is None:
            continue
        state.latency_sum += latency_sums[i]
        struct_counts = state.struct_counts
        struct_latency = state.struct_latency
        for struct_id, count in enumerate(counts):
            if count:
                struct_counts[struct_id] += count
                struct_latency[struct_id] += totals[i][struct_id]
        state.energy_sum += energy_sums[i]
        state.energy_modules += module_sums[i]
        state.energy_dram += dram_sums[i]


def _replay_terms(
    sim: Simulator, layout: GroupPlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, srcs, ready)`` of every replay hit of one member.

    ``layout`` is the member's :class:`GroupPlan`. A hit at trace row
    ``rows[i]`` stalls until
    ``srcs[i]``'s arrival plus ``ready[i]``: the recording's local
    ``stall_src`` mapped to trace rows through the target's positions,
    and its affine term priced under this member's backing delay. Rows
    are in trace order across every replay module of the member.
    """
    rows, srcs, ready = [], [], []
    for gid, recording in layout.replay.items():
        positions = layout.positions_of[gid]
        local = np.flatnonzero(recording.stall_src >= 0)
        delay = sim._dma_backing_delay(
            layout.targets[gid], layout.node_sizes[gid]
        )
        rows.append(positions[local])
        srcs.append(positions[recording.stall_src[local]])
        ready.append(
            recording.stall_alpha[local] * delay
            + recording.stall_beta[local]
        )
    if len(rows) == 1:
        return rows[0], srcs[0], ready[0]
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    return (
        rows[order],
        np.concatenate(srcs)[order],
        np.concatenate(ready)[order],
    )


def _add_replay_stalls(
    ticks: np.ndarray,
    latency: np.ndarray,
    posted: list,
    terms: list,
) -> None:
    """Add each member's replay stalls to its row of ``latency``.

    ``latency`` is a members × rows block of stall-free latencies of
    runs in which no channel contends, updated in place. ``posted[k]``
    marks the rows member ``k`` does not wait for (``None`` when its
    writes block), and ``terms[k]`` is its :func:`_replay_terms` (or
    ``None``): row ``rows[i]`` is served no earlier than
    ``issue[srcs[i]] + ready[i]``, where ``issue`` is the tick plus
    the lag the row is issued at.

    Stalls only add to the lag. With ``issue0`` the issue times had no
    row stalled (one 2-D cumsum over the members with replay hits), a
    hit's *slack* is ``d = issue0[src] + ready - issue0[row]``, and its
    stall is ``max(0, d - (S[row] - S[src]))``, where ``S`` sums the
    lag-moving stalls before a row (a posted row's stall does not move
    the lag). ``S`` never decreases, so a hit with ``d <= 0`` never
    stalls, and only the others are visited, in trace order. Every row
    up to a member's first row under one cycle (:func:`_check_latency`)
    is exact.
    """
    stalling = [
        k for k, term in enumerate(terms) if term is not None and len(term[0])
    ]
    if not stalling:
        return
    step = latency[stalling] - 1
    for i, k in enumerate(stalling):
        if posted[k] is not None:
            step[i, posted[k]] = 0
    issue0 = ticks + (np.cumsum(step, axis=1) - step)
    for i, k in enumerate(stalling):
        rows, srcs, ready = terms[k]
        slack = issue0[i, srcs] + ready - issue0[i, rows]
        hot = np.flatnonzero(slack > 0)
        if obs.enabled():
            obs.incr("sim.kernel.replay_stall_rows", len(hot))
        if len(hot):
            hot_rows = rows[hot]
            latency[k, hot_rows] += _resolve_stalls(
                slack[hot].tolist(),
                # S[src]: the stalls of the hot rows before the source.
                np.searchsorted(hot_rows, srcs[hot]).tolist(),
                None if posted[k] is None else posted[k][hot_rows].tolist(),
            )


def _check_latency(latency: np.ndarray) -> None:
    """Raise the reference loop's :class:`SimulationError` for the
    first row of a member's raw latency column under one cycle."""
    if int(latency.min()) < 1:
        bad = int(np.argmax(latency < 1))
        raise SimulationError(
            f"access {bad} completed in {int(latency[bad])} cycles"
        )


def _resolve_stalls(slack: list, src_hot: list, posted: list | None) -> list:
    """Each hot row's stall, in trace order.

    ``src_hot[i]`` counts the hot rows before row ``i``'s source, so
    ``moved[src_hot[i]]`` is ``S`` at the source; ``posted`` marks the
    hot rows whose stall does not move the lag (``None``: none).
    """
    stalls = [0] * len(slack)
    moved = [0] * (len(slack) + 1)
    total = 0
    for i, d in enumerate(slack):
        stall = d - total + moved[src_hot[i]]
        if stall > 0:
            stalls[i] = stall
            if posted is None or not posted[i]:
                total += stall
        moved[i + 1] = total
    return stalls


# -- the priced latency rule ------------------------------------------------


def _transfer_columns(gplan: GroupPlan, groups: list[_Group]) -> tuple:
    """One priced member's connectivity-priced transfer columns.

    ``(conn, occ, dbase, dbeats, docc, bgocc)`` over the whole run: a
    cached access's CPU-side transfer latency, and its (or an uncached
    access's) CPU-side occupancy; each DRAM transaction's off-chip
    command latency, data-beat cycles and occupancy; and each
    background burst's occupancy. Zero where a route has no component.
    """
    n = len(gplan.mlat)
    conn, occ, dbase, dbeats, docc, bgocc = (
        np.zeros(n, dtype=np.int64) for _ in range(6)
    )
    for fold in gplan.fold:
        group = groups[fold.gid]
        positions = gplan.positions_of[fold.gid]
        component = group.cpu_state.component
        if component is not None:
            lat_col, occ[positions] = transfer_timing_columns(
                component, gplan.sizes64[positions]
            )
            if fold.uncached:
                # Uncached: straight to DRAM over the off-chip connection.
                dbase[positions] = component.base_latency
                dbeats[positions] = lat_col - component.base_latency
            else:
                conn[positions] = lat_col
        back = group.backing_state
        back_component = None if back is None else back.component
        if fold.uncached or back_component is None:
            continue
        if fold.r_count:
            rows = positions[np.flatnonzero(gplan.refill[positions])]
            lat_col, docc[rows] = transfer_timing_columns(
                back_component, gplan.refill[rows]
            )
            dbase[rows] = back_component.base_latency
            dbeats[rows] = lat_col - back_component.base_latency
        if fold.bg_count:
            rows = positions[np.flatnonzero(gplan.offpath[positions])]
            _, bgocc[rows] = transfer_timing_columns(
                back_component, gplan.offpath[rows]
            )
    return conn, occ, dbase, dbeats, docc, bgocc


def _priced_energy(
    gplan: GroupPlan,
    groups: list[_Group],
    counted: np.ndarray | None,
    out: np.ndarray,
) -> float:
    """One priced member's per-access energy, into ``out``, and its
    wire energy over the ``counted`` rows (``None``: every row).

    The wire terms of an access, in reference order: the
    refill-or-uncached transfer, the background burst and the CPU-side
    transfer, each priced at its channel's energy per byte under the
    member's connectivity. An access's energy is the reference loop's
    nested pair sums over them and the layout's memory-only terms
    (absent terms contribute an exact ``0.0``, the float identity);
    the wire total is a sequential left fold (``np.cumsum``) over the
    counted rows' terms in reference order, ``0.0`` with none.
    """
    n = len(gplan.mlat)
    cpu_epb = np.zeros(n, dtype=np.float64)
    back_epb = np.zeros(n, dtype=np.float64)
    for gid, positions in gplan.positions_of.items():
        group = groups[gid]
        cpu_epb[positions] = group.cpu_state.energy_per_byte
        if group.backing_state is not None:
            back_epb[positions] = group.backing_state.energy_per_byte
    wires = np.empty((n, 3), dtype=np.float64)
    wires[:, 0] = gplan.dram_bytes * np.where(
        gplan.uncached, cpu_epb, back_epb
    )
    wires[:, 1] = gplan.offpath * back_epb
    wires[:, 2] = np.where(gplan.uncached, 0.0, gplan.sizes64 * cpu_epb)
    # (refill-or-uncached DRAM + wire) + (background DRAM + wire), then
    # + (module + CPU wire).
    np.add(gplan.e_dram[:, 0], wires[:, 0], out=out)
    out += gplan.e_dram[:, 1] + wires[:, 1]
    out += gplan.e_module + wires[:, 2]
    if counted is not None:
        wires = wires[counted]
    folded = np.cumsum(wires.ravel())
    return float(folded[-1]) if len(folded) else 0.0


# -- the walk ---------------------------------------------------------------


def _walk(
    sim: Simulator,
    state: RunState,
    groups: list[_Group],
    plan: TracePlan,
    gplan: GroupPlan,
    on_mask: np.ndarray | None,
) -> np.ndarray:
    """A priced member's contention walk; returns its raw latency column.

    Only members with connectivity walk (ideal ones take
    :func:`_add_replay_stalls`). One integer loop replays the
    reference recurrence's state updates in the exact reference order
    over the layout's columns and the member's transfer columns
    (:func:`_transfer_columns`; no ``timing()`` calls, no module calls,
    no response allocations), pricing each replay hit's stall from its
    affine term against this member's arrivals and backing delay. It
    leaves the channel timelines and counters exactly as the reference
    loop would; the returned column is pre posted-write folding, and
    the lag it implies is folded from it (:func:`_fold_measured`).

    The run's sampling spans drive the loop (one ``(0, n, True)`` span
    when unsampled). Without a replay module an off-window span
    reduces to slice sums of the contention-free column, so the loop
    reads only the on-window rows (whole-run lists when unsampled,
    lists of just those rows when sampled). A replay module's latency
    depends on its own arrivals, so with one the loop walks every row
    of every span. Whether a span is on is folded into the per-group
    routing constants the loop unpacks, so no row tests it.
    """
    channels = sim._channels
    posted = sim.posted_writes
    page_hit_latency = sim.memory.dram.page_hit_latency
    conn, occ, dbase, dbeats, docc, bgocc = _transfer_columns(gplan, groups)
    n = len(sim.trace)
    spans = [(0, n, True)] if sim.sampling is None else sim.sampling.windows(n)

    # Per-group routing constants for on- and off-window spans. Off the
    # window nothing queues and no timeline moves, so both connections
    # count as uncontended there; an uncontended transfer with no
    # component has zero base latency and zero beats, so one sum prices
    # both cases.
    channel_of = {id(channel): i for i, channel in enumerate(channels)}
    on_info = []
    off_info = []
    for gid, group in enumerate(groups):
        cpu = group.cpu_state
        component = cpu.component
        back = group.backing_state
        back_component = back.component if back is not None else None
        uncached = group.module is None
        replay = not group.batchable
        delay = (
            sim._dma_backing_delay(group.target, gplan.node_sizes.get(gid, 0))
            if replay
            else 0
        )
        info = [
            uncached,
            replay,
            component is not None,
            cpu.cluster_index,
            channel_of[id(cpu)],
            component is not None and bool(component.split_transactions),
            component.base_latency if component is not None else 0,
            back_component is not None,
            back.cluster_index if back is not None else 0,
            channel_of[id(back)] if back is not None else 0,
            back_component is not None
            and bool(back_component.split_transactions),
            back_component.base_latency if back_component is not None else 0,
            delay,
        ]
        on_info.append(tuple(info))
        info[2] = info[7] = False
        off_info.append(tuple(info))

    has_replay = gplan.has_replay
    on_idx = None if has_replay or on_mask is None else np.flatnonzero(on_mask)
    if on_idx is None:
        sel = slice(None)
        lists = gplan.walk_lists
        ticks_l = plan.ticks_l
        gid_l = lists.gid
        refill_l = lists.refill
        core_l = lists.core
        bg_l = lists.bg
        dch_l = lists.dch
        write_l = plan.write_l if posted else None
        rsrc_l = lists.rsrc
        ralpha_l = lists.ralpha
        rbeta_l = lists.rbeta
    else:
        # The contention-free column: connection transfer + module
        # latency + backing command/data cycles + DRAM core. The walk
        # overwrites its on rows.
        latency = conn + gplan.mlat + dbase + dbeats + gplan.core
        sel = on_idx
        ticks_l = sim.trace.ticks[sel].tolist()
        gid_l = gplan.gid[sel].tolist()
        refill_l = (gplan.refill[sel] > 0).tolist()
        core_l = gplan.core[sel].tolist()
        bg_l = (gplan.offpath[sel] > 0).tolist()
        dch_l = gplan.dram_channels(sel, len(ticks_l))
        write_l = plan.write_mask[sel].tolist() if posted else None
    # A row's wire and module latencies fold into one serve column;
    # only a replay hit needs its arrival tick on its own.
    serve_l = (conn + gplan.mlat)[sel].tolist()
    conn_l = conn.tolist() if has_replay else None
    occ_l = occ[sel].tolist()
    dbeats_l = dbeats[sel].tolist()
    docc_l = docc[sel].tolist()
    bgocc_l = bgocc[sel].tolist()

    lat_out = [0] * len(gid_l)
    arrivals: list[list[int]] = [[] for _ in groups]
    cluster_free = state.cluster_free
    dram_free = state.dram_free
    lag = 0
    waits = [0] * len(channels)
    busys = [0] * len(channels)
    cch = wait_acc = busy_acc = 0

    row = 0
    for span_start, span_stop, on in spans:
        if on_idx is not None and not on:
            segment = latency[span_start:span_stop]
            if int(segment.min()) < 1:
                bad = int(np.argmax(segment < 1))
                raise SimulationError(
                    f"access {span_start + bad} completed in "
                    f"{int(segment[bad])} cycles"
                )
            if posted:
                segment = np.where(
                    plan.write_mask[span_start:span_stop],
                    np.int64(1),
                    segment,
                )
            lag += int(segment.sum()) - (span_stop - span_start)
            continue
        ginfo = on_info if on else off_info
        last_gid = -1
        stop = row + (span_stop - span_start)
        for k in range(row, stop):
            gid = gid_l[k]
            if gid != last_gid:
                # Routing constants change only on a group switch;
                # traces run the same structure for long stretches, so
                # the CPU channel's wait/busy sums also accumulate in
                # locals and flush on the switch.
                if wait_acc:
                    waits[cch] += wait_acc
                    wait_acc = 0
                if busy_acc:
                    busys[cch] += busy_acc
                    busy_acc = 0
                (
                    uncached, replay, contend, ci, cch, csplit, cbase,
                    bcontend, bci, bch, bsplit, bbase, delay,
                ) = ginfo[gid]
                last_gid = gid
            issue = ticks_l[k] + lag
            if uncached:
                # Uncached: straight to DRAM over the off-chip wire.
                if contend:
                    free = cluster_free[ci]
                    start = issue if issue >= free else free
                    wait_acc += start - issue
                    command_done = start + cbase
                    dch = dch_l[k]
                    chfree = dram_free[dch]
                    dram_start = (
                        command_done if command_done >= chfree else chfree
                    )
                    core_k = core_l[k]
                    completion = dram_start + core_k + dbeats_l[k]
                    dram_free[dch] = dram_start + core_k
                    busy_until = start + occ_l[k] if csplit else completion
                    busy_acc += busy_until - start
                    if busy_until > cluster_free[ci]:
                        cluster_free[ci] = busy_until
                else:
                    completion = issue + cbase + core_l[k] + dbeats_l[k]
            else:
                if contend:
                    free = cluster_free[ci]
                    start = issue if issue >= free else free
                else:
                    start = issue
                served = start + serve_l[k]
                if replay:
                    # Replay: the stall is affine in the arrival of an
                    # earlier access of the same module and the delay.
                    arrival = start + conn_l[k]
                    arr_list = arrivals[gid]
                    arr_list.append(arrival)
                    src = rsrc_l[k]
                    if src >= 0:
                        ready = (
                            arr_list[src] + ralpha_l[k] * delay + rbeta_l[k]
                        )
                        if ready > arrival:
                            served += ready - arrival
                completion = served
                if refill_l[k]:
                    if bcontend:
                        free = cluster_free[bci]
                        back_start = served if served >= free else free
                        waits[bch] += back_start - served
                        command_done = back_start + bbase
                        dch = dch_l[k]
                        chfree = dram_free[dch]
                        dram_start = (
                            command_done if command_done >= chfree else chfree
                        )
                        core_k = core_l[k]
                        completion = dram_start + core_k + dbeats_l[k]
                        dram_free[dch] = dram_start + core_k
                        busy_until = (
                            back_start + docc_l[k] if bsplit else completion
                        )
                        delta = busy_until - back_start
                        if delta > 0:
                            busys[bch] += delta
                        if busy_until > cluster_free[bci]:
                            cluster_free[bci] = busy_until
                    else:
                        completion = served + bbase + core_l[k] + dbeats_l[k]
                if bcontend and bg_l[k]:
                    free = cluster_free[bci]
                    bg_start = served if served >= free else free
                    occupancy = bgocc_l[k]
                    busys[bch] += occupancy
                    cluster_free[bci] = bg_start + occupancy
                    dch = dch_l[k]
                    chfree = dram_free[dch]
                    dram_start = bg_start + bbase
                    if dram_start < chfree:
                        dram_start = chfree
                    dram_free[dch] = dram_start + page_hit_latency
                if contend:
                    # Reference busy rule: the bus is released after its
                    # occupancy on a split bus or a refill-free access,
                    # and held for the whole miss otherwise.
                    if csplit or completion == served:
                        busy_until = start + occ_l[k]
                    else:
                        busy_until = completion
                    busy_acc += busy_until - start
                    if busy_until > cluster_free[ci]:
                        cluster_free[ci] = busy_until
                    wait_acc += start - issue

            lat = completion - issue
            if lat < 1:
                index = k if on_idx is None else int(on_idx[k])
                raise SimulationError(
                    f"access {index} completed in {lat} cycles"
                )
            lat_out[k] = lat
            if posted and write_l[k]:
                lat = 1
            lag += lat - 1
        row = stop

    if wait_acc:
        waits[cch] += wait_acc
    if busy_acc:
        busys[cch] += busy_acc
    for index, wait in enumerate(waits):
        if wait:
            channels[index].wait_cycles += wait
    for index, busy in enumerate(busys):
        if busy:
            channels[index].busy_cycles += busy
    lat_column = np.array(lat_out, dtype=np.int64)
    if on_idx is None:
        return lat_column
    latency[on_idx] = lat_column
    return latency
