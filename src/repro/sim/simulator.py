"""The trace-driven simulator core.

Timing model (cycle-approximate, single in-order CPU master):

* The CPU issues accesses at their trace ticks, delayed by the
  accumulated stall ``lag``; reads block, and writes either block (the
  default — a small embedded core without a write buffer, as in the
  paper's era) or are *posted* (``posted_writes=True``): the CPU
  continues after the write is handed to the memory module, while the
  write's backing traffic still occupies channels and DRAM.
* Each access crosses its CPU-side connection (arbitration wait +
  transfer latency), is served by its memory module, and on a miss
  crosses the backing connection to the DRAM (command, DRAM core
  latency with open-row modelling, data return beats).
* Connections track busy-until timelines; *split-transaction* buses
  release the bus while the DRAM works, *pipelined* buses free
  themselves after their data beats (occupancy < latency).
* Writebacks and prefetches consume backing-channel and DRAM bandwidth
  off the critical path — they delay later misses, not this access.
* With a :class:`SamplingConfig`, off-window accesses run a fast path
  that keeps module state warm but skips contention modelling and
  statistics (the paper's 1/9 time-sampling estimation).

Energy model: module array energy per access, DRAM core + pin energy
per DRAM transaction, and wire switching energy per byte per
connection (from the connectivity architecture's wire models).

Execution: :meth:`Simulator.run` evaluates the simulator as a group of
one through the simulation engine (:mod:`repro.sim.batch`), the same
engine that evaluates Phase II candidate groups. The scalar reference
loop kept in this module is the only other path: ``run(reference=True)``
or ``REPRO_REFERENCE_SIM=1`` selects it, and the engine falls back to
it for a module that can be neither batched nor replay-recorded. The
two produce bit-identical :class:`SimulationResult`\\ s — the
golden-equivalence suite asserts it — so callers and caches never need
to know which ran.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.channels import DRAM, Channel
from repro.config import current_settings
from repro.connectivity.architecture import ConnectivityArchitecture
from repro.errors import SimulationError
from repro.memory.dma import SelfIndirectDma
from repro.memory.energy import dram_transaction_energy_nj
from repro.memory.module import MemoryModule
from repro.sim.metrics import (
    ChannelTraffic,
    ModuleStats,
    SimulationResult,
    StructLatency,
)
from repro.sim.sampling import SamplingConfig
from repro.trace.events import AccessKind, Trace

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.apex.architectures import MemoryArchitecture


def reference_requested() -> bool:
    """Has the environment (``REPRO_REFERENCE_SIM``) asked for the
    reference loop?"""
    return current_settings().reference_sim


@dataclass
class _Route:
    """Precomputed routing of one structure's accesses."""

    target: str
    module: object  # MemoryModule | None (None = direct DRAM)
    cpu_channel: int  # index into channel tables
    backing_channel: int  # index, or -1 when the module never misses


@dataclass
class _ChannelState:
    """Mutable per-channel bookkeeping."""

    channel: Channel
    component: object  # ConnectivityComponent | None for ideal mode
    cluster_index: int
    energy_per_byte: float
    transactions: int = 0
    bytes_moved: int = 0
    wait_cycles: int = 0
    background_transactions: int = 0
    busy_cycles: int = 0

    def reset(self) -> None:
        """Zero the traffic counters so one Simulator can run repeatedly."""
        self.transactions = 0
        self.bytes_moved = 0
        self.wait_cycles = 0
        self.background_transactions = 0
        self.busy_cycles = 0


class RunState:
    """Mutable whole-run accumulators of one run.

    The reference loop and the engine's block evaluator
    (:mod:`repro.sim.batch`) both fill this record, and
    :meth:`Simulator._finalize` folds it into the result. Creating one
    starts a run: it zeroes the simulator's channel counters, so one
    :class:`Simulator` can run repeatedly.
    """

    __slots__ = (
        "cluster_free",
        "dram_free",
        "lag",
        "measured",
        "latency_sum",
        "energy_sum",
        "energy_modules",
        "energy_dram",
        "energy_wires",
        "misses",
        "module_counts",
        "struct_counts",
        "struct_latency",
    )

    def __init__(self, simulator: "Simulator") -> None:
        channels = simulator._channels
        for channel_state in channels:
            channel_state.reset()
        self.cluster_free = [0] * (1 + max(c.cluster_index for c in channels))
        #: One core-occupancy timeline per DRAM channel: transactions
        #: serialize only against other transactions on their own
        #: channel (single-channel parts keep the single shared slot).
        self.dram_free = [0] * simulator.memory.dram.channels
        self.lag = 0
        self.measured = 0
        self.latency_sum = 0
        self.energy_sum = 0.0
        self.energy_modules = 0.0
        self.energy_dram = 0.0
        self.energy_wires = 0.0
        self.misses = 0
        self.module_counts: dict[str, list[int]] = {
            r.target: [0, 0, 0] for r in simulator._routes
        }
        self.struct_counts = [0] * len(simulator._routes)
        self.struct_latency = [0] * len(simulator._routes)


def prime_module(
    module: MemoryModule, trace: Trace, struct_ids: Sequence[int]
) -> None:
    """Reset ``module``; prime a DMA engine with the chain it will chase.

    ``struct_ids`` are the trace structures routed to the module. A DMA
    engine is primed with their accesses' addresses in trace order, so
    the module's outcome over the trace depends on its configuration
    and those structures alone.
    """
    module.reset()
    if isinstance(module, SelfIndirectDma):
        if len(struct_ids) == 1:
            mask = trace.struct_ids == struct_ids[0]
        else:
            mask = np.isin(trace.struct_ids, struct_ids)
        module.prime(trace.addresses[mask].tolist())


class Simulator:
    """Simulates one trace over one memory + connectivity architecture.

    Args:
        trace: the tagged access trace.
        memory: the memory architecture (modules are reset and, where
            applicable, primed at construction).
        connectivity: the connectivity architecture; ``None`` selects
            the *ideal* connectivity used by APEX (zero latency,
            infinite bandwidth, zero energy) so module behaviour can be
            studied in isolation.
        sampling: optional time-sampling configuration.
        validated: skip the ``memory.validate(trace)`` pass; only for
            callers that already validated this (memory, trace) pair —
            the batch evaluator validates once per candidate group.
    """

    def __init__(
        self,
        trace: Trace,
        memory: MemoryArchitecture,
        connectivity: ConnectivityArchitecture | None = None,
        sampling: SamplingConfig | None = None,
        posted_writes: bool = False,
        *,
        validated: bool = False,
    ) -> None:
        self.trace = trace
        self.memory = memory
        self.connectivity = connectivity
        self.sampling = sampling
        self.posted_writes = posted_writes
        if not validated:
            memory.validate(trace)
        self._channels: list[_ChannelState] = []
        self._channel_index: dict[Channel, int] = {}
        self._routes: list[_Route] = []
        self._build_channels()
        self._build_routes()

    # -- setup ---------------------------------------------------------

    def _build_channels(self) -> None:
        channels = self.memory.channels(self.trace)
        if self.connectivity is not None:
            implemented = set(self.connectivity.channels())
            missing = [c.name for c in channels if c not in implemented]
            if missing:
                raise SimulationError(
                    f"connectivity '{self.connectivity.name}' misses channels: "
                    f"{', '.join(missing)}"
                )
        cluster_indices: dict[int, int] = {}
        for channel in channels:
            if self.connectivity is None:
                component = None
                cluster_index = len(self._channels)  # private timeline
                energy = 0.0
            else:
                cluster = self.connectivity.cluster_for(channel)
                component = cluster.component
                key = id(cluster)
                if key not in cluster_indices:
                    cluster_indices[key] = len(cluster_indices)
                cluster_index = cluster_indices[key]
                energy = self.connectivity.energy_nj_per_byte(channel, self.memory)
            self._channel_index[channel] = len(self._channels)
            self._channels.append(
                _ChannelState(
                    channel=channel,
                    component=component,
                    cluster_index=cluster_index,
                    energy_per_byte=energy,
                )
            )

    def _build_routes(self) -> None:
        for struct in self.trace.structs:
            target = self.memory.module_for(struct)
            if target == DRAM:
                cpu_channel = self._channel_index[Channel("cpu", DRAM)]
                self._routes.append(
                    _Route(
                        target=DRAM,
                        module=None,
                        cpu_channel=cpu_channel,
                        backing_channel=-1,
                    )
                )
                continue
            module = self.memory.module(target)
            cpu_channel = self._channel_index[Channel("cpu", target)]
            backing = Channel(target, DRAM)
            backing_channel = self._channel_index.get(backing, -1)
            self._routes.append(
                _Route(
                    target=target,
                    module=module,
                    cpu_channel=cpu_channel,
                    backing_channel=backing_channel,
                )
            )

    def _served_structs(self, target: str) -> list[int]:
        """Ids of the trace structures routed to ``target``."""
        return [
            struct_id
            for struct_id, route in enumerate(self._routes)
            if route.target == target
        ]

    def _prime_modules(self) -> None:
        """Reset modules; prime DMA engines with their access chains."""
        self.memory.dram.reset()
        for name, module in self.memory.modules.items():
            prime_module(module, self.trace, self._served_structs(name))
        self._install_backing_hints()

    def _install_backing_hints(self) -> None:
        """Set every DMA engine's ``backing_latency_hint`` for this run."""
        for name, module in self.memory.modules.items():
            if isinstance(module, SelfIndirectDma):
                module.backing_latency_hint = self._dma_backing_delay(
                    name, module.node_size
                )

    def _dma_backing_delay(self, target: str, node_size: int) -> int:
        """The prefetch-timeliness round trip for a DMA at ``target``.

        Exactly the ``backing_latency_hint`` :meth:`_prime_modules`
        installs; exposed separately so the engine can price a shared
        replay recording under each candidate's connectivity.
        """
        backing = Channel(target, DRAM)
        if self.connectivity is not None and backing in self._channel_index:
            component = self.connectivity.component_for(backing)
            return (
                component.timing(node_size).latency
                + self.memory.dram.core_latency
            )
        return self.memory.dram.core_latency + 2

    # -- main loop -------------------------------------------------------

    def run(self, reference: bool | None = None) -> SimulationResult:
        """Simulate the whole trace and return the aggregate result.

        Args:
            reference: ``True`` forces the scalar reference loop,
                ``False`` forces the engine, and ``None`` (the default)
                selects the engine unless the ``REPRO_REFERENCE_SIM``
                environment variable opts out. Both return
                bit-identical results.
        """
        # The engine imports this module, so it is imported lazily.
        from repro.sim.batch import evaluate_single

        if reference is None:
            reference = reference_requested()
        with obs.span("sim.run"):
            result = None if reference else evaluate_single(self)
            if result is None:
                self._prime_modules()
                state = RunState(self)
                self._reference_loop(state)
                result = self._finalize(state)
        return result

    def _reference_loop(self, state: RunState) -> None:
        """The original per-access Python loop, kept as ground truth."""
        trace = self.trace
        dram = self.memory.dram
        sampling = self.sampling
        channels = self._channels
        routes = self._routes

        cluster_free = state.cluster_free
        dram_free = state.dram_free
        lag = state.lag

        addresses = trace.addresses
        sizes = trace.sizes
        kinds = trace.kinds
        struct_ids = trace.struct_ids
        ticks = trace.ticks

        measured = state.measured
        latency_sum = state.latency_sum
        energy_sum = state.energy_sum
        energy_modules = state.energy_modules
        energy_dram = state.energy_dram
        energy_wires = state.energy_wires
        misses = state.misses
        module_counts = state.module_counts
        struct_counts = state.struct_counts
        struct_latency = state.struct_latency

        for i in range(len(trace)):
            address = int(addresses[i])
            size = int(sizes[i])
            kind = AccessKind(int(kinds[i]))
            route = routes[struct_ids[i]]
            issue = int(ticks[i]) + lag
            on_window = sampling is None or sampling.is_on(i)
            counted = sampling is None or sampling.is_measured(i)

            cpu_state = channels[route.cpu_channel]
            energy = 0.0

            if route.module is None:
                # Uncached: straight to DRAM over the off-chip connection.
                completion, wait, page_hit = self._dram_transaction(
                    cpu_state, issue, address, size, cluster_free, dram_free,
                    on_window,
                )
                misses += 1
                counts = module_counts[DRAM]
                counts[0] += 1
                counts[2] += 1
                if counted:
                    dram_nj = dram_transaction_energy_nj(size, page_hit)
                    wire_nj = size * cpu_state.energy_per_byte
                    energy += dram_nj + wire_nj
                    energy_dram += dram_nj
                    energy_wires += wire_nj
                cpu_state.bytes_moved += size
                cpu_state.transactions += 1
                cpu_state.wait_cycles += wait
            else:
                component = cpu_state.component
                if component is None:
                    start = issue
                    wait = 0
                    conn_latency = 0
                    occupancy = 0
                else:
                    free = cluster_free[cpu_state.cluster_index]
                    start = issue if issue >= free else free
                    if not on_window:
                        start = issue
                    wait = start - issue
                    timing = component.timing(size)
                    conn_latency = timing.latency
                    occupancy = timing.occupancy

                arrival = start + conn_latency
                response = route.module.access(address, size, kind, arrival)
                served = arrival + response.latency
                counts = module_counts[route.target]
                counts[0] += 1
                if response.hit:
                    counts[1] += 1
                else:
                    counts[2] += 1
                    misses += 1

                completion = served
                backing = route.backing_channel
                if backing >= 0:
                    back_state = channels[backing]
                    if response.refill_bytes:
                        completion, back_wait, page_hit = (
                            self._dram_transaction(
                                back_state, served, address,
                                response.refill_bytes, cluster_free,
                                dram_free, on_window,
                            )
                        )
                        back_state.bytes_moved += response.refill_bytes
                        back_state.transactions += 1
                        back_state.wait_cycles += back_wait
                        if counted:
                            dram_nj = dram_transaction_energy_nj(
                                response.refill_bytes, page_hit
                            )
                            wire_nj = (
                                response.refill_bytes * back_state.energy_per_byte
                            )
                            energy += dram_nj + wire_nj
                            energy_dram += dram_nj
                            energy_wires += wire_nj
                    off_path = response.writeback_bytes + response.prefetch_bytes
                    if off_path:
                        self._background_traffic(
                            back_state, served, address, off_path,
                            cluster_free, dram_free, on_window,
                        )
                        if counted:
                            # Background prefetch/writeback bursts run in
                            # page mode.
                            dram_nj = dram_transaction_energy_nj(off_path, True)
                            wire_nj = off_path * back_state.energy_per_byte
                            energy += dram_nj + wire_nj
                            energy_dram += dram_nj
                            energy_wires += wire_nj

                if component is not None and on_window:
                    cluster = cpu_state.cluster_index
                    if component.split_transactions or completion == served:
                        busy_until = start + occupancy
                    else:
                        # Non-split bus held for the whole miss.
                        busy_until = completion
                    cpu_state.busy_cycles += max(0, busy_until - start)
                    if busy_until > cluster_free[cluster]:
                        cluster_free[cluster] = busy_until
                cpu_state.bytes_moved += size
                cpu_state.transactions += 1
                cpu_state.wait_cycles += wait
                if counted:
                    module_nj = route.module.access_energy_nj
                    wire_nj = size * cpu_state.energy_per_byte
                    energy += module_nj + wire_nj
                    energy_modules += module_nj
                    energy_wires += wire_nj

            latency = completion - issue
            if latency < 1:
                raise SimulationError(
                    f"access {i} completed in {latency} cycles"
                )
            if self.posted_writes and kind == AccessKind.WRITE:
                # Posted write: the CPU moves on after one issue slot;
                # the transfer still happened on the channels above.
                latency = 1
            lag += latency - 1
            if counted:
                measured += 1
                latency_sum += latency
                energy_sum += energy
                struct_id = struct_ids[i]
                struct_counts[struct_id] += 1
                struct_latency[struct_id] += latency

        state.cluster_free = cluster_free
        state.lag = lag
        state.measured = measured
        state.latency_sum = latency_sum
        state.energy_sum = energy_sum
        state.energy_modules = energy_modules
        state.energy_dram = energy_dram
        state.energy_wires = energy_wires
        state.misses = misses

    def _finalize(self, state: RunState) -> SimulationResult:
        """Fold the accumulated run state into a :class:`SimulationResult`.

        Every run, on either path, ends here exactly once, so this is
        where the ``sim.*`` run counters are recorded.
        """
        trace = self.trace
        measured = state.measured
        if measured == 0:
            raise SimulationError("sampling measured no accesses")
        if obs.enabled():
            obs.incr("sim.runs")
            obs.incr("sim.accesses", len(trace))
            obs.incr("sim.measured_accesses", measured)
            obs.incr("sim.misses", state.misses)

        latency_sum = state.latency_sum
        lag = state.lag
        misses = state.misses
        struct_counts = state.struct_counts
        struct_latency = state.struct_latency

        avg_latency = latency_sum / measured
        avg_energy = state.energy_sum / measured
        breakdown = {
            "modules": state.energy_modules / measured,
            "dram": state.energy_dram / measured,
            "connectivity": state.energy_wires / measured,
        }
        memory_cost = self.memory.area_gates
        connectivity_cost = (
            0.0
            if self.connectivity is None
            else self.connectivity.cost_gates(self.memory)
        )
        module_stats = {
            name: ModuleStats(
                name=name, accesses=c[0], hits=c[1], misses=c[2]
            )
            for name, c in state.module_counts.items()
        }
        struct_stats = {}
        for struct_id, struct_name in enumerate(trace.structs):
            count = struct_counts[struct_id]
            if not count:
                continue
            total_latency = struct_latency[struct_id]
            struct_stats[struct_name] = StructLatency(
                struct=struct_name,
                accesses=count,
                mean_latency=total_latency / count,
                share=total_latency / latency_sum if latency_sum else 0.0,
            )
        channel_stats = {
            channel_state.channel.name: ChannelTraffic(
                channel_name=channel_state.channel.name,
                transactions=channel_state.transactions,
                bytes_moved=channel_state.bytes_moved,
                total_wait_cycles=channel_state.wait_cycles,
                background_transactions=channel_state.background_transactions,
                busy_cycles=channel_state.busy_cycles,
            )
            for channel_state in self._channels
        }
        return SimulationResult(
            trace_name=trace.name,
            memory_name=self.memory.name,
            connectivity_name=(
                "ideal" if self.connectivity is None else self.connectivity.name
            ),
            accesses=len(trace),
            sampled_accesses=measured,
            avg_latency=avg_latency,
            total_cycles=trace.duration + lag,
            avg_energy_nj=avg_energy,
            total_energy_nj=avg_energy * len(trace),
            miss_ratio=misses / len(trace),
            cost_gates=memory_cost + connectivity_cost,
            memory_cost_gates=memory_cost,
            connectivity_cost_gates=connectivity_cost,
            modules=module_stats,
            channels=channel_stats,
            energy_breakdown=breakdown,
            structs=struct_stats,
        )

    # -- transaction helpers ----------------------------------------------

    def _dram_transaction(
        self,
        state: _ChannelState,
        ready: int,
        address: int,
        size: int,
        cluster_free: list[int],
        dram_free: list[int],
        on_window: bool,
    ) -> tuple[int, int, bool]:
        """A critical-path DRAM read/refill over ``state``'s connection.

        ``dram_free`` is the per-channel core timeline, updated in
        place (the channel is the one serving ``address``). Returns
        (completion, connection wait, page_hit).
        """
        dram = self.memory.dram
        component = state.component
        if component is None:
            latency = dram.access(address, size, AccessKind.READ, ready).latency
            return ready + latency, 0, latency == dram.page_hit_latency
        free = cluster_free[state.cluster_index]
        start = ready if ready >= free else free
        if not on_window:
            start = ready
        wait = start - ready
        command_done = start + component.base_latency
        channel = dram.channel_of(address)
        channel_free = dram_free[channel]
        dram_start = command_done if command_done >= channel_free else channel_free
        if not on_window:
            dram_start = command_done
        core = dram.access(address, size, AccessKind.READ, dram_start).latency
        beats_cycles = component.beats(size) * component.cycles_per_beat
        completion = dram_start + core + beats_cycles
        page_hit = core == dram.page_hit_latency
        if on_window:
            dram_free[channel] = dram_start + core
            if component.split_transactions:
                busy_until = start + component.timing(size).occupancy
            else:
                busy_until = completion
            state.busy_cycles += max(0, busy_until - start)
            if busy_until > cluster_free[state.cluster_index]:
                cluster_free[state.cluster_index] = busy_until
        return completion, wait, page_hit

    def _background_traffic(
        self,
        state: _ChannelState,
        ready: int,
        address: int,
        size: int,
        cluster_free: list[int],
        dram_free: list[int],
        on_window: bool,
    ) -> None:
        """Off-critical-path traffic: occupies connection + DRAM only.

        ``dram_free`` is the per-channel core timeline, updated in place.
        """
        state.bytes_moved += size
        state.background_transactions += 1
        component = state.component
        if component is None or not on_window:
            return
        free = cluster_free[state.cluster_index]
        start = ready if ready >= free else free
        occupancy = component.timing(size).occupancy
        state.busy_cycles += occupancy
        cluster_free[state.cluster_index] = start + occupancy
        dram = self.memory.dram
        channel = dram.channel_of(address)
        dram_start = start + component.base_latency
        if dram_start < dram_free[channel]:
            dram_start = dram_free[channel]
        dram_free[channel] = dram_start + dram.page_hit_latency

    def __repr__(self) -> str:
        connectivity = (
            "ideal" if self.connectivity is None else self.connectivity.name
        )
        return (
            f"<Simulator {self.trace.name} on {self.memory.name}/{connectivity}>"
        )


def simulate(
    trace: Trace,
    memory: MemoryArchitecture,
    connectivity: ConnectivityArchitecture | None = None,
    sampling: SamplingConfig | None = None,
    posted_writes: bool = False,
    reference: bool | None = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(
        trace, memory, connectivity, sampling, posted_writes
    ).run(reference=reference)
