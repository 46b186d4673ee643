"""Phase-I fast estimation of cost / performance / energy.

"We estimate the cost, performance and power of each such connectivity
architecture" without simulating it: the memory architecture was
profiled once under ideal connectivity (module latencies, miss traffic,
per-channel transfer counts), and the estimator prices what each
candidate connectivity adds on top:

* **cost** — memory-module area plus the candidate's controllers and
  wires;
* **performance** — per-transfer component latency plus an M/D/1-style
  contention wait derived from the component's reservation-table
  initiation interval and the channel cluster's offered load
  (non-split components additionally hold the bus during the DRAM
  wait, which is the AHB-vs-ASB effect). Contention is closed-loop:
  the CPU is a single blocking master, so critical transfers never
  queue against themselves — the expected wait comes from the
  *background* traffic (prefetches, writebacks) occupying the shared
  component, and is capped at a few service times (a saturated channel
  throttles the closed-loop request rate instead of growing an
  unbounded backlog);
* **energy** — per-byte wire/pad switching energy over the profiled
  traffic.

Absolute accuracy is secondary; like the paper's time-sampling, the
estimator only has to *rank* candidates well enough to prune
(benchmark ``abl1`` measures exactly that fidelity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro import obs
from repro.apex.architectures import MemoryArchitecture
from repro.channels import Channel
from repro.connectivity.architecture import (
    ConnectivityArchitecture,
    attached_area_gates,
    cluster_ports,
)
from repro.errors import ExplorationError
from repro.sim.metrics import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.conex.allocation import AssignmentPlan

#: Closed-loop cap on the expected wait, in service-time units: a
#: blocking master cannot queue more deeply than a few in-flight
#: services' worth of backlog (background prefetch/writeback traffic).
CLOSED_LOOP_WAIT_CAP = 3.0

#: Fraction of each background transfer's transport latency that
#: escapes latency hiding and stalls the consumer. Background traffic
#: (DMA prefetches, cache writebacks) is mostly overlapped, but a
#: channel dominated by it — e.g. a DMA's backing link, where the
#: lookahead window is finite — throttles the closed loop roughly in
#: proportion to the per-transfer latency the connectivity adds.
#: Without this term, channels whose traffic is almost entirely
#: background (dma->dram) are priced only through contention waits on
#: their handful of demand transfers, and the estimator inverts the
#: ranking of designs that differ in which off-chip channel got the
#: wide bus.
BACKGROUND_CRITICALITY = 0.5

@dataclass(frozen=True)
class ConnectivityEstimate:
    """Estimated objectives of one (memory, connectivity) design."""

    memory_name: str
    connectivity_name: str
    cost_gates: float
    avg_latency: float
    avg_energy_nj: float
    channel_waits: Mapping[str, float]

    @property
    def objectives(self) -> tuple[float, float, float]:
        """(cost, performance, power), all minimized."""
        return (self.cost_gates, self.avg_latency, self.avg_energy_nj)


def _mean_dram_latency(memory: MemoryArchitecture) -> float:
    """Expected DRAM core latency (even page-hit/miss mix assumed)."""
    dram = memory.dram
    return 0.5 * (dram.core_latency + dram.page_hit_latency)


def estimate_design(
    memory: MemoryArchitecture,
    connectivity: ConnectivityArchitecture,
    profile: SimulationResult,
) -> ConnectivityEstimate:
    """Estimate one design from its ideal-connectivity profile."""
    if profile.memory_name != memory.name:
        raise ExplorationError(
            f"profile is for '{profile.memory_name}', not '{memory.name}'"
        )
    duration = profile.total_cycles
    accesses = profile.accesses
    dram_mean = _mean_dram_latency(memory)

    added_latency = 0.0
    added_energy = 0.0
    channel_waits: dict[str, float] = {}

    for cluster in connectivity.clusters:
        component = cluster.component
        # Aggregate the offered load of every channel sharing the
        # component instance.
        total_transfers = 0
        background_transfers = 0
        total_bytes = 0
        critical: list[tuple[Channel, int, float]] = []
        for channel in cluster.channels:
            traffic = profile.channels.get(channel.name)
            if traffic is None:
                continue
            total_transfers += traffic.all_transactions
            background_transfers += traffic.background_transactions
            total_bytes += traffic.bytes_moved
            if traffic.transactions:
                mean_size = max(
                    1.0, traffic.bytes_moved / traffic.all_transactions
                )
                critical.append((channel, traffic.transactions, mean_size))
            added_energy += (
                traffic.bytes_moved
                * connectivity.energy_nj_per_byte(channel, memory)
            )
        if total_transfers == 0:
            continue
        mean_bytes = max(1, round(total_bytes / total_transfers))

        # Service interval from the reservation table; non-split
        # components carrying chip-boundary traffic also hold the bus
        # during the DRAM wait.
        table = component.reservation_table(mean_bytes)
        service = float(table.min_initiation_interval())
        if cluster.crosses_chip and not component.split_transactions:
            service += dram_mean
        # Only background traffic contends with the blocking master's
        # own transfers; its occupancy fraction times half a service is
        # the expected residual wait, amplified as the channel nears
        # saturation and capped by the closed loop.
        rho_background = service * background_transfers / duration
        rho_total = min(0.95, service * total_transfers / duration)
        wait = min(
            service * rho_background / (2.0 * (1.0 - rho_total)),
            service * CLOSED_LOOP_WAIT_CAP,
        )

        # Each critical transfer pays the component's transfer latency
        # plus the cluster's expected wait.
        for channel, transfers, mean_size in critical:
            latency = component.timing(max(1, round(mean_size))).latency
            added_latency += (latency + wait) * transfers / accesses
            channel_waits[channel.name] = wait
        # Background transfers stall the consumer for the fraction of
        # their transport latency the lookahead cannot hide.
        if background_transfers:
            latency = component.timing(mean_bytes).latency
            added_latency += (
                BACKGROUND_CRITICALITY
                * (latency + wait)
                * background_transfers
                / accesses
            )

    cost = profile.memory_cost_gates + connectivity.cost_gates(memory)
    return ConnectivityEstimate(
        memory_name=memory.name,
        connectivity_name=connectivity.name,
        cost_gates=cost,
        avg_latency=profile.avg_latency + added_latency,
        avg_energy_nj=profile.avg_energy_nj + added_energy / accesses,
        channel_waits=channel_waits,
    )


def estimate_plan(
    memory: MemoryArchitecture,
    plan: "AssignmentPlan",
    profile: SimulationResult,
    indices: Sequence[int] | None = None,
) -> list[ConnectivityEstimate]:
    """Estimate the plan's candidates columnarly; one estimate per index.

    Candidates of one clustering level differ only in which preset each
    cluster picked, so everything expensive factors by (cluster,
    preset): traffic aggregates are preset-independent, and the per
    (cluster, preset) cost / energy / latency / wait scalars are
    candidate-independent. This function computes each scalar once with
    exactly the arithmetic of :func:`estimate_design`, then folds them
    over candidates as NumPy vectors — elementwise float64 adds in the
    same order as the scalar accumulation, so results are bit-identical
    to :func:`estimate_design` on the materialized candidate, which
    stays as the oracle the tests compare against.

    ``indices`` selects a subset of the plan's candidates (defaults to
    all); results are ordered like ``indices``.
    """
    with obs.span("conex.estimate_plan"):
        estimates = _estimate_plan(memory, plan, profile, indices)
    if obs.enabled():
        obs.incr("estimator.candidates", len(estimates))
    return estimates


def _estimate_plan(
    memory: MemoryArchitecture,
    plan: "AssignmentPlan",
    profile: SimulationResult,
    indices: Sequence[int] | None,
) -> list[ConnectivityEstimate]:
    if indices is None:
        indices = range(len(plan))
    index_list = list(indices)
    if profile.memory_name != memory.name:
        raise ExplorationError(
            f"profile is for '{profile.memory_name}', not '{memory.name}'"
        )
    if not index_list:
        return []
    duration = profile.total_cycles
    accesses = profile.accesses
    dram_mean = _mean_dram_latency(memory)

    count = len(index_list)
    choices = plan.choices[np.asarray(index_list, dtype=np.int64)]
    cost_acc = np.zeros(count, dtype=np.float64)
    latency_acc = np.zeros(count, dtype=np.float64)
    energy_acc = np.zeros(count, dtype=np.float64)
    # (channel name, per-candidate wait) in scalar insertion order.
    wait_entries: list[tuple[str, np.ndarray]] = []

    for position, cluster in enumerate(plan.level.clusters):
        presets = plan.presets[position]
        components = [preset.build() for preset in presets]
        column = choices[:, position]
        ports = cluster_ports(cluster.endpoints, memory)
        area = attached_area_gates(cluster.endpoints, memory)

        cost_terms = np.array(
            [
                component.cost_gates(ports=ports, attached_area_gates=area)
                for component in components
            ],
            dtype=np.float64,
        )
        cost_acc = cost_acc + cost_terms[column]

        energy_per_byte = [
            component.energy_nj_per_byte(
                ports=ports, attached_area_gates=area
            )
            for component in components
        ]

        total_transfers = 0
        background_transfers = 0
        total_bytes = 0
        critical: list[tuple[Channel, int, float]] = []
        for channel in cluster.channels:
            traffic = profile.channels.get(channel.name)
            if traffic is None:
                continue
            total_transfers += traffic.all_transactions
            background_transfers += traffic.background_transactions
            total_bytes += traffic.bytes_moved
            if traffic.transactions:
                mean_size = max(
                    1.0, traffic.bytes_moved / traffic.all_transactions
                )
                critical.append((channel, traffic.transactions, mean_size))
            # The scalar path adds each channel's energy to the running
            # total one term at a time; replicate that fold exactly.
            energy_terms = np.array(
                [traffic.bytes_moved * epb for epb in energy_per_byte],
                dtype=np.float64,
            )
            energy_acc = energy_acc + energy_terms[column]
        if total_transfers == 0:
            continue
        mean_bytes = max(1, round(total_bytes / total_transfers))

        waits = []
        for component in components:
            table = component.reservation_table(mean_bytes)
            service = float(table.min_initiation_interval())
            if cluster.crosses_chip and not component.split_transactions:
                service += dram_mean
            rho_background = service * background_transfers / duration
            rho_total = min(0.95, service * total_transfers / duration)
            waits.append(
                min(
                    service * rho_background / (2.0 * (1.0 - rho_total)),
                    service * CLOSED_LOOP_WAIT_CAP,
                )
            )

        for channel, transfers, mean_size in critical:
            size = max(1, round(mean_size))
            latency_terms = np.array(
                [
                    (component.timing(size).latency + wait)
                    * transfers
                    / accesses
                    for component, wait in zip(components, waits)
                ],
                dtype=np.float64,
            )
            latency_acc = latency_acc + latency_terms[column]
            wait_entries.append(
                (channel.name, np.array(waits, dtype=np.float64)[column])
            )
        # Same background-criticality fold as the scalar path, added
        # after the cluster's critical channels to keep the float adds
        # in the scalar accumulation order.
        if background_transfers:
            background_terms = np.array(
                [
                    BACKGROUND_CRITICALITY
                    * (component.timing(mean_bytes).latency + wait)
                    * background_transfers
                    / accesses
                    for component, wait in zip(components, waits)
                ],
                dtype=np.float64,
            )
            latency_acc = latency_acc + background_terms[column]

    cost = profile.memory_cost_gates + cost_acc
    avg_latency = profile.avg_latency + latency_acc
    avg_energy = profile.avg_energy_nj + energy_acc / accesses

    estimates = []
    for row, index in enumerate(index_list):
        estimates.append(
            ConnectivityEstimate(
                memory_name=memory.name,
                connectivity_name=plan.name(index),
                cost_gates=float(cost[row]),
                avg_latency=float(avg_latency[row]),
                avg_energy_nj=float(avg_energy[row]),
                channel_waits={
                    name: float(values[row]) for name, values in wait_entries
                },
            )
        )
    return estimates
