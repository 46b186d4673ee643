"""Bandwidth Requirement Graph (BRG) construction.

"The nodes in the BRG represent the memory and processing cores in the
system (such as the caches, on-chip SRAMs, DMAs, off-chip DRAMs, the
CPU, etc.), and the arcs represent the channels of communication
between these modules. The BRG arcs are labeled with the average
bandwidth requirement between the two modules."

The bandwidth labels come from profiling the memory architecture under
ideal connectivity (the simulator reports per-channel traffic), so the
graph reflects the *architecture-specific* traffic — e.g. a bigger
cache lowers the cache↔DRAM arc's label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.apex.architectures import MemoryArchitecture
from repro.channels import Channel
from repro.errors import ExplorationError
from repro.sim.metrics import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import networkx as nx


@dataclass(frozen=True)
class ArcProfile:
    """Traffic profile of one BRG arc."""

    channel: Channel
    bandwidth: float  # average bytes per cycle
    bytes_moved: int
    transactions: int  # critical-path transfers
    background_transactions: int

    @property
    def mean_transfer_bytes(self) -> float:
        """Average bytes per transfer on this arc."""
        total = self.transactions + self.background_transactions
        return self.bytes_moved / total if total else 0.0


class BandwidthRequirementGraph:
    """The BRG: channels labeled with profiled bandwidth."""

    def __init__(
        self,
        memory_name: str,
        duration: int,
        arcs: Mapping[Channel, ArcProfile],
    ) -> None:
        if not arcs:
            raise ExplorationError("BRG has no arcs")
        if duration <= 0:
            raise ExplorationError(f"BRG duration must be positive: {duration}")
        self.memory_name = memory_name
        self.duration = duration
        self._arcs = dict(arcs)

    @property
    def channels(self) -> tuple[Channel, ...]:
        """All arcs, sorted by bandwidth descending (hottest first)."""
        return tuple(
            sorted(
                self._arcs,
                key=lambda c: (-self._arcs[c].bandwidth, c.name),
            )
        )

    def arc(self, channel: Channel) -> ArcProfile:
        """Profile of one arc."""
        try:
            return self._arcs[channel]
        except KeyError:
            raise ExplorationError(
                f"BRG of '{self.memory_name}' has no arc {channel.name}"
            ) from None

    def bandwidth(self, channel: Channel) -> float:
        """Average bytes/cycle on one arc."""
        return self.arc(channel).bandwidth

    def on_chip_channels(self) -> tuple[Channel, ...]:
        """Arcs between on-chip endpoints, hottest first."""
        return tuple(c for c in self.channels if not c.crosses_chip)

    def crossing_channels(self) -> tuple[Channel, ...]:
        """Arcs crossing the chip boundary, hottest first."""
        return tuple(c for c in self.channels if c.crosses_chip)

    def to_networkx(self) -> nx.DiGraph:
        """The BRG as a :class:`networkx.DiGraph` (for analysis/plots).

        networkx is imported here, on first call, so an exploration
        that never exports a graph never loads it.
        """
        import networkx as nx

        graph = nx.DiGraph(memory=self.memory_name, duration=self.duration)
        for channel, profile in self._arcs.items():
            graph.add_edge(
                channel.source,
                channel.destination,
                bandwidth=profile.bandwidth,
                bytes=profile.bytes_moved,
                transactions=profile.transactions,
            )
        return graph

    def describe(self) -> str:
        """Multi-line summary, hottest arcs first."""
        lines = [f"BRG[{self.memory_name}] over {self.duration} cycles"]
        for channel in self.channels:
            profile = self._arcs[channel]
            transfers = profile.transactions + profile.background_transactions
            lines.append(
                f"  {channel.name}: {profile.bandwidth:.4f} B/cyc "
                f"({profile.bytes_moved} B, {transfers} xfers)"
            )
        return "\n".join(lines)


def build_brg(
    memory: MemoryArchitecture, profile: SimulationResult
) -> BandwidthRequirementGraph:
    """Build the BRG of ``memory`` from an ideal-connectivity profile.

    ``profile`` must come from simulating the same architecture (the
    channel names are matched against the architecture's channels).
    """
    if profile.memory_name != memory.name:
        raise ExplorationError(
            f"profile is for '{profile.memory_name}', not '{memory.name}'"
        )
    arcs: dict[Channel, ArcProfile] = {}
    by_name = {t.channel_name: t for t in profile.channels.values()}
    for source_destination, traffic in by_name.items():
        source, _, destination = source_destination.partition("->")
        channel = Channel(source, destination)
        arcs[channel] = ArcProfile(
            channel=channel,
            bandwidth=traffic.bytes_moved / profile.total_cycles,
            bytes_moved=traffic.bytes_moved,
            transactions=traffic.transactions,
            background_transactions=traffic.background_transactions,
        )
    return BandwidthRequirementGraph(
        memory_name=memory.name,
        duration=profile.total_cycles,
        arcs=arcs,
    )
