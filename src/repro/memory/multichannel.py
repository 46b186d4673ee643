"""Multi-channel DRAM: independent channels with interleaved addresses.

A :class:`MultiChannelDram` is a :class:`~repro.memory.dram.Dram`
whose address space is striped over ``channels`` independent request
channels. Each channel has its own core timeline in the simulator
(per-channel request queue: two transactions only serialize when they
target the same channel) and its own set of ``banks`` open-row slots,
so channel parallelism helps both queueing delay and page locality —
the effect Green et al. measure for sparse/irregular workloads.

Two interleaving policies are offered:

* ``"low"`` — consecutive DRAM *rows* round-robin over channels
  (channel = row mod C). Streams alternate channels row by row;
  within a channel the row index is compacted (``row // C``) so each
  channel sees its own dense row space.
* ``"block"`` — consecutive ``block_bytes`` blocks round-robin over
  channels (channel = (address // block_bytes) mod C). Fine-grained
  striping: even accesses inside one row spread over channels.

Both are deterministic functions of the address, so the simulation
engine vectorizes them (:meth:`channel_column`) and the batched
open-row pass partitions per (channel, bank) slot exactly as the
scalar reference does.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.memory.dram import Dram

__all__ = ["INTERLEAVE_POLICIES", "MultiChannelDram"]

#: Supported address-interleaving policies.
INTERLEAVE_POLICIES = ("low", "block")


class MultiChannelDram(Dram):
    """Banked DRAM striped over independent request channels."""

    def __init__(
        self,
        name: str = "mcdram",
        core_latency: int = 20,
        page_hit_latency: int = 8,
        row_bytes: int = 1024,
        banks: int = 1,
        channels: int = 2,
        interleave: str = "low",
        block_bytes: int = 64,
    ) -> None:
        if channels <= 0 or channels & (channels - 1):
            raise ConfigurationError(
                f"channels must be a power of two: {channels}"
            )
        if interleave not in INTERLEAVE_POLICIES:
            raise ConfigurationError(
                f"unknown interleave policy {interleave!r} "
                f"(expected one of {INTERLEAVE_POLICIES})"
            )
        if block_bytes <= 0 or block_bytes & (block_bytes - 1):
            raise ConfigurationError(
                f"interleave block must be a power of two: {block_bytes}"
            )
        # Channel attributes first: the base initializer sizes the
        # open-row slots from ``bank_slots``, which reads them.
        self.channels = channels
        self.interleave = interleave
        self.block_bytes = block_bytes
        super().__init__(name, core_latency, page_hit_latency, row_bytes, banks)

    @property
    def bank_slots(self) -> int:
        return self.channels * self.banks

    def channel_of(self, address: int) -> int:
        if self.interleave == "low":
            return (address // self.row_bytes) % self.channels
        return (address // self.block_bytes) % self.channels

    def channel_column(self, addresses: np.ndarray) -> np.ndarray:
        if self.interleave == "low":
            return (addresses // self.row_bytes) % self.channels
        return (addresses // self.block_bytes) % self.channels

    def _locate(self, address: int) -> tuple[int, int]:
        row = address // self.row_bytes
        if self.interleave == "low":
            channel, local = row % self.channels, row // self.channels
        else:
            channel, local = (address // self.block_bytes) % self.channels, row
        return channel * self.banks + local % self.banks, local

    def _slot_rows(
        self, addresses: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray]:
        rows = addresses // self.row_bytes
        if self.interleave == "low":
            channels, local = rows % self.channels, rows // self.channels
        else:
            channels = (addresses // self.block_bytes) % self.channels
            local = rows
        return channels * self.banks + local % self.banks, local

    def describe(self) -> str:
        return (
            f"{self.name}: {self.channels}-channel DRAM "
            f"({self.interleave} interleave, {self.banks} bank(s)/channel, "
            f"{self.row_bytes}B rows)"
        )
