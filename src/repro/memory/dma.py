"""DMA-like custom memory module for self-indirect structures.

The paper's "DMA-like custom memory modules [bring] in predictable,
well-known data structures (such as lists) closer to the CPU": a small
on-chip node store plus an engine that follows the pointers (or
value-computed indices) stored in the nodes and prefetches the
successors ahead of the CPU.

In a trace-driven setting the engine's pointer-following is modelled by
*priming* the module with the chunk sequence its structures will
actually access (:meth:`SelfIndirectDma.prime`): following the stored
pointer and knowing the next trace access are the same thing for a
deterministic traversal. Timeliness is modelled explicitly — a
prefetch issued at tick *t* is usable at ``t + backing_latency_hint``;
if the CPU chases the chain faster than the backing store responds, the
access stalls for the remainder even though the prefetch was "correct".
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.memory.area import prefetch_buffer_area_gates
from repro.memory.energy import sram_access_energy_nj
from repro.memory.module import MemoryModule, ModuleResponse, ReplayTrace
from repro.trace.events import AccessKind


class SelfIndirectDma(MemoryModule):
    """Pointer-following prefetch engine with a small node store.

    Args:
        name: instance name.
        entries: node slots in the on-chip store (LRU replacement).
        node_size: bytes fetched per node.
        lookahead: successors prefetched per access.
        hit_latency: cycles for a buffered-node access.
    """

    kind = "self_indirect_dma"

    #: Buffer membership (hit/miss outcomes, refill/prefetch amounts,
    #: LRU order) depends only on the primed chunk sequence; only the
    #: hit latency is tick-dependent, and in the affine stall form
    #: :meth:`record_replay` captures — so the cross-candidate batch
    #: evaluator can record this module once per memory architecture.
    supports_replay = True

    def __init__(
        self,
        name: str,
        entries: int = 16,
        node_size: int = 16,
        lookahead: int = 2,
        hit_latency: int = 1,
    ) -> None:
        super().__init__(name)
        if entries <= 0:
            raise ConfigurationError(f"entries must be positive: {entries}")
        if node_size <= 0 or node_size & (node_size - 1):
            raise ConfigurationError(
                f"node size must be a power of two: {node_size}"
            )
        if lookahead < 0:
            raise ConfigurationError(f"lookahead must be >= 0: {lookahead}")
        self.entries = entries
        self.node_size = node_size
        self.lookahead = lookahead
        self.hit_latency = hit_latency
        #: Backing-store round trip used for prefetch timeliness; the
        #: simulator overwrites it with the architecture's actual
        #: DRAM + off-chip-channel latency at assembly time.
        self.backing_latency_hint = 24
        self._buffer: OrderedDict[int, int] = OrderedDict()
        self._sequence: tuple[int, ...] = ()
        self._position = 0
        self.hits = 0
        self.misses = 0
        self.stall_cycles = 0

    @property
    def area_gates(self) -> float:
        return prefetch_buffer_area_gates(self.entries, self.node_size)

    @property
    def access_energy_nj(self) -> float:
        return sram_access_energy_nj(self.entries * self.node_size)

    def reset(self) -> None:
        self._buffer = OrderedDict()
        self._position = 0
        self.hits = 0
        self.misses = 0
        self.stall_cycles = 0

    @property
    def miss_ratio(self) -> float:
        """Observed miss ratio since the last reset."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def prime(self, addresses: Sequence[int]) -> None:
        """Install the chunk sequence the engine will chase.

        ``addresses`` are the byte addresses of the accesses this
        module will serve, in trace order; they are reduced to
        node-granular chunks internally.
        """
        self._sequence = tuple(a // self.node_size for a in addresses)
        self._position = 0

    def _insert(self, chunk: int, ready_tick: int) -> None:
        if chunk in self._buffer:
            self._buffer.move_to_end(chunk)
            self._buffer[chunk] = min(self._buffer[chunk], ready_tick)
            return
        self._buffer[chunk] = ready_tick
        while len(self._buffer) > self.entries:
            self._buffer.popitem(last=False)

    def access(
        self, address: int, size: int, kind: AccessKind, tick: int
    ) -> ModuleResponse:
        """Serve one access and prefetch ahead along the primed chain.

        DMA engines are tick-dependent (prefetch timeliness compares the
        arrival tick against buffered ready times), so they cannot
        honour the columnar ``access_many`` contract;
        :meth:`record_replay` is this method's symbolic twin.
        """
        chunk = address // self.node_size
        position = self._position
        self._position += 1

        prefetch_bytes = 0
        if self._sequence:
            # The engine follows the chain: queue the next `lookahead`
            # distinct successors that are not already buffered.
            upcoming = self._sequence[position + 1 : position + 1 + self.lookahead]
            delay = self.backing_latency_hint
            for step, succ in enumerate(upcoming):
                if succ != chunk and succ not in self._buffer:
                    prefetch_bytes += self.node_size
                    self._insert(succ, tick + delay + step * 4)

        writeback = size if kind == AccessKind.WRITE else 0
        if chunk in self._buffer:
            ready = self._buffer[chunk]
            self._buffer.move_to_end(chunk)
            stall = max(0, ready - tick)
            self.hits += 1
            self.stall_cycles += stall
            return ModuleResponse(
                hit=True,
                latency=self.hit_latency + stall,
                writeback_bytes=writeback,
                prefetch_bytes=prefetch_bytes,
            )

        self.misses += 1
        self._insert(chunk, tick)
        return ModuleResponse(
            hit=False,
            latency=self.hit_latency,
            refill_bytes=self.node_size,
            writeback_bytes=writeback,
            prefetch_bytes=prefetch_bytes,
        )

    # -- symbolic replay ------------------------------------------------

    @staticmethod
    def _shadow_insert(
        buffer: "OrderedDict[int, tuple[int, int, int]]",
        entries: int,
        chunk: int,
        term: tuple[int, int, int],
    ) -> None:
        """The recording twin of :meth:`_insert`.

        Every live :meth:`_insert` call site guards on the chunk being
        absent, so a buffer entry always carries exactly the one
        ``(src, alpha, beta)`` ready-time term from its insertion —
        ``min``-merging of concurrent terms never happens in practice
        and the shadow mirrors only the reachable branch.
        """
        buffer[chunk] = term
        while len(buffer) > entries:
            buffer.popitem(last=False)

    def _record_burst(
        self,
        buffer: "OrderedDict[int, tuple[int, int, int]]",
        position: int,
        chunk: int,
    ) -> int:
        """Hook for burst engines (:class:`LinkedListDma`); bytes added."""
        return 0

    def record_replay(self, sizes, kinds) -> ReplayTrace:
        """Record the primed sequence without mutating module state.

        A structural twin of :meth:`access` driven over
        :attr:`_sequence` with symbolic ticks: every buffered ready
        time is kept as its affine ``(src, alpha, beta)`` term
        (``arrival[src] + alpha * backing_latency_hint + beta``)
        instead of a number. Membership, replacement, and the byte
        amounts never read the stored ticks, so the recorded columns
        are exact for any arrival column and any backing delay; a hit's
        stall is reconstructed from its entry's single term.
        """
        sequence = self._sequence
        n = len(sequence)
        hit = np.zeros(n, dtype=bool)
        refill = np.zeros(n, dtype=np.int64)
        prefetch = np.zeros(n, dtype=np.int64)
        stall_src = np.full(n, -1, dtype=np.int64)
        stall_alpha = np.zeros(n, dtype=np.int64)
        stall_beta = np.zeros(n, dtype=np.int64)
        buffer: OrderedDict[int, tuple[int, int, int]] = OrderedDict()
        entries = self.entries
        node_size = self.node_size
        lookahead = self.lookahead
        shadow_insert = self._shadow_insert

        for position, chunk in enumerate(sequence):
            prefetch_bytes = self._record_burst(buffer, position, chunk)
            upcoming = sequence[position + 1 : position + 1 + lookahead]
            for step, succ in enumerate(upcoming):
                if succ != chunk and succ not in buffer:
                    prefetch_bytes += node_size
                    shadow_insert(buffer, entries, succ, (position, 1, step * 4))
            prefetch[position] = prefetch_bytes
            term = buffer.get(chunk)
            if term is not None:
                buffer.move_to_end(chunk)
                hit[position] = True
                stall_src[position] = term[0]
                stall_alpha[position] = term[1]
                stall_beta[position] = term[2]
            else:
                refill[position] = node_size
                shadow_insert(buffer, entries, chunk, (position, 0, 0))

        write_mask = np.asarray(kinds) == int(AccessKind.WRITE)
        writeback = np.where(
            write_mask, np.asarray(sizes, dtype=np.int64), np.int64(0)
        )
        return ReplayTrace(
            hit=hit,
            latency=np.full(n, self.hit_latency, dtype=np.int64),
            refill_bytes=refill,
            writeback_bytes=writeback,
            prefetch_bytes=prefetch,
            stall_src=stall_src,
            stall_alpha=stall_alpha,
            stall_beta=stall_beta,
        )
