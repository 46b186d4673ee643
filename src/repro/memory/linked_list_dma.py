"""Linked-list DMA: chain-following variant of the self-indirect DMA.

The paper's Figure 6 distinguishes "linked-list DMAs" (architecture c:
"a linked-list DMA-like memory module, implementing an self-indirect
data structure") from the generic self-indirect engine. A linked-list
DMA is *programmed*: software registers a list head and the
next-pointer offset, and the engine walks ``node->next`` autonomously —
so on a re-traversal it can stream the whole chain with one backing
round trip instead of paying that round trip per hop.

In the trace-driven setting the programmed next-pointers are recovered
at prime time: a node whose successor is *the same on every traversal*
(it appears at least twice in the primed sequence, always followed by
the same node) has a genuine stored pointer; nodes visited once or with
varying successors (hash probes, data-dependent walks) do not. On a
buffer miss at a node with a stable pointer, the engine bursts the
stable run ahead of the CPU — all members become ready after one
backing latency plus one beat-slot each.

Unprimed, the module degrades exactly to
:class:`~repro.memory.dma.SelfIndirectDma` (a node cache).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.errors import ConfigurationError
from repro.memory.area import GATES_PER_SRAM_BIT
from repro.memory.dma import SelfIndirectDma
from repro.memory.module import ModuleResponse
from repro.trace.events import AccessKind


class LinkedListDma(SelfIndirectDma):
    """Self-indirect DMA that streams stable pointer chains in bursts.

    Args:
        max_chain: longest burst the engine issues, in nodes (the
            descriptor/stride RAM depth the area model charges for).
        (remaining arguments as in :class:`SelfIndirectDma`)
    """

    kind = "linked_list_dma"

    def __init__(
        self,
        name: str,
        entries: int = 32,
        node_size: int = 16,
        lookahead: int = 4,
        hit_latency: int = 1,
        max_chain: int = 64,
    ) -> None:
        super().__init__(
            name,
            entries=entries,
            node_size=node_size,
            lookahead=lookahead,
            hit_latency=hit_latency,
        )
        if max_chain <= 1:
            raise ConfigurationError(f"max_chain must exceed 1: {max_chain}")
        self.max_chain = max_chain
        #: Recovered stable pointers: chunk -> unique successor chunk.
        self._stable_next: dict[int, int] = {}
        self.burst_prefetches = 0

    @property
    def area_gates(self) -> float:
        # Node store plus the chain-walk engine's descriptor RAM: one
        # 32-bit pointer word per burst slot.
        descriptor_bits = self.max_chain * 32
        return super().area_gates + descriptor_bits * GATES_PER_SRAM_BIT + 900.0

    def reset(self) -> None:
        super().reset()
        self.burst_prefetches = 0

    def prime(self, addresses: Sequence[int]) -> None:
        """Install the access sequence and recover the stored pointers.

        A chunk's pointer is *stable* when the chunk occurs at least
        twice and is always followed by the same chunk — the signature
        of a real ``node->next`` field rather than a data-dependent
        probe.
        """
        super().prime(addresses)
        successors: dict[int, set[int]] = {}
        counts: dict[int, int] = {}
        sequence = self._sequence
        for position in range(len(sequence) - 1):
            chunk = sequence[position]
            counts[chunk] = counts.get(chunk, 0) + 1
            successors.setdefault(chunk, set()).add(sequence[position + 1])
        if sequence:
            last = sequence[-1]
            counts[last] = counts.get(last, 0) + 1
        self._stable_next = {
            chunk: next(iter(nexts))
            for chunk, nexts in successors.items()
            if len(nexts) == 1 and counts.get(chunk, 0) >= 2
        }

    def _chain_from(self, head: int) -> list[int]:
        """The stable run starting at ``head`` (cycle- and length-capped)."""
        chain = [head]
        seen = {head}
        cursor = head
        while len(chain) < self.max_chain:
            successor = self._stable_next.get(cursor)
            if successor is None or successor in seen:
                break
            chain.append(successor)
            seen.add(successor)
            cursor = successor
        return chain

    def _record_burst(self, buffer, position, chunk) -> int:
        """Recording twin of the burst block in :meth:`access`.

        A burst member's ready time is ``tick + delay + position`` —
        the affine term ``(src=position_of_this_access, alpha=1,
        beta=chain_position)`` — and membership only consults the
        shadow buffer, so the symbolic form is exact.
        """
        burst_bytes = 0
        if chunk not in buffer and chunk in self._stable_next:
            chain = self._chain_from(chunk)
            if len(chain) > 1:
                for chain_position, member in enumerate(chain):
                    if member not in buffer:
                        burst_bytes += self.node_size
                        self._shadow_insert(
                            buffer,
                            self.entries,
                            member,
                            (position, 1, chain_position),
                        )
        return burst_bytes

    def access(
        self, address: int, size: int, kind: AccessKind, tick: int
    ) -> ModuleResponse:
        chunk = address // self.node_size
        burst_bytes = 0
        if (
            chunk not in self._buffer
            and chunk in self._stable_next
        ):
            chain = self._chain_from(chunk)
            if len(chain) > 1:
                delay = self.backing_latency_hint
                for position, member in enumerate(chain):
                    if member not in self._buffer:
                        burst_bytes += self.node_size
                        self._insert(member, tick + delay + position)
                self.burst_prefetches += 1
        response = super().access(address, size, kind, tick)
        if not burst_bytes:
            return response
        return replace(
            response, prefetch_bytes=response.prefetch_bytes + burst_bytes
        )
