"""Algorithmic multi-port SRAM with banked port arbitration.

A :class:`MultiPortSram` models the "algorithmic" multi-port memories
of Sethi's DSE study: instead of physically multi-ported cells, the
array is split into ``ports`` word-interleaved banks behind a
per-cycle arbiter. Accesses that land on distinct banks proceed at
full rate; back-to-back accesses to the *same* bank lose arbitration
and stall for ``conflict_penalty`` cycles. The conflict pattern is a
deterministic function of the address order alone — never of the
issue ticks — so the module honours the ``supports_batch`` contract
and the simulation engine evaluates whole runs in one
:meth:`access_many` call.

Connectivity-side, the part advertises its port count through the
``ports`` attribute, which ConEx feasibility/cost accounting
(:func:`repro.connectivity.architecture.cluster_ports`) weighs
against each preset's ``max_ports``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.memory.area import sram_area_gates
from repro.memory.energy import sram_access_energy_nj
from repro.memory.module import BatchResponse, MemoryModule, ModuleResponse
from repro.memory.sram import Sram
from repro.trace.events import AccessKind

__all__ = ["MultiPortSram"]

#: Area overhead per extra port (banking mux + arbiter), fractional.
PORT_AREA_OVERHEAD = 0.3

#: Energy overhead per extra port (longer word lines, arbiter), fractional.
PORT_ENERGY_OVERHEAD = 0.15


class MultiPortSram(Sram):
    """Word-interleaved multi-port scratchpad with conflict stalls."""

    kind = "multiport_sram"

    _STATE_ATTRS = MemoryModule._STATE_ATTRS | {"conflicts"}

    def __init__(
        self,
        name: str,
        capacity: int,
        access_latency: int = 1,
        ports: int = 2,
        word_bytes: int = 8,
        conflict_penalty: int = 1,
    ) -> None:
        super().__init__(name, capacity, access_latency)
        if ports < 2 or ports & (ports - 1):
            raise ConfigurationError(
                f"ports must be a power of two >= 2: {ports}"
            )
        if word_bytes <= 0 or word_bytes & (word_bytes - 1):
            raise ConfigurationError(
                f"bank word size must be a power of two: {word_bytes}"
            )
        if conflict_penalty < 0:
            raise ConfigurationError(
                f"conflict penalty cannot be negative: {conflict_penalty}"
            )
        self.ports = ports
        self.word_bytes = word_bytes
        self.conflict_penalty = conflict_penalty
        self.conflicts = 0
        self._last_bank = -1

    @property
    def area_gates(self) -> float:
        return sram_area_gates(self.capacity) * (
            1.0 + PORT_AREA_OVERHEAD * (self.ports - 1)
        )

    @property
    def access_energy_nj(self) -> float:
        return sram_access_energy_nj(self.capacity) * (
            1.0 + PORT_ENERGY_OVERHEAD * (self.ports - 1)
        )

    def reset(self) -> None:
        super().reset()
        self.conflicts = 0
        self._last_bank = -1

    def _bank(self, address: int) -> int:
        return (address // self.word_bytes) % self.ports

    def access(
        self, address: int, size: int, kind: AccessKind, tick: int
    ) -> ModuleResponse:
        self.accesses += 1
        bank = self._bank(address)
        latency = self.access_latency
        if bank == self._last_bank:
            self.conflicts += 1
            latency += self.conflict_penalty
        self._last_bank = bank
        return ModuleResponse(hit=True, latency=latency)

    def access_many(
        self, addresses: np.ndarray, sizes: np.ndarray, kinds: np.ndarray
    ) -> BatchResponse:
        n = len(addresses)
        self.accesses += n
        latency = np.full(n, self.access_latency, dtype=np.int64)
        if n:
            banks = (addresses // self.word_bytes) % self.ports
            previous = np.empty_like(banks)
            previous[1:] = banks[:-1]
            previous[0] = self._last_bank
            conflict = banks == previous
            latency[conflict] += self.conflict_penalty
            self.conflicts += int(np.count_nonzero(conflict))
            self._last_bank = int(banks[-1])
        return BatchResponse(hit=np.ones(n, dtype=bool), latency=latency)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.ports}-port SRAM "
            f"({self.capacity}B, {self.word_bytes}B banks, "
            f"+{self.conflict_penalty}cyc conflict)"
        )
