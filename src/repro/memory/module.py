"""Memory-module base class and the behavioural response records."""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.trace.events import AccessKind


@dataclass(frozen=True, slots=True)
class ModuleResponse:
    """Outcome of one access presented to a memory module.

    Attributes:
        hit: whether the module served the access from on-chip state.
        latency: cycles spent inside the module on the critical path
            (hit time, or miss-handling control overhead *excluding*
            the backing transfer, which the simulator prices using the
            module↔DRAM channel and the DRAM model).
        refill_bytes: bytes that must arrive from the backing store
            before the access completes (critical path).
        writeback_bytes: bytes sent to the backing store off the
            critical path (dirty evictions, posted writes).
        prefetch_bytes: bytes fetched from the backing store off the
            critical path (stream-buffer / DMA prefetches). These
            consume channel bandwidth and DRAM energy but do not stall
            this access.
    """

    hit: bool
    latency: int
    refill_bytes: int = 0
    writeback_bytes: int = 0
    prefetch_bytes: int = 0


@dataclass(frozen=True, slots=True)
class BatchResponse:
    """Columnar outcome of a batch of accesses (see :meth:`access_many`).

    Each field is the per-access column of the corresponding
    :class:`ModuleResponse` attribute, in presentation order. The byte
    columns may be ``None`` to mean all-zero, so modules that never
    produce backing traffic (SRAMs) skip the allocations.
    """

    hit: np.ndarray
    latency: np.ndarray
    refill_bytes: np.ndarray | None = None
    writeback_bytes: np.ndarray | None = None
    prefetch_bytes: np.ndarray | None = None


@dataclass(frozen=True, slots=True)
class ReplayTrace:
    """Symbolic outcome recording of a tick-*affine* module's run.

    Produced by :meth:`MemoryModule.record_replay` for modules whose
    internal state evolution (buffer membership, replacement order,
    refill/writeback/prefetch amounts) is independent of the access
    ticks, while the *latency* of access ``j`` may carry a stall of the
    affine form::

        stall_j = max(0, arrival[stall_src[j]]
                         + stall_alpha[j] * delay
                         + stall_beta[j]
                         - arrival[j])          # when stall_src[j] >= 0

    where ``arrival[i]`` is the tick passed to the ``i``-th access of
    the recorded subsequence and ``delay`` is the module's
    ``backing_latency_hint`` at run time. All columns are indexed by
    position within the module's access subsequence, in presentation
    order; ``stall_src`` holds the (strictly earlier) local index whose
    arrival the stall references, or ``-1`` for accesses that can never
    stall. ``latency`` is the stall-free base latency.
    """

    hit: np.ndarray
    latency: np.ndarray
    refill_bytes: np.ndarray
    writeback_bytes: np.ndarray
    prefetch_bytes: np.ndarray
    stall_src: np.ndarray
    stall_alpha: np.ndarray
    stall_beta: np.ndarray


class MemoryModule(ABC):
    """A component of the memory architecture.

    Concrete modules implement the behavioural :meth:`access` model and
    the analytic :attr:`area_gates` / :attr:`access_energy_nj` models.
    A module instance carries state (tags, buffers); :meth:`reset`
    restores the power-on state so one architecture object can be
    simulated repeatedly.
    """

    #: Short kind tag used in architecture descriptions ("cache"...).
    kind: str = "module"

    #: Whether :meth:`access_many` is a faithful batched equivalent of
    #: :meth:`access` that the simulation engine may batch over. A
    #: subclass overriding :meth:`access` without keeping
    #: :meth:`access_many` in lockstep MUST set this back to ``False``;
    #: the engine then records the module through :meth:`record_replay`
    #: if it :attr:`supports_replay`, and otherwise runs the whole
    #: simulation through the scalar reference loop.
    supports_batch: bool = False

    #: Whether :meth:`record_replay` is a faithful symbolic recording
    #: of the module's (tick-affine) behaviour that the cross-candidate
    #: batch evaluator may share between design points. Orthogonal to
    #: :attr:`supports_batch`: a tick-*dependent* module can still be
    #: replayable when only its latency — never its state evolution —
    #: depends on the ticks, and in the affine form
    #: :class:`ReplayTrace` captures. A subclass changing ``access``
    #: without keeping ``record_replay`` in lockstep MUST set this back
    #: to ``False``; the batch evaluator then falls back to independent
    #: per-candidate runs.
    supports_replay: bool = False

    #: Whether the module sits on-chip (drives wire models and the
    #: paper's hit/miss accounting: on-chip accesses are hits).
    on_chip: bool = True

    #: Mutable statistics / runtime state excluded from the
    #: configuration signature: two modules that differ only in these
    #: attributes are behaviourally identical after :meth:`reset`.
    _STATE_ATTRS = frozenset(
        {
            "hits",
            "misses",
            "accesses",
            "page_hits",
            "stall_cycles",
            "burst_prefetches",
            "backing_latency_hint",
        }
    )

    def __init__(self, name: str) -> None:
        self.name = name

    def config_signature(self) -> tuple:
        """Hashable summary of the module's configuration.

        Collects every public scalar attribute except the mutable
        statistics in :attr:`_STATE_ATTRS`, so the signature identifies
        *what the module is*, not what it has simulated so far. Used by
        the :mod:`repro.exec` result cache.
        """
        items: list[tuple[str, object]] = []
        for key in sorted(vars(self)):
            if key.startswith("_") or key in self._STATE_ATTRS:
                continue
            value = vars(self)[key]
            if isinstance(value, enum.Enum):
                value = str(value.value)
            if value is None or isinstance(value, (str, int, float, bool)):
                items.append((key, value))
        return (type(self).__name__, tuple(items))

    @property
    @abstractmethod
    def area_gates(self) -> float:
        """Module area in basic gates."""

    @property
    @abstractmethod
    def access_energy_nj(self) -> float:
        """Energy of one access to the module's own arrays, in nJ."""

    @abstractmethod
    def access(
        self, address: int, size: int, kind: AccessKind, tick: int
    ) -> ModuleResponse:
        """Present one CPU access; update state; return the outcome."""

    def access_many(
        self,
        addresses: np.ndarray,
        sizes: np.ndarray,
        kinds: np.ndarray,
    ) -> BatchResponse | None:
        """Present a contiguous batch of accesses; return the columns.

        The kernel batches aggressively: for an architecture whose
        modules all advertise :attr:`supports_batch` it presents each
        module its *entire* per-run access subsequence in one call, so
        the contract below must hold for arbitrarily long batches, not
        just sampling-window-sized ones.

        Semantics contract: calling this on ``n`` accesses must leave
        the module in exactly the state ``n`` sequential :meth:`access`
        calls would, and the returned columns must equal the ``n``
        scalar responses element-by-element. Only modules whose access
        outcome does not depend on the ``tick`` argument can honour
        that contract (the issue tick is unknown mid-batch); those
        modules advertise :attr:`supports_batch`. The default
        implementation returns ``None`` (no batched path).
        """
        return None

    def record_replay(
        self, sizes: np.ndarray, kinds: np.ndarray
    ) -> ReplayTrace | None:
        """Symbolically record the module's primed access subsequence.

        ``sizes``/``kinds`` are the per-access columns of the module's
        subsequence in presentation order (the same sequence a prior
        ``prime`` installed, where applicable). The recording must not
        mutate module state, and must satisfy the :class:`ReplayTrace`
        contract: for *any* arrival column and any backing delay, the
        sequential scalar ``access`` stream over those arrivals returns
        exactly ``hit[j]``, ``latency[j] + stall_j``,
        ``refill_bytes[j]``, ``writeback_bytes[j]``,
        ``prefetch_bytes[j]``. Only modules advertising
        :attr:`supports_replay` implement it; the default returns
        ``None``.
        """
        return None

    @abstractmethod
    def reset(self) -> None:
        """Restore power-on state (empty tags/buffers)."""

    def describe(self) -> str:
        """One-line human description used in reports."""
        return f"{self.kind} {self.name}"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
