"""Access records and the columnar :class:`Trace` container.

A trace is the interchange format between the instrumented workloads
(:mod:`repro.workloads`), the profilers (:mod:`repro.trace.profiler`),
and the simulator (:mod:`repro.sim`). Internally a trace is stored as
parallel :mod:`numpy` arrays so that pattern classification and
bandwidth profiling stay vectorized even for million-access traces;
iteration yields lightweight :class:`Access` records for the
event-driven simulator.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import tempfile
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.errors import TraceError
from repro.trace import shm as shm_registry

#: Column attributes of a :class:`Trace`, in storage order. The shared-
#: memory and file exports pack exactly these, and
#: :meth:`Trace.from_packed` rebuilds them by name.
TRACE_COLUMNS = ("addresses", "sizes", "kinds", "struct_ids", "ticks")

#: Byte alignment of each column inside a shared block.
_COLUMN_ALIGN = 16


class AccessKind(IntEnum):
    """Direction of a memory access as seen from the CPU."""

    READ = 0
    WRITE = 1


@dataclass(frozen=True, slots=True)
class Access:
    """One CPU memory access.

    Attributes:
        address: byte address within the flat trace address space.
        size: access width in bytes (1, 2, 4, or 8 in practice).
        kind: read or write.
        struct: name of the application data structure touched; this is
            the tag APEX uses to map structures onto memory modules.
        tick: CPU issue time in (ideal) cycles — program order spaced by
            the compute work between accesses.
    """

    address: int
    size: int
    kind: AccessKind
    struct: str
    tick: int


class TraceBuilder:
    """Incrementally records accesses while a workload executes.

    The builder advances a virtual CPU clock: each recorded access
    occupies one issue slot, and :meth:`compute` models instruction work
    between accesses so traces carry realistic inter-access gaps.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._addresses: list[int] = []
        self._sizes: list[int] = []
        self._kinds: list[int] = []
        self._struct_ids: list[int] = []
        self._ticks: list[int] = []
        self._structs: dict[str, int] = {}
        self._tick = 0

    def compute(self, cycles: int) -> None:
        """Advance the virtual clock by ``cycles`` of non-memory work."""
        if cycles < 0:
            raise TraceError(f"negative compute time: {cycles}")
        self._tick += cycles

    def record(
        self,
        address: int,
        size: int,
        kind: AccessKind,
        struct: str,
    ) -> None:
        """Append one access at the current clock and advance one cycle."""
        if size <= 0:
            raise TraceError(f"access size must be positive, got {size}")
        if address < 0:
            raise TraceError(f"negative address: {address:#x}")
        struct_id = self._structs.setdefault(struct, len(self._structs))
        self._addresses.append(address)
        self._sizes.append(size)
        self._kinds.append(int(kind))
        self._struct_ids.append(struct_id)
        self._ticks.append(self._tick)
        self._tick += 1

    def read(self, address: int, size: int, struct: str) -> None:
        """Shorthand for recording a read access."""
        self.record(address, size, AccessKind.READ, struct)

    def write(self, address: int, size: int, struct: str) -> None:
        """Shorthand for recording a write access."""
        self.record(address, size, AccessKind.WRITE, struct)

    def build(self) -> "Trace":
        """Freeze the recorded accesses into an immutable :class:`Trace`."""
        if not self._addresses:
            raise TraceError(f"trace '{self.name}' recorded no accesses")
        return Trace(
            name=self.name,
            addresses=np.asarray(self._addresses, dtype=np.int64),
            sizes=np.asarray(self._sizes, dtype=np.int32),
            kinds=np.asarray(self._kinds, dtype=np.int8),
            struct_ids=np.asarray(self._struct_ids, dtype=np.int32),
            ticks=np.asarray(self._ticks, dtype=np.int64),
            structs=tuple(self._structs),
        )


class Trace:
    """Immutable columnar trace of tagged memory accesses."""

    def __init__(
        self,
        name: str,
        addresses: np.ndarray,
        sizes: np.ndarray,
        kinds: np.ndarray,
        struct_ids: np.ndarray,
        ticks: np.ndarray,
        structs: Sequence[str],
    ) -> None:
        n = len(addresses)
        for label, arr in (
            ("sizes", sizes),
            ("kinds", kinds),
            ("struct_ids", struct_ids),
            ("ticks", ticks),
        ):
            if len(arr) != n:
                raise TraceError(
                    f"column '{label}' has {len(arr)} entries, expected {n}"
                )
        if n == 0:
            raise TraceError(f"trace '{name}' is empty")
        if struct_ids.max(initial=-1) >= len(structs):
            raise TraceError("struct_ids reference unknown structure names")
        self.name = name
        self.addresses = addresses
        self.sizes = sizes
        self.kinds = kinds
        self.struct_ids = struct_ids
        self.ticks = ticks
        self.structs: tuple[str, ...] = tuple(structs)
        self._struct_index: dict[str, int] = {
            name: index for index, name in enumerate(self.structs)
        }
        for arrays in (addresses, sizes, kinds, struct_ids, ticks):
            arrays.setflags(write=False)
        self._fingerprint: str | None = None
        self._footprints: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.addresses)

    def fingerprint(self) -> str:
        """Stable content hash of the trace (name, accesses, tags).

        Two traces with identical name, structure tables, and access
        columns share a fingerprint regardless of how they were built
        (recorded, loaded from ``.npz``, sliced into being). The value
        keys the simulation/estimate cache in :mod:`repro.exec` and is
        persisted by :func:`repro.io.save_trace` so stored traces
        round-trip their identity.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            digest.update(self.name.encode())
            digest.update(b"\x00")
            for struct in self.structs:
                digest.update(struct.encode())
                digest.update(b"\x00")
            for column in (
                self.addresses,
                self.sizes,
                self.kinds,
                self.struct_ids,
                self.ticks,
            ):
                digest.update(str(column.dtype).encode())
                digest.update(np.ascontiguousarray(column).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __iter__(self) -> Iterator[Access]:
        structs = self.structs
        for i in range(len(self)):
            yield Access(
                address=int(self.addresses[i]),
                size=int(self.sizes[i]),
                kind=AccessKind(int(self.kinds[i])),
                struct=structs[self.struct_ids[i]],
                tick=int(self.ticks[i]),
            )

    @property
    def duration(self) -> int:
        """Ideal-CPU duration: last issue tick plus one."""
        return int(self.ticks[-1]) + 1

    @property
    def total_bytes(self) -> int:
        """Total bytes moved by all accesses."""
        return int(self.sizes.sum())

    def structure_names(self) -> tuple[str, ...]:
        """Names of all data structures appearing in the trace."""
        return self.structs

    def struct_id(self, struct: str) -> int:
        """Column id of one data structure (O(1) name lookup)."""
        try:
            return self._struct_index[struct]
        except KeyError:
            raise TraceError(
                f"unknown structure '{struct}' in trace '{self.name}'"
            ) from None

    def struct_mask(self, struct: str) -> np.ndarray:
        """Boolean mask selecting the accesses of one data structure."""
        return self.struct_ids == self.struct_id(struct)

    def footprint(self, struct: str) -> int:
        """Bytes one data structure spans: its highest address minus
        its lowest, plus its largest access.

        Cached per structure on first use; the columns are write-locked,
        so a footprint never changes.
        """
        footprint = self._footprints.get(struct)
        if footprint is None:
            mask = self.struct_mask(struct)
            addresses = self.addresses[mask]
            footprint = int(
                addresses.max() - addresses.min() + self.sizes[mask].max()
            )
            self._footprints[struct] = footprint
        return footprint

    def counts_by_struct(self) -> Mapping[str, int]:
        """Access counts keyed by data-structure name."""
        counts = np.bincount(self.struct_ids, minlength=len(self.structs))
        return {name: int(c) for name, c in zip(self.structs, counts)}

    def _column_specs(self) -> tuple[list[tuple[str, str, int, int]], int]:
        """Aligned ``(column, dtype, offset, count)`` packing plan."""
        specs: list[tuple[str, str, int, int]] = []
        offset = 0
        for column in TRACE_COLUMNS:
            array = getattr(self, column)
            offset = -(-offset // _COLUMN_ALIGN) * _COLUMN_ALIGN
            specs.append((column, str(array.dtype), offset, len(array)))
            offset += array.nbytes
        return specs, max(1, offset)

    def _write_columns(
        self, specs: "Sequence[tuple[str, str, int, int]]", buffer
    ) -> None:
        """Copy every column into ``buffer`` at its packed offset.

        The one writer of the packed layout. ``buffer`` is a writable,
        zero-initialized buffer of the packed size — a shared-memory
        block's ``buf`` or a writable mapping of the export file — so no
        transport stages a second copy of the trace.
        """
        for column, dtype, offset, count in specs:
            target = np.frombuffer(
                buffer, dtype=np.dtype(dtype), count=count, offset=offset
            )
            target[...] = getattr(self, column)

    @classmethod
    def from_packed(
        cls,
        name: str,
        structs: Sequence[str],
        fingerprint: str,
        specs: "Sequence[tuple[str, str, int, int]]",
        buffer,
    ) -> "Trace":
        """Rebuild a trace from the packed layout in ``buffer``.

        The one reader of the layout: ``buffer`` is the mapped block of
        a shared-memory or file export (:meth:`attach_shared`). Columns
        are read-only views of ``buffer`` (no copy); the exporter's
        fingerprint is adopted verbatim so cache keys match without
        re-hashing the columns.
        """
        arrays = {
            column: np.frombuffer(
                buffer, dtype=np.dtype(dtype), count=count, offset=offset
            )
            for column, dtype, offset, count in specs
        }
        trace = cls(name=name, structs=tuple(structs), **arrays)
        trace._fingerprint = fingerprint
        return trace

    def export_shared(self, transport: str = "auto") -> "SharedTraceExport":
        """Export the trace columns to zero-copy shared storage.

        Returns a :class:`SharedTraceExport` whose picklable
        :attr:`~SharedTraceExport.handle` lets other processes
        :meth:`attach_shared` to the same bytes instead of unpickling
        the trace. The exporter owns the storage: call
        :meth:`SharedTraceExport.close` (or use it as a context
        manager) once no consumer needs it anymore.

        ``transport`` selects the backing store: ``"shm"`` for
        ``multiprocessing.shared_memory``, ``"file"`` for a temporary
        memory-mapped file, ``"auto"`` (default) for shm with a file
        fallback when the platform refuses shared memory.
        """
        if transport not in ("auto", "shm", "file"):
            raise TraceError(f"unknown shared-trace transport: {transport!r}")
        specs, size = self._column_specs()

        block = None
        if transport in ("auto", "shm"):
            try:
                from multiprocessing import shared_memory

                # PID-tagged names let the crash sweep attribute a
                # block to its (possibly dead) owner; see repro.trace.shm.
                for _attempt in range(8):
                    try:
                        block = shared_memory.SharedMemory(
                            create=True,
                            size=size,
                            name=shm_registry.block_name(),
                        )
                        break
                    except FileExistsError:
                        continue
                else:  # pragma: no cover - 8 token collisions
                    block = shared_memory.SharedMemory(create=True, size=size)
            except (ImportError, OSError) as error:
                if transport == "shm":
                    raise TraceError(
                        f"cannot create shared memory for trace "
                        f"'{self.name}': {error}"
                    ) from error
        if block is not None:
            shm_registry.register_resource("shm", block.name)
            self._write_columns(specs, block.buf)
            handle = SharedTraceHandle(
                trace_name=self.name,
                structs=self.structs,
                fingerprint=self.fingerprint(),
                transport="shm",
                block=block.name,
                size=size,
                columns=tuple(specs),
            )
            return SharedTraceExport(handle, block)

        descriptor, path = tempfile.mkstemp(prefix="repro-trace-", suffix=".bin")
        try:
            with os.fdopen(descriptor, "r+b") as stream:
                stream.truncate(size)
                with mmap.mmap(stream.fileno(), size) as mapped:
                    self._write_columns(specs, mapped)
        except BaseException:
            os.unlink(path)
            raise
        shm_registry.register_resource("file", path)
        handle = SharedTraceHandle(
            trace_name=self.name,
            structs=self.structs,
            fingerprint=self.fingerprint(),
            transport="file",
            block=path,
            size=size,
            columns=tuple(specs),
        )
        return SharedTraceExport(handle, None)

    @classmethod
    def attach_shared(cls, handle: "SharedTraceHandle") -> "Trace":
        """Attach to an exported trace without copying or unpickling.

        The returned trace's columns are read-only views of the shared
        block; the mapping stays alive for the lifetime of the trace
        object. The exporter's fingerprint is adopted verbatim, so
        cache keys match the original trace without re-hashing
        megabytes of columns.
        """
        if handle.transport == "shm":
            buffer, keeper = _map_shared_block(handle.block, handle.size)
        elif handle.transport == "file":
            buffer = keeper = np.memmap(
                handle.block, dtype=np.uint8, mode="r", shape=(handle.size,)
            )
        else:
            raise TraceError(
                f"unknown shared-trace transport: {handle.transport!r}"
            )
        trace = cls.from_packed(
            handle.trace_name,
            handle.structs,
            handle.fingerprint,
            handle.columns,
            buffer,
        )
        trace._shared_block = keeper  # keep the mapping alive
        return trace

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace of accesses ``[start, stop)``, sharing storage."""
        if not 0 <= start < stop <= len(self):
            raise TraceError(
                f"bad slice [{start}, {stop}) for trace of length {len(self)}"
            )
        return Trace(
            name=f"{self.name}[{start}:{stop}]",
            addresses=self.addresses[start:stop],
            sizes=self.sizes[start:stop],
            kinds=self.kinds[start:stop],
            struct_ids=self.struct_ids[start:stop],
            ticks=self.ticks[start:stop],
            structs=self.structs,
        )


@dataclass(frozen=True)
class SharedTraceHandle:
    """Picklable recipe for attaching to an exported trace.

    Carries everything a worker needs to rebuild a :class:`Trace` from
    shared storage: identity (name, structure table, fingerprint), the
    backing block (``transport`` is ``"shm"`` or ``"file"``; ``block``
    is the shared-memory name or file path), and one
    ``(column, dtype, offset, count)`` spec per trace column. Handles
    are tiny — dispatching one per job costs bytes where pickling the
    trace itself costs megabytes.
    """

    trace_name: str
    structs: tuple[str, ...]
    fingerprint: str
    transport: str
    block: str
    size: int
    columns: tuple[tuple[str, str, int, int], ...]


class SharedTraceExport:
    """Owner side of one shared trace export.

    Holds the storage the handle points at; :meth:`close` releases and
    unlinks it. Attached consumers that mapped the block before the
    unlink keep working (POSIX semantics); new attaches fail.
    """

    def __init__(self, handle: SharedTraceHandle, block) -> None:
        self.handle = handle
        self._block = block
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the backing storage; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        if self._block is not None:
            try:
                self._block.close()
                self._block.unlink()
            except (OSError, FileNotFoundError):  # already gone
                pass
            self._block = None
        elif self.handle.transport == "file":
            try:
                os.unlink(self.handle.block)
            except OSError:
                pass
        shm_registry.unregister_resource(self.handle.block)

    def __enter__(self) -> "SharedTraceExport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<SharedTraceExport {self.handle.trace_name} "
            f"({self.handle.transport}, {state})>"
        )


def _map_shared_block(name: str, size: int) -> tuple[object, object]:
    """Read-only mapping of a named shared-memory segment.

    Returns ``(buffer, keeper)``: a buffer exposing ``size`` bytes and
    the object that must stay referenced for the mapping to stay
    valid. POSIX platforms map the segment directly so the attach
    neither registers with the ``multiprocessing`` resource tracker
    (whose per-attacher bookkeeping would unlink the exporter's block
    early) nor runs ``SharedMemory``'s close-on-del destructor (which
    raises ``BufferError`` if array views outlive it). Platforms
    without ``_posixshmem`` fall back to ``SharedMemory`` attach.
    """
    try:
        import _posixshmem
        import mmap as mmap_module

        descriptor = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
        try:
            mapped = mmap_module.mmap(
                descriptor, size, access=mmap_module.ACCESS_READ
            )
        finally:
            os.close(descriptor)
        return mapped, mapped
    except ImportError:  # pragma: no cover - non-POSIX fallback
        from multiprocessing import shared_memory

        try:
            block = shared_memory.SharedMemory(
                name=name, create=False, track=False
            )
        except TypeError:  # Python < 3.13: no track parameter
            block = shared_memory.SharedMemory(name=name, create=False)
        return block.buf, block


def concatenate_traces(traces: "list[Trace] | tuple[Trace, ...]", name: str | None = None) -> Trace:
    """Concatenate traces end to end (multi-phase applications).

    Later traces' ticks are re-based to start one cycle after the
    previous trace ends; structure tables are merged by name (same
    name = same structure, so phases can share state).
    """
    if not traces:
        raise TraceError("nothing to concatenate")
    if len(traces) == 1:
        only = traces[0]
        return Trace(
            name=name or only.name,
            addresses=only.addresses,
            sizes=only.sizes,
            kinds=only.kinds,
            struct_ids=only.struct_ids,
            ticks=only.ticks,
            structs=only.structs,
        )
    structs: dict[str, int] = {}
    addresses, sizes, kinds, struct_ids, ticks = [], [], [], [], []
    offset = 0
    for trace in traces:
        remap = np.array(
            [structs.setdefault(s, len(structs)) for s in trace.structs],
            dtype=np.int32,
        )
        addresses.append(trace.addresses)
        sizes.append(trace.sizes)
        kinds.append(trace.kinds)
        struct_ids.append(remap[trace.struct_ids])
        ticks.append(trace.ticks + offset)
        offset += trace.duration
    return Trace(
        name=name or "+".join(t.name for t in traces),
        addresses=np.concatenate(addresses),
        sizes=np.concatenate(sizes),
        kinds=np.concatenate(kinds),
        struct_ids=np.concatenate(struct_ids),
        ticks=np.concatenate(ticks),
        structs=tuple(structs),
    )
