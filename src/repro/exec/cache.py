"""Content-addressed simulation result cache.

A simulation is a pure function of (trace, memory architecture,
connectivity architecture, sampling config, posted-writes flag), so its
result can be cached under a content key built from those inputs:

* the trace's :meth:`~repro.trace.events.Trace.fingerprint` (a sha256
  over name, columns, and structure tags),
* the memory architecture's :meth:`~repro.apex.architectures.MemoryArchitecture.signature`,
* the connectivity's :meth:`~repro.connectivity.architecture.ConnectivityArchitecture.full_signature`
  (``None`` for APEX's ideal connectivity),
* the sampling window parameters and the posted-writes flag.

The cache has two layers, the first a read-through over the second:

1. **memory** — one dict per cache instance. With no disk layer it
   is the only copy, so it keeps every result (this is what lets the
   Full strategy reuse every point the Pruned pass already simulated,
   and a second ``explore_connectivity`` call run at zero simulation
   cost). Over a disk layer it is an LRU of at most
   :data:`_MEMORY_LIMIT` results: a memory hit, a disk load and a
   ``put`` each make the key most recent, and eviction drops only the
   memory copy, so an evicted key is served by the disk layer (unless
   its size cap dropped the file too) and a long-lived process (the
   service daemon) stays bounded without re-simulating;
2. **disk** (optional) — one pickle per result, named by the key
   digest, persisted next to the ``.npz`` trace store managed by
   :mod:`repro.io` so repeated *processes* share work. The layer can
   be size-capped (``REPRO_CACHE_MAX_MB``): when a store pushes the
   directory over the cap, least-recently-used entries (by mtime —
   reads touch their file) are evicted first.

Hits are attributed to the layer that served them
(:attr:`SimulationCache.memory_hits` / :attr:`~SimulationCache.disk_hits`);
the aggregate :attr:`~SimulationCache.hits` /
:attr:`~SimulationCache.misses` pair is kept for callers that predate
the layering, and
:meth:`SimulationCache.layer_counts` exports both views.

Invalidation is automatic by construction: any change to the trace
content, a module/component parameter, the structure mapping, the
sampling window, or the write model changes the key, and every key
(and every persisted payload) carries :data:`KERNEL_PLAN_VERSION`, so
stale entries are evicted when encountered. Deleting the cache
directory (or calling :meth:`SimulationCache.clear`) is the only
manual operation that exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import pickle
import threading
from collections import OrderedDict

from repro import obs
from repro.apex.architectures import MemoryArchitecture
from repro.config import CACHE_DIR_ENV, current_settings
from repro.connectivity.architecture import ConnectivityArchitecture
from repro.sim.metrics import SimulationResult
from repro.sim.sampling import SamplingConfig
from repro.trace.events import Trace

__all__ = [
    "CACHE_DIR_ENV",
    "KERNEL_PLAN_VERSION",
    "NULL_CACHE",
    "NullCache",
    "SimulationCache",
    "default_cache",
    "key_digest",
    "sampling_signature",
    "set_default_cache",
    "simulation_key",
]

#: Cache file suffix for persisted results.
_SUFFIX = ".simres.pkl"

#: Results the memory layer keeps over a disk layer, least recently
#: used first out: about 8.5 MB at 8.3 KB a result, four compress 0.1
#: APEX batches. A memory-only cache is never bounded (its memory
#: layer is the only copy).
_MEMORY_LIMIT = 1024


#: Version of the simulation kernel / trace-plan pipeline. Part of every
#: simulation key (so a kernel change orphans stale in-memory and disk
#: entries by construction) and stamped into the on-disk payload (so a
#: stale or foreign file is evicted when encountered rather than
#: deserialized into a result produced by different kernel code).
#: Bump on any change that could alter simulation results.
KERNEL_PLAN_VERSION = 8


def sampling_signature(sampling: SamplingConfig | None) -> tuple | None:
    """Hashable summary of a sampling configuration."""
    if sampling is None:
        return None
    return (sampling.on_window, sampling.off_ratio, sampling.warmup)


def simulation_key(
    trace: Trace,
    memory: MemoryArchitecture,
    connectivity: ConnectivityArchitecture | None,
    sampling: SamplingConfig | None = None,
    posted_writes: bool = False,
) -> tuple:
    """The full content key of one simulation."""
    return (
        trace.fingerprint(),
        memory.signature(),
        None if connectivity is None else connectivity.full_signature(),
        sampling_signature(sampling),
        bool(posted_writes),
        KERNEL_PLAN_VERSION,
    )


def key_digest(key: tuple) -> str:
    """Stable hex digest of a simulation key (the disk file name)."""
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _encode_payload(result: SimulationResult) -> bytes:
    """The persisted form of a result in the disk layer."""
    return pickle.dumps(
        {"version": KERNEL_PLAN_VERSION, "result": result},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _decode_payload(blob: bytes) -> SimulationResult | None:
    """Decode a persisted payload; ``None`` for stale/corrupt blobs."""
    try:
        payload = pickle.loads(blob)
    except Exception:
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("version") != KERNEL_PLAN_VERSION
    ):
        return None
    return payload.get("result")


class SimulationCache:
    """Layered result cache: memory, then disk.

    Args:
        directory: when given, results are additionally persisted as
            ``<digest>.simres.pkl`` files there and looked up on
            in-memory misses, so repeated benchmark *processes* share
            work too. The directory is created on first write. The
            memory layer then keeps at most :data:`_MEMORY_LIMIT`
            results.
        max_mb: optional size cap (MiB) for the disk layer; when a
            store pushes the directory over the cap, least-recently
            used files (by mtime) are evicted until it fits.
    """

    def __init__(
        self,
        directory: str | pathlib.Path | None = None,
        max_mb: float | None = None,
    ) -> None:
        self.directory = (
            pathlib.Path(directory) if directory is not None else None
        )
        self.max_mb = max_mb
        self._memory: OrderedDict[tuple, SimulationResult] = OrderedDict()
        # Guards the memory layer's order: two service runner threads
        # may share one tenant's cache.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0

    # -- core protocol -------------------------------------------------

    def get(self, key: tuple) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        with self._lock:
            result = self._memory.get(key)
            if result is not None:
                self._memory.move_to_end(key)
        if result is not None:
            self.memory_hits += 1
        if result is None and self.directory is not None:
            result = self._load_from_disk(key)
            if result is not None:
                self._remember(key, result)
                self.disk_hits += 1
                obs.incr("cache.disk_loads")
        if result is None:
            self.misses += 1
            obs.incr("cache.misses")
        else:
            self.hits += 1
            obs.incr("cache.hits")
        return result

    def put(self, key: tuple, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` in every configured layer."""
        self._remember(key, result)
        if self.directory is not None:
            self._store_to_disk(key, result)

    def _remember(self, key: tuple, result: SimulationResult) -> None:
        """Make ``key`` the memory layer's most recent entry.

        Over a disk layer, the least recently used entries beyond
        :data:`_MEMORY_LIMIT` leave memory; the disk layer keeps them.
        """
        with self._lock:
            self._memory[key] = result
            self._memory.move_to_end(key)
            if self.directory is None:
                return
            while len(self._memory) > _MEMORY_LIMIT:
                self._memory.popitem(last=False)
                obs.incr("cache.memory_evictions")

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: tuple) -> bool:
        return key in self._memory or (
            self.directory is not None and self._disk_path(key).exists()
        )

    def layer_counts(self) -> dict[str, int]:
        """Hit/miss accounting, per layer and aggregate."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        """Drop the in-memory layer and any persisted results."""
        with self._lock:
            self._memory.clear()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        if self.directory is not None and self.directory.exists():
            for path in self.directory.glob(f"*{_SUFFIX}"):
                path.unlink()

    # -- disk layer ----------------------------------------------------

    def _disk_path(self, key: tuple) -> pathlib.Path:
        assert self.directory is not None
        return self.directory / f"{key_digest(key)}{_SUFFIX}"

    def _load_from_disk(self, key: tuple) -> SimulationResult | None:
        path = self._disk_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        result = _decode_payload(blob)
        if result is None:
            # A torn/corrupt file, or one written by a different kernel
            # generation (or a pre-versioning one): evict rather than
            # trust it — pickle surfaces garbage as UnpicklingError,
            # ValueError, EOFError, AttributeError, ... and a cache
            # read must never abort a run. Unlink the carcass so future
            # processes don't re-read and re-fail on it forever; the
            # next put() rewrites it whole.
            obs.incr("cache.version_evictions")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            # LRU bookkeeping: a read refreshes the entry's mtime so
            # the size-cap eviction drops cold entries first.
            os.utime(path)
        except OSError:
            pass
        return result

    def _store_to_disk(self, key: tuple, result: SimulationResult) -> None:
        """Persist ``result`` atomically; a failed write is dropped.

        The process- and thread-tagged temp name keeps concurrent
        writers apart, and ``os.replace`` keeps readers from seeing a
        torn file. A failed write removes its temp file and counts
        ``cache.write_errors``: a cache write never fails the run that
        produced the result.
        """
        path = self._disk_path(key)
        temp = path.with_name(
            f"{path.name}.tmp{os.getpid()}.{threading.get_ident()}"
        )
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            temp.write_bytes(_encode_payload(result))
            os.replace(temp, path)
        except OSError:
            with contextlib.suppress(OSError):
                temp.unlink()
            obs.incr("cache.write_errors")
            return
        self._enforce_disk_cap()

    def _enforce_disk_cap(self) -> None:
        """Evict least-recently-used entries once over ``max_mb``."""
        if self.max_mb is None or self.directory is None:
            return
        budget = self.max_mb * 1024 * 1024
        entries = []
        total = 0
        for path in self.directory.glob(f"*{_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted by a concurrent process
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= budget:
            return
        entries.sort()  # oldest mtime first
        for _mtime, size, path in entries:
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            obs.incr("cache.lru_evictions")
            if total <= budget:
                break

    def __repr__(self) -> str:
        where = f" dir={self.directory}" if self.directory else ""
        return (
            f"<SimulationCache {len(self._memory)} entries, "
            f"{self.hits} hits / {self.misses} misses{where}>"
        )


class NullCache(SimulationCache):
    """A cache that never stores — disables result reuse explicitly.

    Pass ``cache=NULL_CACHE`` to an engine entry point (or any explorer
    that forwards a ``cache`` argument) to force fresh simulations, e.g.
    for honest serial-vs-parallel timing comparisons.
    """

    def get(self, key: tuple) -> SimulationResult | None:
        self.misses += 1
        return None

    def put(self, key: tuple, result: SimulationResult) -> None:
        pass

    def __contains__(self, key: tuple) -> bool:
        return False


#: Shared no-op cache instance.
NULL_CACHE = NullCache()

_default_cache: SimulationCache | None = None


def default_cache() -> SimulationCache:
    """The process-wide cache used when callers pass ``cache=None``.

    Created lazily; picks up an on-disk layer from
    ``Settings.cache_dir`` (the ``REPRO_CACHE_DIR`` variable) and a
    disk size cap from ``REPRO_CACHE_MAX_MB`` when set at first use.
    """
    global _default_cache
    if _default_cache is None:
        settings = current_settings()
        _default_cache = SimulationCache(
            settings.cache_dir, max_mb=settings.cache_max_mb
        )
    return _default_cache


def set_default_cache(cache: SimulationCache | None) -> None:
    """Replace the process-wide default cache (``None`` resets lazily)."""
    global _default_cache
    _default_cache = cache
