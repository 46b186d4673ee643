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

The cache is layered, each layer a read-through over the next:

1. **memory** — a process-wide dict (the default — this is what lets
   the Full strategy reuse every point the Pruned pass already
   simulated, and a second ``explore_connectivity`` call run at zero
   simulation cost);
2. **disk** (optional) — one pickle per result, named by the key
   digest, persisted next to the ``.npz`` trace store managed by
   :mod:`repro.io` so repeated *processes* share work. The layer can
   be size-capped (``REPRO_CACHE_MAX_MB``): when a store pushes the
   directory over the cap, least-recently-used entries (by mtime —
   reads touch their file) are evicted first;
3. **network** (optional) — get/put of the same pickled payloads
   against a ``repro worker`` process (``REPRO_CACHE_URL``), so shards
   of a distributed run dedupe each other's work. Network faults
   degrade silently: the peer is dropped after repeated failures and
   the cache keeps serving from the local layers.

Hits are attributed to the layer that served them
(:attr:`SimulationCache.memory_hits` / :attr:`~SimulationCache.disk_hits`
/ :attr:`~SimulationCache.net_hits`); the aggregate
:attr:`~SimulationCache.hits` / :attr:`~SimulationCache.misses` pair is
kept for callers that predate the layering, and
:meth:`SimulationCache.layer_counts` exports both views.

Invalidation is automatic by construction: any change to the trace
content, a module/component parameter, the structure mapping, the
sampling window, or the write model changes the key, and every key
(and every persisted payload) carries :data:`KERNEL_PLAN_VERSION`, so
stale entries — local or served by a version-skewed cache peer — are
evicted when encountered. Deleting the cache directory (or calling
:meth:`SimulationCache.clear`) is the only manual operation that
exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import pickle
import threading

from repro import obs
from repro.apex.architectures import MemoryArchitecture
from repro.config import CACHE_DIR_ENV, CACHE_URL_ENV, current_settings
from repro.errors import ExecutionError
from repro.connectivity.architecture import ConnectivityArchitecture
from repro.sim.metrics import SimulationResult
from repro.sim.sampling import SamplingConfig
from repro.trace.events import Trace

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_URL_ENV",
    "KERNEL_PLAN_VERSION",
    "NULL_CACHE",
    "CacheClient",
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


def read_blob(directory: pathlib.Path, digest: str) -> bytes | None:
    """The bytes stored under ``digest``; ``None`` if absent or unreadable.

    Shared by :class:`SimulationCache`'s disk layer and the socket worker.
    """
    try:
        return (directory / f"{digest}{_SUFFIX}").read_bytes()
    except OSError:
        return None


def write_blob(directory: pathlib.Path, digest: str, blob: bytes) -> bool:
    """Store ``blob`` under ``digest`` atomically; ``False`` if it failed.

    The process- and thread-tagged temp name keeps concurrent writers
    apart, and ``os.replace`` keeps readers from seeing a torn file. A
    failed write removes its temp file and counts ``cache.write_errors``:
    a cache write never fails the run that produced the result.
    """
    path = directory / f"{digest}{_SUFFIX}"
    temp = path.with_name(
        f"{path.name}.tmp{os.getpid()}.{threading.get_ident()}"
    )
    try:
        directory.mkdir(parents=True, exist_ok=True)
        temp.write_bytes(blob)
        os.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            temp.unlink()
        obs.incr("cache.write_errors")
        return False
    return True

#: Version of the simulation kernel / trace-plan pipeline. Part of every
#: simulation key (so a kernel change orphans stale in-memory and disk
#: entries by construction) and stamped into the on-disk payload (so a
#: stale or foreign file is evicted when encountered rather than
#: deserialized into a result produced by different kernel code).
#: Bump on any change that could alter simulation results.
KERNEL_PLAN_VERSION = 8

#: Consecutive network faults before a cache peer is written off.
_NET_FAULT_LIMIT = 3


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
    """Stable hex digest of a simulation key (disk file / network name)."""
    return hashlib.sha256(repr(key).encode()).hexdigest()


def _encode_payload(result: SimulationResult) -> bytes:
    """The persisted form shared by the disk and network layers."""
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


class CacheClient:
    """Best-effort get/put client for a networked cache peer.

    Speaks the :mod:`repro.exec.net` protocol against a ``repro
    worker`` at ``url`` (``host:port``). Every failure mode is soft: a
    connect error, dropped socket, timeout, or an error the peer
    reports for the request loses at most one lookup, and after
    :data:`_NET_FAULT_LIMIT` consecutive faults the peer is abandoned
    for the rest of the process — a cache must never
    make a run slower than no cache, let alone fail it. A peer that
    refuses the :func:`repro.exec.net.handshake` (version skew) is
    abandoned at once.
    """

    def __init__(self, url: str, timeout: float | None = 5.0) -> None:
        self.url = url
        self.timeout = timeout
        self._conn = None
        self._faults = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def dead(self) -> bool:
        return self._faults >= _NET_FAULT_LIMIT

    def _connection(self):
        from repro.exec import net

        if self._conn is None:
            try:
                self._conn = net.handshake(self.url, timeout=self.timeout)
            except net.BackendUnavailable:
                raise
            except ExecutionError as error:
                # A refused handshake (version skew) never heals: write
                # the peer off for good and let the caller count the
                # fault; lookups fall back to the local layers.
                self._faults = _NET_FAULT_LIMIT
                raise net.BackendUnavailable(
                    f"cache peer {self.url} refused the handshake: {error}"
                ) from error
        return self._conn

    def _drop_connection(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            self.bytes_sent += conn.bytes_sent
            self.bytes_received += conn.bytes_received
            conn.close()
        self._faults += 1
        obs.incr("cache.net_errors")

    def get(self, digest: str) -> bytes | None:
        from repro.exec import net

        if self.dead:
            return None
        try:
            reply = self._connection().request_pickled(
                net.MSG_CACHE_GET, digest
            )
        except ExecutionError:  # a dead peer, or its MSG_ERROR reply
            self._drop_connection()
            return None
        self._faults = 0
        if reply.kind != net.MSG_CACHE_HIT:
            return None
        return reply.payload

    def put(self, digest: str, blob: bytes) -> None:
        from repro.exec import net

        if self.dead:
            return
        try:
            self._connection().request_pickled(
                net.MSG_CACHE_PUT, (digest, blob)
            )
        except ExecutionError:  # a dead peer, or its MSG_ERROR reply
            self._drop_connection()
        else:
            self._faults = 0

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            self.bytes_sent += conn.bytes_sent
            self.bytes_received += conn.bytes_received
            conn.close()


class SimulationCache:
    """Layered result cache: memory, then disk, then the network.

    Args:
        directory: when given, results are additionally persisted as
            ``<digest>.simres.pkl`` files there and looked up on
            in-memory misses, so repeated benchmark *processes* share
            work too. The directory is created on first write.
        max_mb: optional size cap (MiB) for the disk layer; when a
            store pushes the directory over the cap, least-recently
            used files (by mtime) are evicted until it fits.
        url: optional ``host:port`` of a ``repro worker`` serving the
            networked cache layer; consulted after a disk miss, and
            written through on every put.
    """

    def __init__(
        self,
        directory: str | pathlib.Path | None = None,
        max_mb: float | None = None,
        url: str | None = None,
    ) -> None:
        self.directory = (
            pathlib.Path(directory) if directory is not None else None
        )
        self.max_mb = max_mb
        self._memory: dict[tuple, SimulationResult] = {}
        self._client = CacheClient(url) if url else None
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.net_hits = 0

    # -- core protocol -------------------------------------------------

    def get(self, key: tuple) -> SimulationResult | None:
        """The cached result for ``key``, or ``None`` on a miss."""
        result = self._memory.get(key)
        if result is not None:
            self.memory_hits += 1
        if result is None and self.directory is not None:
            result = self._load_from_disk(key)
            if result is not None:
                self._memory[key] = result
                self.disk_hits += 1
                obs.incr("cache.disk_loads")
        if result is None and self._client is not None:
            result = self._load_from_network(key)
            if result is not None:
                # Read-through: a network hit lands in the local
                # layers so the next lookup never leaves the process.
                self._memory[key] = result
                if self.directory is not None:
                    self._store_to_disk(key, result)
                self.net_hits += 1
                obs.incr("cache.net_loads")
        if result is None:
            self.misses += 1
            obs.incr("cache.misses")
        else:
            self.hits += 1
            obs.incr("cache.hits")
        return result

    def put(self, key: tuple, result: SimulationResult) -> None:
        """Store ``result`` under ``key`` in every configured layer."""
        self._memory[key] = result
        if self.directory is not None:
            self._store_to_disk(key, result)
        if self._client is not None:
            self._client.put(key_digest(key), _encode_payload(result))

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
            "net_hits": self.net_hits,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self) -> None:
        """Drop the in-memory layer and any persisted results."""
        self._memory.clear()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.net_hits = 0
        if self.directory is not None and self.directory.exists():
            for path in self.directory.glob(f"*{_SUFFIX}"):
                path.unlink()

    def close(self) -> None:
        """Release the network connection, if any. Idempotent."""
        if self._client is not None:
            self._client.close()

    # -- disk layer ----------------------------------------------------

    def _disk_path(self, key: tuple) -> pathlib.Path:
        assert self.directory is not None
        return self.directory / f"{key_digest(key)}{_SUFFIX}"

    def _load_from_disk(self, key: tuple) -> SimulationResult | None:
        blob = read_blob(self.directory, key_digest(key))
        if blob is None:
            return None
        path = self._disk_path(key)
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
        assert self.directory is not None
        if write_blob(self.directory, key_digest(key), _encode_payload(result)):
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

    # -- network layer -------------------------------------------------

    def _load_from_network(self, key: tuple) -> SimulationResult | None:
        assert self._client is not None
        blob = self._client.get(key_digest(key))
        if blob is None:
            return None
        # A version-skewed or corrupt peer payload is a miss, never an
        # error; the key embeds KERNEL_PLAN_VERSION so genuine entries
        # always decode.
        return _decode_payload(blob)

    def __repr__(self) -> str:
        where = f" dir={self.directory}" if self.directory else ""
        peer = f" url={self._client.url}" if self._client else ""
        return (
            f"<SimulationCache {len(self._memory)} entries, "
            f"{self.hits} hits / {self.misses} misses{where}{peer}>"
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
    ``Settings.cache_dir`` (the ``REPRO_CACHE_DIR`` variable), a disk
    size cap from ``REPRO_CACHE_MAX_MB``, and a networked layer from
    ``REPRO_CACHE_URL`` when set at first use.
    """
    global _default_cache
    if _default_cache is None:
        settings = current_settings()
        _default_cache = SimulationCache(
            settings.cache_dir,
            max_mb=settings.cache_max_mb,
            url=settings.cache_url,
        )
    return _default_cache


def set_default_cache(cache: SimulationCache | None) -> None:
    """Replace the process-wide default cache (``None`` resets lazily)."""
    global _default_cache
    _default_cache = cache
