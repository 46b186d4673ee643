"""Socket worker: serves simulation groups and cache traffic.

``python -m repro worker`` (see :mod:`repro.cli`) runs one
:class:`WorkerServer`: a thread-per-connection TCP server speaking the
:mod:`repro.exec.net` frame protocol. A worker is the unit of
horizontal sharding — :class:`repro.exec.backend.ShardedBackend` runs
one :class:`~repro.exec.backend.RemoteBackend` client per worker
process and shards memory-signature groups across them.

State held per worker process:

* **traces**, keyed by fingerprint. A client pushes each trace at most
  once per (worker, fingerprint) — :data:`~repro.exec.net.MSG_TRACE_QUERY`
  first, :data:`~repro.exec.net.MSG_TRACE_PUSH` only on "don't have
  it" — and every subsequent job batch references the fingerprint
  alone. Pushed columns are attached zero-copy from the frame payload
  (:func:`repro.exec.net.decode_trace`).
* **trace plans** come from the process-wide plan registry
  (:func:`repro.sim.batch.trace_plan`): the groups of a request run on
  :class:`~repro.exec.backend.SerialBackend`, the one in-process path,
  so repeated group batches over one trace share the plan exactly like
  a local runtime worker does.
* **cache blobs**, keyed by content digest. The worker doubles as the
  networked layer of :class:`repro.exec.cache.SimulationCache`:
  ``CACHE_GET``/``CACHE_PUT`` move opaque payload bytes (the client
  owns the pickle format and its version stamp), held in memory and —
  when the worker was started with a cache directory — mirrored to the
  same ``<digest>.simres.pkl`` files the local disk layer reads, so a
  worker pointed at a shared ``REPRO_CACHE_DIR`` persists what the
  fleet deduplicates.

Both in-memory stores are byte-capped LRUs (:class:`ByteLRU`) sized by
``REPRO_CACHE_MAX_MB`` (default :data:`DEFAULT_STORE_MB` each), so a
long-lived worker's RSS stays bounded no matter how many traces and
blobs the fleet pushes at it. A client whose trace was evicted under
pressure gets a recognizable job error and re-pushes
(:meth:`repro.exec.backend.RemoteBackend` does this automatically).

The handshake (:data:`~repro.exec.net.MSG_HELLO`) rejects clients
whose protocol or ``KERNEL_PLAN_VERSION`` differs: a version-skewed
worker must fail loudly at connect time, not return results computed
by different kernel code.

Lifecycle: :meth:`WorkerServer.stop` closes the listener and reaps
connection threads; pass ``drain_timeout`` to wait for in-flight
requests to finish their reply before force-closing what remains —
the graceful-drain path the exploration service daemon
(:mod:`repro.service`) uses on ``SIGTERM``.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import socket
import threading
import time
from collections import OrderedDict

from repro import obs
from repro.config import current_settings
from repro.exec import net
from repro.exec.backend import SerialBackend
from repro.exec.cache import KERNEL_PLAN_VERSION, read_blob, write_blob
from repro.exec.runtime import _chunk_observation
from repro.trace.events import Trace

__all__ = ["ByteLRU", "DEFAULT_STORE_MB", "WorkerServer", "serve"]

#: Per-store byte cap (MiB) when ``REPRO_CACHE_MAX_MB`` is unset. The
#: old behaviour — unbounded growth — is exactly the leak this bounds;
#: there is deliberately no way to turn the cap off.
DEFAULT_STORE_MB = 512.0

#: Reap finished connection threads once the live list grows past this.
_REAP_THRESHOLD = 32


class ByteLRU:
    """A byte-capped, thread-safe LRU mapping keys to sized values.

    Values are stored with an explicit byte size (callers know it
    cheaply: ``len(blob)`` or a trace's column ``nbytes``). A put that
    pushes :attr:`total_bytes` over the cap evicts least-recently-used
    entries first; the entry being inserted is never evicted by its own
    put, so even an oversized value is served at least once rather than
    bounced forever.
    """

    def __init__(self, max_bytes: int) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[object, tuple[object, int]]" = OrderedDict()
        self._lock = threading.Lock()
        self.total_bytes = 0
        self.evictions = 0

    def get(self, key):
        """The stored value (refreshed as most recent), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, nbytes: int) -> None:
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self.total_bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self.total_bytes += nbytes
            while self.total_bytes > self.max_bytes and len(self._entries) > 1:
                _stale_key, (_value, size) = self._entries.popitem(last=False)
                self.total_bytes -= size
                self.evictions += 1

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def _store_max_bytes() -> int:
    """The per-store byte cap: ``REPRO_CACHE_MAX_MB`` or the default."""
    max_mb = current_settings().cache_max_mb
    if max_mb is None:
        max_mb = DEFAULT_STORE_MB
    return max(1, int(max_mb * 1024 * 1024))


def _trace_nbytes(trace: Trace) -> int:
    """A trace's resident footprint: the sum of its column buffers."""
    return int(
        trace.addresses.nbytes
        + trace.sizes.nbytes
        + trace.kinds.nbytes
        + trace.struct_ids.nbytes
        + trace.ticks.nbytes
    )


class WorkerServer:
    """One socket worker process's server state and accept loop.

    Args:
        host: interface to bind (default loopback).
        port: TCP port; 0 (the default) lets the OS pick — read the
            chosen one back from :attr:`address`.
        cache_dir: optional directory for persisting served cache
            blobs (shared-``REPRO_CACHE_DIR`` deployments).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: str | os.PathLike | None = None,
    ) -> None:
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self.address = f"{self.host}:{self.port}"
        self.cache_dir = (
            pathlib.Path(cache_dir) if cache_dir is not None else None
        )
        store_bytes = _store_max_bytes()
        self._traces = ByteLRU(store_bytes)
        self._blobs = ByteLRU(store_bytes)
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self._threads: list[threading.Thread] = []
        self._connections: set[net.Connection] = set()
        self.connections_served = 0
        self.requests_served = 0

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` (or the socket dies)."""
        while not self._stopped.is_set():
            try:
                sock, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            self.connections_served += 1
            self._reap_threads()
            thread = threading.Thread(
                target=self._serve_connection,
                args=(net.Connection(sock),),
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def start(self) -> threading.Thread:
        """Run the accept loop on a background thread (tests, benches)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def _reap_threads(self, force: bool = False) -> None:
        """Drop finished connection threads from the live list.

        Long-lived deployments serve thousands of connections; without
        reaping, every one of them leaks a dead ``Thread`` object into
        ``_threads`` forever. Cheap enough to run on every accept once
        the list passes a small threshold.
        """
        if force or len(self._threads) > _REAP_THRESHOLD:
            self._threads = [t for t in self._threads if t.is_alive()]

    @property
    def live_threads(self) -> int:
        """Connection threads still running (reaps first)."""
        self._reap_threads(force=True)
        return len(self._threads)

    def stop(self, drain_timeout: float | None = None) -> bool:
        """Stop accepting; optionally drain in-flight connections.

        Without ``drain_timeout`` this only closes the listener (the
        historical behaviour — connection threads are daemons and die
        with the process). With it, the call joins every connection
        thread for up to ``drain_timeout`` seconds so in-flight
        requests finish their reply, then force-closes whatever
        connections remain (idle keep-alives blocked in ``recv``) and
        joins briefly again. Returns ``True`` when every thread exited
        within the budget.
        """
        self._stopped.set()
        with contextlib.suppress(OSError):
            self._listener.close()
        if drain_timeout is None:
            self._reap_threads(force=True)
            return not self._threads
        # Half-close every connection's read side: threads parked in
        # recv() wake with EOF immediately, threads mid-dispatch keep
        # their send side and finish delivering the reply, then see
        # EOF on their next recv. Only then join against the deadline.
        with self._lock:
            for connection in self._connections:
                connection.shutdown_read()
        deadline = time.monotonic() + drain_timeout
        for thread in list(self._threads):
            thread.join(max(0.0, deadline - time.monotonic()))
        # Whatever survived the window is wedged: close its socket out
        # from under it and give it one last moment.
        with self._lock:
            lingering = list(self._connections)
        for connection in lingering:
            connection.close()
        for thread in list(self._threads):
            thread.join(1.0)
        self._reap_threads(force=True)
        return not self._threads

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- connection handling -------------------------------------------

    def _serve_connection(self, connection: net.Connection) -> None:
        with self._lock:
            self._connections.add(connection)
        try:
            while not self._stopped.is_set():
                try:
                    frame = connection.recv()
                except net.BackendUnavailable:
                    return  # client hung up
                self.requests_served += 1
                try:
                    kind, payload = self._dispatch(frame)
                except Exception as error:
                    # A failed request must not take the worker down:
                    # report it to the requesting client and keep
                    # serving. The client re-raises it as a job error.
                    connection.send_pickled(
                        net.MSG_ERROR,
                        {"error": f"{type(error).__name__}: {error}"},
                    )
                else:
                    connection.send(kind, payload)
        except net.BackendUnavailable:
            return  # client vanished mid-reply
        finally:
            with self._lock:
                self._connections.discard(connection)
            connection.close()

    def _dispatch(self, frame: net.Frame) -> tuple[int, bytes]:
        kind = frame.kind
        if kind == net.MSG_PING:
            return net.MSG_PONG, b""
        if kind == net.MSG_HELLO:
            return self._handle_hello(frame)
        if kind == net.MSG_TRACE_QUERY:
            fingerprint = frame.unpickle()
            have = fingerprint in self._traces
            return net.MSG_OK, _pickled({"have": have})
        if kind == net.MSG_TRACE_PUSH:
            trace = net.decode_trace(frame.payload)
            self._traces.put(trace.fingerprint(), trace, _trace_nbytes(trace))
            obs.incr("worker.trace_pushes")
            return net.MSG_OK, b""
        if kind == net.MSG_SIM_GROUPS:
            return self._handle_groups(frame.unpickle())
        if kind == net.MSG_CACHE_GET:
            return self._handle_cache_get(frame.unpickle())
        if kind == net.MSG_CACHE_PUT:
            digest, blob = frame.unpickle()
            self._blobs.put(digest, blob, len(blob))
            if self.cache_dir is not None:
                write_blob(self.cache_dir, digest, blob)
            obs.incr("worker.cache_puts")
            return net.MSG_OK, b""
        raise ValueError(f"unknown message kind {kind}")

    def _handle_hello(self, frame: net.Frame) -> tuple[int, bytes]:
        hello = frame.unpickle()
        protocol = hello.get("protocol")
        kernel = hello.get("kernel_plan_version")
        if protocol != net.PROTOCOL_VERSION or kernel != KERNEL_PLAN_VERSION:
            return net.MSG_ERROR, _pickled(
                {
                    "error": (
                        f"version skew: worker speaks protocol "
                        f"{net.PROTOCOL_VERSION} / kernel "
                        f"{KERNEL_PLAN_VERSION}, client sent "
                        f"{protocol} / {kernel}"
                    )
                }
            )
        return net.MSG_OK, _pickled(
            {
                "protocol": net.PROTOCOL_VERSION,
                "kernel_plan_version": KERNEL_PLAN_VERSION,
            }
        )

    def _trace(self, fingerprint: str) -> Trace:
        trace = self._traces.get(fingerprint)
        if trace is None:
            # Never pushed, or evicted under the store's byte cap. The
            # wording is a protocol marker: RemoteBackend re-pushes the
            # trace and retries once when it sees it.
            raise KeyError(
                f"trace {fingerprint[:12]}… was never pushed to this worker "
                f"(or was evicted; push it again)"
            )
        return trace

    # -- job execution -------------------------------------------------

    def _handle_groups(self, request: dict) -> tuple[int, bytes]:
        trace = self._trace(request["fingerprint"])
        baseline = _chunk_observation(request.get("collect", False))
        serial = SerialBackend()
        values = serial.run_groups(trace, request["groups"])
        obs.incr("worker.jobs", serial.last_dispatch.jobs)
        return net.MSG_RESULT, _pickled(
            {"values": values, "obs": _obs_delta(baseline)}
        )

    # -- cache serving -------------------------------------------------

    def _handle_cache_get(self, digest: str) -> tuple[int, bytes]:
        blob = self._blobs.get(digest)
        if blob is None and self.cache_dir is not None:
            blob = read_blob(self.cache_dir, digest)
            if blob is not None:
                self._blobs.put(digest, blob, len(blob))
        if blob is None:
            obs.incr("worker.cache_misses")
            return net.MSG_CACHE_MISS, b""
        obs.incr("worker.cache_hits")
        return net.MSG_CACHE_HIT, blob


def _pickled(value) -> bytes:
    import pickle

    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _obs_delta(baseline):
    return obs.snapshot().subtract(baseline) if baseline is not None else None


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: str | None = None,
) -> None:
    """Blocking entry point used by the ``repro worker`` CLI command.

    Prints the bound address (``listening on host:port``) before
    serving so launchers that requested port 0 can read the chosen
    port back from stdout.
    """
    server = WorkerServer(host=host, port=port, cache_dir=cache_dir)
    print(f"listening on {server.address}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.stop(drain_timeout=5.0)
