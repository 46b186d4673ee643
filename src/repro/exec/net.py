"""Socket wire protocol shared by remote workers and the cache network.

One dependency-free protocol serves both distribution surfaces:

* **job dispatch** — :class:`repro.exec.backend.RemoteBackend` ships
  memory-signature simulation groups to a ``repro worker`` process
  (:mod:`repro.exec.worker`) and receives job-index-ordered results;
* **the simulation-cache network layer** — get/put of content-addressed
  result payloads (:mod:`repro.exec.cache`), served by the same worker
  processes.

Framing is deliberately minimal: every message is one length-prefixed
frame — a 5-byte header (``!BI``: one kind byte, a 32-bit payload
length) followed by the payload. Payloads are pickled Python objects
(the same transport the process pool uses), except trace pushes, whose
payload is the pickled metadata followed by the raw column buffer in
:meth:`repro.trace.events.Trace.pack_columns` layout — the exact byte
layout of a shared-memory export, so a trace ships once per (worker,
fingerprint) and the worker attaches to the received bytes zero-copy.

Every connection tracks the bytes it moved (:attr:`Connection.bytes_sent`
/ :attr:`Connection.bytes_received`); the backends fold those into
``obs`` counters and :class:`repro.exec.engine.EngineReport`.
"""

from __future__ import annotations

import pickle
import socket
import struct

from repro.errors import ExecutionError

__all__ = [
    "PROTOCOL_VERSION",
    "Frame",
    "Connection",
    "BackendUnavailable",
    "MSG_HELLO",
    "MSG_OK",
    "MSG_ERROR",
    "MSG_TRACE_QUERY",
    "MSG_TRACE_PUSH",
    "MSG_SIM_GROUPS",
    "MSG_RESULT",
    "MSG_CACHE_GET",
    "MSG_CACHE_PUT",
    "MSG_CACHE_HIT",
    "MSG_CACHE_MISS",
    "MSG_PING",
    "MSG_PONG",
    "decode_trace",
    "encode_trace",
    "handshake",
    "max_frame_bytes",
    "parse_address",
]

#: Bumped on any incompatible wire change; checked in the handshake.
#: Version 2 retired the per-job ``SIM_JOBS`` request (kind 6): every
#: simulation now travels as a memory-signature group. Version 3
#: retired the ``ESTIMATES`` request (kind 8): Phase-I estimates are
#: computed in-process and never cross the wire. Retired kinds are not
#: reused.
PROTOCOL_VERSION = 3

_HEADER = struct.Struct("!BI")

_MAX_FRAME_BYTES = 256 * 1024 * 1024


def max_frame_bytes() -> int:
    """The frame-size ceiling: 256 MiB.

    The 32-bit length header lets any peer declare a frame of up to
    ~4 GiB; without a ceiling, one garbage or malicious header drives
    the receiver into a multi-gigabyte allocation loop. Frames beyond
    the ceiling are treated as a dead peer (:class:`BackendUnavailable`)
    before any payload byte is read.
    """
    return _MAX_FRAME_BYTES

# Message kinds. Requests and replies share one numbering space; the
# worker answers every request with exactly one frame.
MSG_HELLO = 1        # -> {"protocol", "kernel_plan_version"}; reply MSG_OK
MSG_OK = 2           # generic success (payload depends on the request)
MSG_ERROR = 3        # payload: {"error": str}; the request failed remotely
MSG_TRACE_QUERY = 4  # -> fingerprint str; reply MSG_OK {"have": bool}
MSG_TRACE_PUSH = 5   # -> (meta, column buffer); reply MSG_OK
MSG_SIM_GROUPS = 7   # -> {"fingerprint", "groups", "collect"}; reply MSG_RESULT
MSG_RESULT = 9       # payload: {"values", "obs"} (obs: ObsSnapshot | None)
MSG_CACHE_GET = 10   # -> digest str; reply MSG_CACHE_HIT | MSG_CACHE_MISS
MSG_CACHE_PUT = 11   # -> (digest, payload bytes); reply MSG_OK
MSG_CACHE_HIT = 12   # payload: the stored bytes
MSG_CACHE_MISS = 13  # empty payload
MSG_PING = 14        # liveness probe; reply MSG_PONG
MSG_PONG = 15


class BackendUnavailable(ExecutionError):
    """A remote worker or cache peer is unreachable or died mid-request.

    Raised by :class:`Connection` on connect failures, truncated
    streams, and socket errors. :class:`repro.exec.backend.ShardedBackend`
    treats it as a recoverable fault (re-dispatch to survivors);
    everything else propagates unchanged, mirroring the local rule that
    job-raised exceptions are not dispatch faults.
    """


class Frame:
    """One decoded protocol frame."""

    __slots__ = ("kind", "payload")

    def __init__(self, kind: int, payload: bytes) -> None:
        self.kind = kind
        self.payload = payload

    def unpickle(self):
        return pickle.loads(self.payload)

    def __repr__(self) -> str:
        return f"<Frame kind={self.kind} {len(self.payload)} bytes>"


def parse_address(address: str) -> tuple[str, int]:
    """Split a ``host:port`` worker/cache address string.

    IPv6 literals use the standard bracketed form (``[::1]:9000``);
    the brackets are stripped so the host feeds straight into
    ``socket.create_connection``. A bare-colon IPv6 host without
    brackets is ambiguous with the port separator and rejected.
    """
    host, separator, port = address.rpartition(":")
    if not separator or not host:
        raise ExecutionError(
            f"worker address must be host:port, got {address!r}"
        )
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
        if not host:
            raise ExecutionError(
                f"worker address has an empty IPv6 host: {address!r}"
            )
    elif ":" in host:
        raise ExecutionError(
            f"IPv6 worker addresses need brackets ([host]:port), "
            f"got {address!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ExecutionError(
            f"worker address port must be an integer, got {address!r}"
        ) from None


_META_HEADER = struct.Struct("!I")


def encode_trace(trace) -> bytes:
    """The :data:`MSG_TRACE_PUSH` payload for one trace.

    Layout: a u32 metadata length, the pickled metadata (name, structs,
    fingerprint, column specs), then the raw column buffer in
    :meth:`~repro.trace.events.Trace.pack_columns` layout — kept
    outside the pickle so the receiver can map numpy views over the
    payload without a second copy.
    """
    specs, buffer = trace.pack_columns()
    meta = pickle.dumps(
        {
            "name": trace.name,
            "structs": trace.structs,
            "fingerprint": trace.fingerprint(),
            "specs": specs,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _META_HEADER.pack(len(meta)) + meta + buffer


def decode_trace(payload: bytes):
    """Rebuild the pushed trace from a :data:`MSG_TRACE_PUSH` payload."""
    from repro.trace.events import Trace

    (meta_length,) = _META_HEADER.unpack_from(payload)
    offset = _META_HEADER.size
    meta = pickle.loads(payload[offset : offset + meta_length])
    buffer = memoryview(payload)[offset + meta_length :]
    return Trace.from_packed(
        meta["name"],
        meta["structs"],
        meta["fingerprint"],
        meta["specs"],
        buffer,
    )


class Connection:
    """A framed, byte-counting wrapper around one stream socket.

    Used on both sides of the protocol: clients construct one via
    :meth:`connect`, the worker wraps each accepted socket. All
    failures that mean "the peer is gone" (refused connection, reset,
    truncated frame, timeout) surface as :class:`BackendUnavailable` so
    callers have one fault type to recover from.
    """

    def __init__(
        self, sock: socket.socket, max_frame: int | None = None
    ) -> None:
        self._sock = sock
        self.max_frame = max_frame if max_frame is not None else max_frame_bytes()
        self.bytes_sent = 0
        self.bytes_received = 0

    @classmethod
    def connect(
        cls, address: str, timeout: float | None = None
    ) -> "Connection":
        host, port = parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as error:
            raise BackendUnavailable(
                f"cannot connect to worker {address}: {error}"
            ) from error
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    def settimeout(self, timeout: float | None) -> None:
        self._sock.settimeout(timeout)

    def send(self, kind: int, payload: bytes = b"") -> None:
        message = _HEADER.pack(kind, len(payload)) + payload
        try:
            self._sock.sendall(message)
        except OSError as error:
            raise BackendUnavailable(f"worker send failed: {error}") from error
        self.bytes_sent += len(message)

    def send_pickled(self, kind: int, value) -> None:
        self.send(kind, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def _recv_exact(self, count: int) -> bytes:
        chunks: list[bytes] = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except OSError as error:
                raise BackendUnavailable(
                    f"worker receive failed: {error}"
                ) from error
            if not chunk:
                raise BackendUnavailable(
                    "worker closed the connection mid-frame"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        self.bytes_received += count
        return b"".join(chunks)

    def recv(self) -> Frame:
        kind, length = _HEADER.unpack(self._recv_exact(_HEADER.size))
        if length > self.max_frame:
            # A header this large is garbage or hostile, never a real
            # message; drop the peer before allocating anything.
            self.close()
            raise BackendUnavailable(
                f"peer declared a {length}-byte frame "
                f"(max {self.max_frame}); closing the connection"
            )
        payload = self._recv_exact(length) if length else b""
        return Frame(kind, payload)

    def request(self, kind: int, payload: bytes = b"") -> Frame:
        """Send one frame and wait for the single reply frame.

        A remote :data:`MSG_ERROR` is re-raised locally as
        :class:`ExecutionError` — the request reached the worker and
        failed there, which is a job error, not a dead peer.
        """
        self.send(kind, payload)
        reply = self.recv()
        if reply.kind == MSG_ERROR:
            detail = reply.unpickle().get("error", "unknown worker error")
            raise ExecutionError(f"remote worker error: {detail}")
        return reply

    def request_pickled(self, kind: int, value) -> Frame:
        return self.request(
            kind, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def shutdown_read(self) -> None:
        """Half-close the receive side (drain signal).

        A thread blocked in :meth:`recv` wakes with EOF — a plain
        ``close()`` from another thread does not reliably interrupt a
        blocked ``recv`` — while the send side stays open, so a reply
        already being written still reaches the peer.
        """
        try:
            self._sock.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # already disconnected

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected, or the peer already hung up
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close must not raise
            pass

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def handshake(address: str, timeout: float | None = None) -> Connection:
    """Connect to a worker and exchange :data:`MSG_HELLO`.

    The one client handshake, shared by the remote backend and the
    cache client. It returns the open connection. On any failure the
    socket is closed before the error propagates: a dead peer raises
    :class:`BackendUnavailable`, and a peer that refuses the handshake
    (protocol or ``KERNEL_PLAN_VERSION`` skew) raises
    :class:`ExecutionError`.
    """
    from repro.exec.cache import KERNEL_PLAN_VERSION

    conn = Connection.connect(address, timeout=timeout)
    try:
        conn.request_pickled(
            MSG_HELLO,
            {
                "protocol": PROTOCOL_VERSION,
                "kernel_plan_version": KERNEL_PLAN_VERSION,
            },
        )
    except BaseException:
        conn.close()
        raise
    return conn
