"""Crash-safe shared-memory hygiene: registry, manifest, stale sweep.

:meth:`repro.trace.events.Trace.export_shared` backs zero-copy trace
transport with named POSIX shared-memory blocks (or temp files). Those
blocks live in ``/dev/shm`` until *someone* unlinks them — and before
this module existed that someone was only the clean-exit path
(:meth:`SharedTraceExport.close` / ``atexit``). A process killed by
SIGKILL, the OOM killer, or a crash left its blocks behind forever,
silently eating shared memory across a multi-hour sweep.

This module closes that hole with three cooperating mechanisms:

* **PID-tagged names + a sidecar manifest.** Every exported block is
  named ``repro-shm-<pid>-<token>`` and recorded in a per-process
  manifest file (``<tempdir>/repro-shm/<pid>.manifest``, one resource
  per line). The name alone identifies the owner; the manifest also
  covers the temp-file transport fallback.
* **Signal-safe cleanup.** The first registration installs chaining
  SIGTERM/SIGINT handlers (and an ``atexit`` hook) that unlink every
  still-registered resource before the process dies. Handlers are
  owner-PID guarded so fork children (pool workers) inherit them
  harmlessly: a terminated worker never unlinks its parent's blocks.
* **A startup sweep.** :func:`sweep_stale` scans the manifest
  directory (and, on POSIX, ``/dev/shm`` directly) for resources whose
  owner PID is dead and unlinks them best-effort. The execution
  runtime runs the sweep once per process on construction, so a fresh
  exploration session reclaims whatever a crashed predecessor leaked.

Everything here is best-effort by design: cleanup must never turn a
survivable fault into a new failure, so every unlink swallows
``OSError``.
"""

from __future__ import annotations

import atexit
import os
import pathlib
import secrets
import signal
import tempfile
import threading


#: Prefix of every shared-memory block exported by this library. The
#: embedded PID lets the sweep attribute a block to its owner even
#: when the sidecar manifest never made it to disk.
SHM_PREFIX = "repro-shm"

#: Resources registered by this process: resource name/path -> kind
#: (``"shm"`` or ``"file"``).
_REGISTERED: dict[str, str] = {}

#: PID that owns the registrations. Fork children inherit the dict but
#: must never act on it (the parent still uses those blocks).
_OWNER_PID: int | None = None

_PREVIOUS_HANDLERS: dict[int, object] = {}
_HOOKS_INSTALLED = False


def block_name() -> str:
    """A fresh PID-tagged shared-memory block name."""
    return f"{SHM_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}"


def manifest_dir() -> pathlib.Path:
    """Directory holding the per-process shm manifests.

    ``<tmpdir>/repro-shm``; ``TMPDIR`` moves it like any temp file.
    """
    return pathlib.Path(tempfile.gettempdir()) / SHM_PREFIX


def _manifest_path(pid: int | None = None) -> pathlib.Path:
    return manifest_dir() / f"{pid if pid is not None else os.getpid()}.manifest"


def registered_resources() -> tuple[tuple[str, str], ...]:
    """Snapshot of this process's live registrations as (kind, name)."""
    return tuple((kind, name) for name, kind in _REGISTERED.items())


def _write_manifest() -> None:
    path = _manifest_path()
    if not _REGISTERED:
        try:
            path.unlink()
        except OSError:
            pass
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(".tmp")
        temp.write_text(
            "".join(f"{kind} {name}\n" for name, kind in _REGISTERED.items())
        )
        os.replace(temp, path)
    except OSError:
        pass  # a missing manifest only weakens the sweep, never a run


def register_resource(kind: str, name: str) -> None:
    """Track a shared resource for crash-safe cleanup.

    Args:
        kind: ``"shm"`` (a named shared-memory block) or ``"file"``
            (a temp-file transport path).
        name: the block name or file path.
    """
    global _OWNER_PID
    if kind not in ("shm", "file"):
        raise ValueError(f"unknown shared resource kind: {kind!r}")
    if _OWNER_PID != os.getpid():
        # First registration in this process (or first after a fork):
        # drop inherited entries, they belong to the parent.
        _REGISTERED.clear()
        _OWNER_PID = os.getpid()
    _REGISTERED[name] = kind
    _install_cleanup_hooks()
    _write_manifest()


def unregister_resource(name: str) -> None:
    """Forget a resource that was cleanly released."""
    if _OWNER_PID != os.getpid():
        return
    if _REGISTERED.pop(name, None) is not None:
        _write_manifest()


def unlink_block(name: str) -> bool:
    """Best-effort unlink of a named shared-memory block."""
    try:
        import _posixshmem

        _posixshmem.shm_unlink("/" + name)
        return True
    except ImportError:  # pragma: no cover - non-POSIX fallback
        from multiprocessing import shared_memory

        try:
            block = shared_memory.SharedMemory(name=name, create=False)
        except (FileNotFoundError, OSError):
            return False
        try:
            block.close()
            block.unlink()
        except OSError:
            return False
        return True
    except FileNotFoundError:
        return False
    except OSError:
        return False


def _release(kind: str, name: str) -> bool:
    if kind == "shm":
        return unlink_block(name)
    try:
        os.unlink(name)
        return True
    except OSError:
        return False


def cleanup_registered() -> None:
    """Unlink every resource this process still has registered.

    Owner-PID guarded: in a fork child (pool worker) this is a no-op,
    because the registered blocks belong to — and are still mapped by —
    the parent. Safe to call repeatedly; runs from ``atexit`` and from
    the chained SIGTERM/SIGINT handlers.
    """
    if _OWNER_PID != os.getpid() or not _REGISTERED:
        return
    for name, kind in tuple(_REGISTERED.items()):
        _release(kind, name)
        _REGISTERED.pop(name, None)
    _write_manifest()


def _handle_signal(signum: int, frame) -> None:
    cleanup_registered()
    previous = _PREVIOUS_HANDLERS.get(signum)
    if previous is signal.SIG_IGN:
        return
    if callable(previous):
        previous(signum, frame)
        return
    # Default disposition: restore it and re-deliver so the process
    # still dies with the right signal status.
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_cleanup_hooks() -> None:
    global _HOOKS_INSTALLED
    if _HOOKS_INSTALLED:
        return
    _HOOKS_INSTALLED = True
    atexit.register(cleanup_registered)
    if threading.current_thread() is not threading.main_thread():
        return  # signal.signal only works from the main thread
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            current = signal.getsignal(signum)
            if current is _handle_signal:
                continue
            _PREVIOUS_HANDLERS[signum] = current
            signal.signal(signum, _handle_signal)
        except (OSError, ValueError):  # pragma: no cover - exotic hosts
            pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return True
    return True


def sweep_stale() -> list[str]:
    """Unlink shared resources left behind by dead processes.

    Scans the manifest directory for per-PID manifests whose owner no
    longer exists and releases every resource they list; additionally
    scans ``/dev/shm`` (when present) for PID-tagged blocks whose
    embedded owner is dead but whose manifest never survived. Returns
    the names of the resources it released. Entirely best-effort: a
    sweep failure never fails the caller.
    """
    swept: list[str] = []
    directory = manifest_dir()
    try:
        manifests = list(directory.glob("*.manifest"))
    except OSError:
        manifests = []
    for path in manifests:
        try:
            pid = int(path.stem)
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            lines = path.read_text().splitlines()
        except OSError:
            lines = []
        for line in lines:
            kind, _, name = line.strip().partition(" ")
            if name and _release(kind, name):
                swept.append(name)
        try:
            path.unlink()
        except OSError:
            pass
    # Manifest-less leftovers: the name itself carries the owner PID.
    dev_shm = pathlib.Path("/dev/shm")
    try:
        orphans = list(dev_shm.glob(f"{SHM_PREFIX}-*-*")) if dev_shm.is_dir() else []
    except OSError:
        orphans = []
    for entry in orphans:
        parts = entry.name.split("-")
        try:
            pid = int(parts[2])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        if unlink_block(entry.name):
            swept.append(entry.name)
    return swept
