"""Persistence: save/load traces and export exploration results.

Traces serialize to compressed ``.npz`` (columnar, exact round-trip);
design-point sets export to CSV or JSON for downstream analysis. These
are the interchange points a downstream user needs: generate a trace
once and explore many times, or feed the pareto set into an external
plotting/optimization flow.
"""

from __future__ import annotations

import csv
import json
import pathlib
import zipfile
import zlib
from typing import Iterable, Sequence

import numpy as np

from repro.conex.explorer import ConnectivityDesignPoint
from repro.core.design_point import DesignPointSummary, summarize
from repro.errors import TraceError
from repro.trace.events import Trace

#: Version 2 added the ``fingerprint`` column (content hash, verified
#: on load). Version-1 files — without it — still load fine.
_TRACE_FORMAT_VERSION = 2


def _open_npz(path: pathlib.Path) -> np.lib.npyio.NpzFile:
    """Open a trace archive, or raise :class:`TraceError` if it is none.

    ``np.load`` reports a file that is not an ``.npz`` archive as a raw
    ``ValueError`` (text, pickled data), ``EOFError`` (empty) or
    ``BadZipFile``, and a bare ``.npy`` loads as an array.
    """
    if not path.exists():
        raise TraceError(f"no trace file at {path}")
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as error:
        raise TraceError(f"{path} is not a trace file: {error}") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise TraceError(f"{path} is not a trace file (not an .npz archive)")
    return data


def trace_fingerprint(path: str | pathlib.Path) -> str:
    """The fingerprint stored in a saved trace file, without loading it.

    Lets cache-management tooling match on-disk traces against
    :mod:`repro.exec` cache keys cheaply. Version-1 files predate the
    stored fingerprint and raise :class:`TraceError`.
    """
    path = pathlib.Path(path)
    with _open_npz(path) as data:
        if "fingerprint" not in data:
            raise TraceError(
                f"{path} predates stored fingerprints (format version 1); "
                "load it and call Trace.fingerprint()"
            )
        return str(data["fingerprint"])


def save_trace(trace: Trace, path: str | pathlib.Path) -> None:
    """Write ``trace`` to a compressed ``.npz`` file.

    The trace's content fingerprint is stored alongside the columns so
    identity survives the round-trip: a reloaded trace hits the same
    :mod:`repro.exec` cache entries as the original.
    """
    np.savez_compressed(
        pathlib.Path(path),
        version=np.int64(_TRACE_FORMAT_VERSION),
        name=np.str_(trace.name),
        fingerprint=np.str_(trace.fingerprint()),
        addresses=trace.addresses,
        sizes=trace.sizes,
        kinds=trace.kinds,
        struct_ids=trace.struct_ids,
        ticks=trace.ticks,
        structs=np.array(trace.structs, dtype=np.str_),
    )


def load_trace(path: str | pathlib.Path) -> Trace:
    """Load a trace previously written by :func:`save_trace`.

    If the file carries a stored fingerprint (format version 2), the
    reloaded trace is re-hashed and verified against it, so corruption
    cannot silently poison fingerprint-keyed caches.
    """
    path = pathlib.Path(path)
    with _open_npz(path) as data:
        try:
            version = int(data["version"])
            if version not in (1, _TRACE_FORMAT_VERSION):
                raise TraceError(
                    f"unsupported trace format version {version} in {path}"
                )
            trace = Trace(
                name=str(data["name"]),
                addresses=data["addresses"].astype(np.int64),
                sizes=data["sizes"].astype(np.int32),
                kinds=data["kinds"].astype(np.int8),
                struct_ids=data["struct_ids"].astype(np.int32),
                ticks=data["ticks"].astype(np.int64),
                structs=tuple(str(s) for s in data["structs"]),
            )
            if "fingerprint" in data:
                stored = str(data["fingerprint"])
                if trace.fingerprint() != stored:
                    raise TraceError(
                        f"fingerprint mismatch in {path}: stored {stored}, "
                        f"recomputed {trace.fingerprint()}"
                    )
            return trace
        except KeyError as missing:
            raise TraceError(
                f"{path} is not a trace file (missing column {missing})"
            ) from None
        except (
            TypeError, ValueError, EOFError, zipfile.BadZipFile, zlib.error
        ) as error:
            raise TraceError(
                f"{path} is not a trace file (unreadable column: {error})"
            ) from None


def _rows(summaries: Iterable[DesignPointSummary]) -> list[dict]:
    return [
        {
            "label": s.label,
            "cost_gates": s.cost_gates,
            "avg_latency_cycles": s.avg_latency,
            "avg_energy_nj": s.avg_energy_nj,
            "miss_ratio": s.miss_ratio,
            "memory_modules": list(s.memory_modules),
            "connections": list(s.connections),
        }
        for s in summaries
    ]


def export_design_points_json(
    points: Sequence[ConnectivityDesignPoint],
    path: str | pathlib.Path,
) -> None:
    """Export simulated design points to a JSON file."""
    summaries = [summarize(p) for p in points]
    payload = {"design_points": _rows(summaries)}
    pathlib.Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def export_design_points_csv(
    points: Sequence[ConnectivityDesignPoint],
    path: str | pathlib.Path,
) -> None:
    """Export simulated design points to a CSV file.

    List-valued fields (module/connection inventories) are joined with
    ``" | "`` so each design stays one row.
    """
    summaries = [summarize(p) for p in points]
    with open(pathlib.Path(path), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "label",
                "cost_gates",
                "avg_latency_cycles",
                "avg_energy_nj",
                "miss_ratio",
                "memory_modules",
                "connections",
            ]
        )
        for row in _rows(summaries):
            writer.writerow(
                [
                    row["label"],
                    f"{row['cost_gates']:.1f}",
                    f"{row['avg_latency_cycles']:.4f}",
                    f"{row['avg_energy_nj']:.4f}",
                    f"{row['miss_ratio']:.5f}",
                    " | ".join(row["memory_modules"]),
                    " | ".join(row["connections"]),
                ]
            )
