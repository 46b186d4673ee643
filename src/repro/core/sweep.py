"""Parameter sweeps: one-factor series over architectures.

The figure benchmarks regenerate the paper's specific plots; designers
also want ad-hoc one-dimensional sweeps ("latency vs cache size at
fixed connectivity", "cost vs CPU-bus choice"). This module runs such
sweeps with everything else held constant and returns plain (x, result)
series ready for tabulation or plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.apex.architectures import MemoryArchitecture
from repro.channels import Channel
from repro.connectivity.architecture import (
    ConnectivityArchitecture,
    build_cluster,
)
from repro.connectivity.library import ConnectivityLibrary
from repro.errors import ExplorationError
from repro.exec.cache import SimulationCache
from repro.exec.engine import SimulationJob, simulate_batch
from repro.memory.library import MemoryLibrary
from repro.sim.metrics import SimulationResult
from repro.trace.events import Trace


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the varied setting and its simulation."""

    setting: str
    result: SimulationResult


def _default_connectivity(
    memory: MemoryArchitecture,
    trace: Trace,
    library: ConnectivityLibrary,
    cpu_preset: str,
    offchip_preset: str,
) -> ConnectivityArchitecture:
    channels = memory.channels(trace)
    on_chip = [c for c in channels if not c.crosses_chip]
    crossing = [c for c in channels if c.crosses_chip]
    clusters = []
    if on_chip:
        preset = library.get(cpu_preset)
        clusters.append(
            build_cluster(on_chip, cpu_preset, preset.instantiate())
        )
    if crossing:
        preset = library.get(offchip_preset)
        clusters.append(
            build_cluster(crossing, offchip_preset, preset.instantiate())
        )
    return ConnectivityArchitecture(
        f"{cpu_preset}+{offchip_preset}", clusters
    )


def _run_sweep(
    trace: Trace,
    settings: Sequence[str],
    jobs: Sequence[SimulationJob],
    workers: int | None,
    cache: SimulationCache | None,
    backend: "ExecutionRuntime | str | None" = None,
) -> list[SweepPoint]:
    """Dispatch one sweep's job list and pair results with settings."""
    with obs.span("sweep.run"):
        report = simulate_batch(
            trace, jobs, workers=workers, cache=cache, backend=backend,
        )
    if obs.enabled():
        obs.incr("sweep.points", len(jobs))
    return [
        SweepPoint(setting=setting, result=result)
        for setting, result in zip(settings, report.results)
    ]


def sweep_cache_size(
    trace: Trace,
    memory_library: MemoryLibrary,
    connectivity_library: ConnectivityLibrary,
    cache_presets: Sequence[str],
    cpu_preset: str = "ahb",
    offchip_preset: str = "offchip_16",
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionRuntime | str | None" = None,
) -> list[SweepPoint]:
    """Simulate cache-only architectures across ``cache_presets``.

    Everything else — structure mapping (all to the cache), CPU-side
    bus, off-chip bus — is held constant, so the series isolates the
    capacity effect.
    """
    if not cache_presets:
        raise ExplorationError("no cache presets to sweep")
    jobs: list[SimulationJob] = []
    for preset_name in cache_presets:
        module = memory_library.get(preset_name).instantiate("cache")
        dram = memory_library.get("dram").instantiate()
        memory = MemoryArchitecture(
            f"sweep_{preset_name}", [module], dram, {}, "cache"
        )
        connectivity = _default_connectivity(
            memory, trace, connectivity_library, cpu_preset, offchip_preset
        )
        jobs.append(SimulationJob(memory=memory, connectivity=connectivity))
    return _run_sweep(
        trace, list(cache_presets), jobs, workers, cache, backend=backend
    )


def sweep_cpu_bus(
    trace: Trace,
    memory: MemoryArchitecture,
    connectivity_library: ConnectivityLibrary,
    cpu_presets: Sequence[str],
    offchip_preset: str = "offchip_16",
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionRuntime | str | None" = None,
) -> list[SweepPoint]:
    """Simulate ``memory`` under each CPU-side connection preset.

    The memory architecture and the off-chip bus stay fixed; the series
    isolates the CPU-side connectivity effect — the heart of the
    paper's argument that connectivity choice rivals module choice.
    """
    if not cpu_presets:
        raise ExplorationError("no connection presets to sweep")
    jobs = [
        SimulationJob(
            memory=memory,
            connectivity=_default_connectivity(
                memory, trace, connectivity_library, preset_name,
                offchip_preset,
            ),
        )
        for preset_name in cpu_presets
    ]
    return _run_sweep(
        trace, list(cpu_presets), jobs, workers, cache, backend=backend
    )


def sweep_offchip_bus(
    trace: Trace,
    memory: MemoryArchitecture,
    connectivity_library: ConnectivityLibrary,
    offchip_presets: Sequence[str],
    cpu_preset: str = "ahb",
    workers: int | None = None,
    cache: SimulationCache | None = None,
    backend: "ExecutionRuntime | str | None" = None,
) -> list[SweepPoint]:
    """Simulate ``memory`` under each off-chip bus preset."""
    if not offchip_presets:
        raise ExplorationError("no off-chip presets to sweep")
    jobs = [
        SimulationJob(
            memory=memory,
            connectivity=_default_connectivity(
                memory, trace, connectivity_library, cpu_preset, preset_name
            ),
        )
        for preset_name in offchip_presets
    ]
    return _run_sweep(
        trace, list(offchip_presets), jobs, workers, cache, backend=backend
    )


def series(
    points: Sequence[SweepPoint], metric: str
) -> list[tuple[str, float]]:
    """Extract (setting, metric) pairs from sweep points.

    ``metric`` is any numeric attribute of :class:`SimulationResult`
    (``avg_latency``, ``avg_energy_nj``, ``cost_gates``,
    ``miss_ratio``, ``total_cycles``).
    """
    if not points:
        raise ExplorationError("empty sweep")
    values = []
    for point in points:
        value = getattr(point.result, metric, None)
        if not isinstance(value, (int, float)):
            raise ExplorationError(
                f"'{metric}' is not a numeric SimulationResult attribute"
            )
        values.append((point.setting, float(value)))
    return values
