"""ConEx — Memory System Connectivity Exploration.

A reproduction of Grun, Dutt, Nicolau, *"Memory System Connectivity
Exploration"* (DATE 2002): design-space exploration of embedded memory
and connectivity architectures trading off cost, performance, and
energy.

Quickstart::

    from repro import run_memorex
    from repro.workloads import get_workload

    result = run_memorex(get_workload("compress", scale=0.25))
    for point in result.selected_points:
        print(point.simulation.summary())

Package layout:

* :mod:`repro.trace` — tagged memory traces, pattern classification,
  bandwidth profiling (the SHADE stand-in).
* :mod:`repro.workloads` — instrumented compress / li / vocoder /
  synthetic applications.
* :mod:`repro.memory` — memory-module IP library (caches, SRAMs,
  stream buffers, self-indirect DMAs, DRAM) with area/energy models.
* :mod:`repro.connectivity` — connectivity IP library (AMBA AHB / ASB
  / APB, MUX-based, dedicated, off-chip buses) with wire models.
* :mod:`repro.timing` — RTGEN-style reservation tables.
* :mod:`repro.sim` — cycle-approximate trace-driven simulator (the
  SIMPRESS stand-in), full and time-sampled.
* :mod:`repro.apex` — APEX memory-modules exploration.
* :mod:`repro.conex` — ConEx connectivity exploration (the paper's
  contribution).
* :mod:`repro.core` — the MemorEx pipeline, exploration strategies,
  and report rendering.
* :mod:`repro.exec` — batch evaluation (``simulate_batch``) through
  pluggable execution backends, and the content-addressed simulation
  result cache.
* :mod:`repro.config` — the typed :class:`Settings` snapshot of every
  ``REPRO_*`` environment variable.
* :mod:`repro.obs` — spans, counters, gauges, and profiling hooks
  (``--metrics-json`` / ``REPRO_OBS=1``).
"""

from repro import obs, registry
from repro.channels import CPU, DRAM, Channel
from repro.config import (
    Settings,
    current_settings,
    set_settings,
    use_settings,
)
from repro.core.memorex import MemorExConfig, MemorExResult, run_memorex
from repro.errors import (
    ConfigurationError,
    ExplorationError,
    LibraryError,
    ReproError,
    SimulationError,
    TraceError,
    UnknownPresetError,
)
from repro.stats import BatchStats, StatsReport

__version__ = "1.1.0"

__all__ = [
    "CPU",
    "BatchStats",
    "Channel",
    "ConfigurationError",
    "DRAM",
    "ExplorationError",
    "LibraryError",
    "MemorExConfig",
    "MemorExResult",
    "ReproError",
    "Settings",
    "SimulationError",
    "StatsReport",
    "TraceError",
    "UnknownPresetError",
    "__version__",
    "current_settings",
    "obs",
    "registry",
    "run_memorex",
    "set_settings",
    "use_settings",
]
