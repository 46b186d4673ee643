"""Memory-architecture description: modules, structure mapping, channels.

A :class:`MemoryArchitecture` is what APEX produces and ConEx consumes:
a set of instantiated on-chip memory modules plus the off-chip DRAM,
and a mapping from each application data structure to the module that
serves it. The architecture also derives its *communication channels* —
the arcs of the Bandwidth Requirement Graph — from that mapping
(Figure 2(a) of the paper: CPU↔module channels on-chip, module↔DRAM
channels crossing the chip boundary).
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.channels import CPU, DRAM, Channel
from repro.errors import ConfigurationError
from repro.memory.dram import Dram
from repro.memory.module import MemoryModule
from repro.memory.sram import Sram
from repro.trace.events import Trace



class MemoryArchitecture:
    """A set of memory modules plus the structure→module mapping.

    Args:
        name: architecture label (e.g. ``arch3``).
        modules: on-chip module instances; at most one per name.
        dram: the off-chip DRAM instance.
        mapping: data-structure name → module name. Structures absent
            from the mapping fall back to ``default_module``.
        default_module: module serving unmapped structures — a cache
            name, or ``"dram"`` for the uncached baseline.
    """

    def __init__(
        self,
        name: str,
        modules: Iterable[MemoryModule],
        dram: Dram,
        mapping: Mapping[str, str],
        default_module: str = DRAM,
    ) -> None:
        self.name = name
        self.modules: dict[str, MemoryModule] = {}
        for module in modules:
            if module.name in self.modules:
                raise ConfigurationError(
                    f"duplicate module name '{module.name}' in '{name}'"
                )
            if module.name in (CPU, DRAM):
                raise ConfigurationError(
                    f"module name '{module.name}' is reserved"
                )
            self.modules[module.name] = module
        self.dram = dram
        self.mapping = dict(mapping)
        self.default_module = default_module
        known = set(self.modules) | {DRAM}
        if default_module not in known:
            raise ConfigurationError(
                f"default module '{default_module}' not in architecture '{name}'"
            )
        for struct, target in self.mapping.items():
            if target not in known:
                raise ConfigurationError(
                    f"structure '{struct}' mapped to unknown module '{target}'"
                )

    # -- queries -----------------------------------------------------

    def module_for(self, struct: str) -> str:
        """Name of the module serving accesses to ``struct``."""
        return self.mapping.get(struct, self.default_module)

    def module(self, name: str) -> MemoryModule:
        """Module instance by name (``dram`` returns the DRAM)."""
        if name == DRAM:
            return self.dram
        return self.modules[name]

    @property
    def area_gates(self) -> float:
        """Summed on-chip module area (the Figure 3 cost axis)."""
        return sum(m.area_gates for m in self.modules.values())

    def served_modules(self, trace: Trace) -> list[str]:
        """On-chip modules actually serving ``trace``, plus ``dram``
        when some structure bypasses all of them."""
        targets = {self.module_for(struct) for struct in trace.structs}
        ordered = [name for name in self.modules if name in targets]
        if DRAM in targets:
            ordered.append(DRAM)
        return ordered

    def channels(self, trace: Trace) -> list[Channel]:
        """The BRG arcs of this architecture under ``trace``.

        CPU↔module for every serving module; module↔DRAM for every
        on-chip module with backing traffic (everything except SRAMs,
        which hold their structures entirely); CPU↔DRAM when some
        structure is uncached.
        """
        result: list[Channel] = []
        for target in self.served_modules(trace):
            result.append(Channel(CPU, target))
            if target != DRAM and not isinstance(self.modules[target], Sram):
                result.append(Channel(target, DRAM))
        return result

    def validate(self, trace: Trace) -> None:
        """Check the mapping against the trace's structures.

        SRAM-mapped structures must fit their module (APEX only maps a
        structure on-chip when its footprint fits).
        """
        for struct in self.mapping:
            if struct not in trace.structs:
                raise ConfigurationError(
                    f"mapping mentions '{struct}' absent from trace '{trace.name}'"
                )
        demand: dict[str, int] = {}
        for struct in trace.structs:
            footprint = trace.footprint(struct)
            target = self.module_for(struct)
            if target != DRAM and isinstance(self.modules[target], Sram):
                demand[target] = demand.get(target, 0) + footprint
        for name, needed in demand.items():
            sram = self.modules[name]
            assert isinstance(sram, Sram)
            if needed > sram.capacity:
                raise ConfigurationError(
                    f"SRAM '{name}' of {sram.capacity} B cannot hold "
                    f"{needed} B of mapped structures"
                )

    def reset(self) -> None:
        """Reset all module state for a fresh simulation."""
        for module in self.modules.values():
            module.reset()
        self.dram.reset()

    def signature(self) -> tuple:
        """Content signature of the architecture (cache key component).

        Built from every module's configuration, the DRAM, the
        structure mapping, and the default module — deliberately *not*
        the architecture name, so two identically-configured candidates
        enumerated under different labels share simulation results in
        the :mod:`repro.exec` cache.
        """
        return (
            tuple(
                self.modules[name].config_signature()
                for name in sorted(self.modules)
            ),
            self.dram.config_signature(),
            tuple(sorted(self.mapping.items())),
            self.default_module,
        )

    def describe(self) -> str:
        """Multi-line human description used in reports."""
        lines = [f"{self.name}: {len(self.modules)} on-chip modules"]
        for module in self.modules.values():
            structs = sorted(
                s for s, t in self.mapping.items() if t == module.name
            )
            suffix = f" <- {', '.join(structs)}" if structs else ""
            lines.append(f"  {module.describe()}{suffix}")
        lines.append(f"  default -> {self.default_module}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<MemoryArchitecture {self.name} ({len(self.modules)} modules)>"
