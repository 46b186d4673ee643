"""Tests for the component registry and the redesigned library API.

PR 10 unifies component lookup: module families and connectivity
families register under stable string names, library *pairs* register
in :mod:`repro.registry`, and every entry point (``run_memorex``, the
service, the CLI, ``mixed_architecture``) resolves those names through
one path. Unknown names raise :class:`UnknownPresetError` — still a
``KeyError`` for old callers — and ``run_memorex`` rejects library
*objects* with a :class:`ConfigurationError` naming the registration
call to use instead.
"""

from __future__ import annotations

import pytest

from repro import registry
from repro.connectivity.library import (
    component_families,
    component_family,
    default_connectivity_library,
    register_component_family,
)
from repro.connectivity.mesh import MeshConnection
from repro.core.memorex import run_memorex
from repro.errors import (
    ConfigurationError,
    LibraryError,
    ServiceError,
    UnknownPresetError,
)
from repro.memory.library import (
    default_memory_library,
    mixed_architecture,
    module_type,
    module_types,
    register_module_type,
)
from repro.memory.sram import Sram
from repro.service.schemas import parse_job_spec, spec_payload
from repro.workloads import get_workload


class TestUnknownPresetError:
    def test_is_keyerror_and_libraryerror(self):
        err = UnknownPresetError("no preset 'x'")
        assert isinstance(err, KeyError)
        assert isinstance(err, LibraryError)
        # KeyError.__str__ would repr the message; ours must not.
        assert str(err) == "no preset 'x'"

    def test_memory_library_get_names_unknown_and_known(self):
        library = default_memory_library()
        with pytest.raises(UnknownPresetError) as excinfo:
            library.get("cache_9000k")
        message = str(excinfo.value)
        assert "cache_9000k" in message
        assert "cache_8k_32b_2w" in message  # lists what *is* available

    def test_connectivity_library_get_names_unknown_and_known(self):
        library = default_connectivity_library()
        with pytest.raises(UnknownPresetError) as excinfo:
            library.get("hyperbus")
        message = str(excinfo.value)
        assert "hyperbus" in message
        assert "mesh_2x2" in message

    def test_old_style_keyerror_handlers_still_catch(self):
        library = default_memory_library()
        with pytest.raises(KeyError):
            library.get("nope")

    def test_family_lookups(self):
        with pytest.raises(UnknownPresetError):
            module_type("flux_capacitor")
        with pytest.raises(UnknownPresetError):
            component_family("wormhole")


class TestFamilyRegistries:
    def test_builtin_families_present(self):
        module_names = {entry.name for entry in module_types()}
        assert {
            "cache",
            "sram",
            "multiport_sram",
            "dram",
            "multichannel_dram",
        } <= module_names
        family_names = {entry.name for entry in component_families()}
        assert {"ahb", "mux", "dedicated", "mesh", "offchip"} <= family_names

    def test_registration_is_idempotent_but_conflicts_raise(self):
        entry = module_type("sram")
        again = register_module_type("sram", Sram, lambda: Sram("s", 1024))
        assert again is entry
        with pytest.raises(LibraryError):
            register_module_type("sram", MeshConnection, MeshConnection)
        family = component_family("mesh")
        assert (
            register_component_family(
                "mesh", MeshConnection, lambda: MeshConnection("m")
            )
            is family
        )
        with pytest.raises(LibraryError):
            register_component_family("mesh", Sram, lambda: Sram("s", 1024))

    def test_off_chip_capability_recorded(self):
        assert component_family("offchip").off_chip_capable
        assert not component_family("mesh").off_chip_capable


class TestRegistry:
    def test_default_pair_registered(self):
        assert "default" in registry.library_names()
        assert "default" in registry.memory_library_names()
        assert "default" in registry.connectivity_library_names()
        memory = registry.memory_library("default")
        assert "mcdram_2ch" in memory
        connectivity = registry.connectivity_library("default")
        assert "mesh_2x2" in connectivity

    def test_none_means_default(self):
        assert registry.memory_library(None).names() == (
            registry.memory_library("default").names()
        )

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(UnknownPresetError) as excinfo:
            registry.memory_library("sparta")
        assert "sparta" in str(excinfo.value)
        assert "default" in str(excinfo.value)
        with pytest.raises(UnknownPresetError):
            registry.connectivity_library("sparta")

    def test_custom_pair_registration(self):
        name = "tiny-test-pair"

        def memory_builder():
            library = default_memory_library()
            return library

        registry.register_memory_library(name, memory_builder)
        # Only one side registered: not a usable pair yet.
        assert name not in registry.library_names()
        assert name in registry.memory_library_names()
        registry.register_connectivity_library(
            name, default_connectivity_library
        )
        assert name in registry.library_names()
        assert "mcdram_4ch" in registry.memory_library(name)
        # Idempotent for the same builder, conflict for a different one.
        registry.register_memory_library(name, memory_builder)
        with pytest.raises(LibraryError):
            registry.register_memory_library(name, default_memory_library)


class TestEntryPoints:
    def test_mixed_architecture_accepts_registry_name(self):
        trace = get_workload("synthetic", scale=0.05).trace()
        by_name = mixed_architecture(trace, "default")
        by_object = mixed_architecture(trace, default_memory_library())
        assert by_name.signature() == by_object.signature()

    def test_run_memorex_rejects_pair_plus_per_side(self):
        workload = get_workload("synthetic", scale=0.05)
        with pytest.raises(ConfigurationError):
            run_memorex(
                workload, library="default", memory_library="default"
            )

    def test_run_memorex_string_libraries_no_warning(self, recwarn):
        workload = get_workload("synthetic", scale=0.05)
        result = run_memorex(
            workload,
            memory_library="default",
            connectivity_library="default",
        )
        assert result.selected_points
        assert not [
            w for w in recwarn if w.category is DeprecationWarning
        ]

    @pytest.mark.parametrize(
        "side, build",
        [
            ("memory", default_memory_library),
            ("connectivity", default_connectivity_library),
        ],
        ids=["memory", "connectivity"],
    )
    def test_run_memorex_rejects_library_objects(self, side, build):
        workload = get_workload("synthetic", scale=0.05)
        with pytest.raises(
            ConfigurationError, match=f"register_{side}_library"
        ):
            run_memorex(workload, **{f"{side}_library": build()})

    def test_job_spec_library_field(self):
        spec = parse_job_spec(
            {"kind": "apex", "workload": "spmv", "library": "default"}
        )
        assert spec.library == "default"
        assert spec_payload(spec)["library"] == "default"
        roundtrip = parse_job_spec(spec_payload(spec))
        assert roundtrip == spec

    def test_job_spec_rejects_unknown_library(self):
        with pytest.raises(ServiceError, match="atlantis"):
            parse_job_spec(
                {"workload": "synthetic", "library": "atlantis"}
            )
