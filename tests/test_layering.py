"""Static layering guards between packages.

``repro.exec`` is the execution layer under the ConEx algorithm: it
runs the simulation batches of :mod:`repro.conex` and must not import
it. Phase-I estimates are computed in :mod:`repro.conex` itself, in
process, so nothing in ``repro.exec`` needs it.

The driver layer (:mod:`repro.apex`, :mod:`repro.conex`,
:mod:`repro.core`) in turn takes one execution handle, ``backend=``,
and never sees an :class:`~repro.exec.runtime.ExecutionRuntime`: only
the entry points that own a runtime's lifetime (the CLI and the
service) import :mod:`repro.exec.runtime`, and hand it down as
``PoolBackend(runtime)``.

The checks read import statements from the source (including
deferred, function-level and ``TYPE_CHECKING`` imports) without
importing it.
"""

import ast
import pathlib

import pytest

import repro

PACKAGE_DIR = pathlib.Path(repro.__file__).parent
EXEC_DIR = PACKAGE_DIR / "exec"
DRIVER_MODULES = sorted(
    path
    for package in ("apex", "conex", "core")
    for path in (PACKAGE_DIR / package).glob("*.py")
)


def _imported_modules(path: pathlib.Path) -> list[tuple[int, str]]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.append((node.lineno, node.module))
            found.extend(
                (node.lineno, f"{node.module}.{alias.name}")
                for alias in node.names
            )
    return found


@pytest.mark.parametrize(
    "path",
    sorted(EXEC_DIR.glob("*.py")),
    ids=lambda path: path.name,
)
def test_exec_does_not_import_conex(path):
    offending = [
        f"{path.name}:{line}: {module}"
        for line, module in _imported_modules(path)
        if module == "repro.conex" or module.startswith("repro.conex.")
    ]
    assert not offending, offending


def test_exec_package_is_scanned():
    names = {path.name for path in EXEC_DIR.glob("*.py")}
    assert {"backend.py", "engine.py", "runtime.py", "worker.py"} <= names


@pytest.mark.parametrize(
    "path",
    DRIVER_MODULES,
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_drivers_do_not_import_the_runtime(path):
    offending = [
        f"{path.parent.name}/{path.name}:{line}: {module}"
        for line, module in _imported_modules(path)
        if module == "repro.exec.runtime"
        or module.startswith("repro.exec.runtime.")
    ]
    assert not offending, offending


def test_driver_packages_are_scanned():
    names = {f"{path.parent.name}/{path.name}" for path in DRIVER_MODULES}
    assert {
        "apex/explorer.py",
        "conex/explorer.py",
        "core/memorex.py",
        "core/strategies.py",
        "core/sweep.py",
    } <= names
