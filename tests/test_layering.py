"""Static layering guards between packages.

``repro.exec`` is the execution layer under the ConEx algorithm: it
runs the simulation batches of :mod:`repro.conex` and must not import
it. Phase-I estimates are computed in :mod:`repro.conex` itself, in
process, so nothing in ``repro.exec`` needs it. The check reads import
statements from the source (including deferred, function-level and
``TYPE_CHECKING`` imports) without importing it.
"""

import ast
import pathlib

import pytest

import repro

EXEC_DIR = pathlib.Path(repro.__file__).parent / "exec"


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
