"""Start-up guard: a serial exploration loads no optional heavy stack.

``import repro`` and a one-worker :func:`repro.run_memorex` must not
load networkx (used only by
:meth:`~repro.conex.brg.BandwidthRequirementGraph.to_networkx`) or the
process-pool stack (``concurrent.futures.process`` and, through it,
``multiprocessing``), which only a runtime that builds its pool needs.
``import repro.cli`` must not load the service daemon's HTTP stack
(``http.server``), which only ``repro serve`` and the client commands
use. Each costs every CLI run start-up time and resident memory
(``benchmarks/out/BENCH_startup.json``).

The check runs in a fresh interpreter: this test process has long
since imported both through other tests.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

HEAVY_MODULES = ("networkx", "multiprocessing", "concurrent.futures.process")

_SCRIPT = f"""
import json, sys
from repro import run_memorex
from repro.workloads import get_workload

result = run_memorex(get_workload("dct", scale=0.02), workers=1)
loaded = [name for name in {HEAVY_MODULES!r} if name in sys.modules]
brg = next(iter(result.conex.brgs.values()))
graph = brg.to_networkx()
print(json.dumps({{
    "loaded": loaded,
    "edges": graph.number_of_edges(),
    "arcs": len(brg.channels),
    "networkx_after_export": "networkx" in sys.modules,
}}))
"""


def _fresh_report(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    probe = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    return json.loads(probe.stdout.strip().splitlines()[-1])


def test_serial_run_loads_neither_networkx_nor_the_pool_stack():
    report = _fresh_report(_SCRIPT)
    assert report["loaded"] == []
    # The export still works, and it is what loads networkx.
    assert report["edges"] == report["arcs"] > 0
    assert report["networkx_after_export"]


def test_cli_import_loads_no_http_stack():
    report = _fresh_report(
        "import json, sys\n"
        "import repro.cli\n"
        "names = ('http.server', 'repro.service')\n"
        "print(json.dumps({'loaded': [n for n in names if n in sys.modules]}))\n"
    )
    assert report["loaded"] == []
