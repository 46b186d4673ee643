"""Start-up guard: a serial exploration loads no optional heavy stack.

``import repro`` and a one-worker :func:`repro.run_memorex` must not
load networkx (used only by
:meth:`~repro.conex.brg.BandwidthRequirementGraph.to_networkx`) or the
process-pool stack (``concurrent.futures.process`` and, through it,
``multiprocessing``), which only a runtime that builds its pool needs.
Each costs every CLI run start-up time and resident memory
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


def test_serial_run_loads_neither_networkx_nor_the_pool_stack():
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    probe = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    report = json.loads(probe.stdout.strip().splitlines()[-1])
    assert report["loaded"] == []
    # The export still works, and it is what loads networkx.
    assert report["edges"] == report["arcs"] > 0
    assert report["networkx_after_export"]
