"""Benchmark harness configuration.

Each benchmark runs its pipeline exactly once (rounds=1) — these are
table/figure regenerations, not micro-benchmarks — and prints the
rendered artifact, which is also written under ``benchmarks/out/``
(``benchmarks/out/smoke/`` under ``REPRO_BENCH_SMOKE=1``).

``pytest benchmarks/ --jobs N`` forwards N into the ``REPRO_WORKERS``
environment variable, so every exploration stage dispatches its
simulation batches over N worker processes (see docs/performance.md).
"""

import os
import sys
import pathlib

# Allow `from common import ...` / `import common` in benchmark modules.
sys.path.insert(0, str(pathlib.Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for simulation batches (sets REPRO_WORKERS)",
    )


def pytest_configure(config):
    jobs = config.getoption("--jobs", default=None)
    if jobs:
        os.environ["REPRO_WORKERS"] = str(jobs)
