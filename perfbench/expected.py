"""Regenerate ``expected.json``: the result digest of every pool input.

Run from the root of a checkout::

    python3 perfbench/expected.py [SECTION ...]

With section names (``cold-compress``, ``warm-spmv``, ``service-hit``,
``service-miss``) only those are recomputed.

Every digest is computed in this one process with the serial backend:
``run_memorex`` for the in-process workloads, and the service's own
job runner for service-repeat, so a daemon running the same spec on
its worker pool must reproduce the serial digest exactly. Only a
change meant to alter exploration results should change this file.
"""

from __future__ import annotations

import json
import sys

import common
from inproc import explore


def apex_job_digest(spec: dict) -> str:
    from repro.service.jobs import DONE, Job, JobStore
    from repro.service.runner import TenantCaches, execute_job
    from repro.service.schemas import parse_job_spec

    job = Job(parse_job_spec(dict(spec, backend="serial", workers=1)))
    execute_job(job, JobStore(), TenantCaches())
    if job.state != DONE:
        raise RuntimeError(f"{spec}: {job.state} {job.error}")
    return common.digest(common.apex_rows(job.result))


def main() -> None:
    sys.path.insert(0, str(common.source_root()))
    from repro.exec.cache import SimulationCache
    from repro.sim.batch import clear_plan_registry

    sections = sys.argv[1:] or list(common.INPUT_POOLS)
    expected = common.load_expected() if common.EXPECTED_PATH.exists() else {}
    for section in sections:
        expected[section] = {}
        for seed in common.INPUT_POOLS[section]:
            if section.startswith("service-"):
                kind = section.removeprefix("service-")
                spec = common.HIT_SPEC if kind == "hit" else common.MISS_SPEC
                value = apex_job_digest(dict(spec, seed=seed))
            else:
                clear_plan_registry()
                result = explore(section, seed, SimulationCache())
                value = common.digest(common.memorex_rows(result))
            expected[section][str(seed)] = value
            print(section, seed, value, flush=True)
    with open(common.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
