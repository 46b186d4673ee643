"""perf9 — group plans: an empty module-outcome memo against a shared one.

Every candidate's modules run through the trace plan's memo of module
outcomes (:meth:`repro.sim.batch.TracePlan.module_outcome`), keyed by
``(config_signature(), served struct ids)``: a module runs over the
structures routed to it unless an earlier candidate over the same
trace plan already ran an equally configured module on the same
structures. Every memory layout reads it: each APEX ideal-connectivity
candidate's own :class:`~repro.sim.batch.GroupPlan`, and each Phase II
group's shared one (:meth:`repro.sim.batch.TracePlan.group_plan`).

This benchmark captures the dispatch units of one cold compress
exploration (scale 0.05, input 0, empty result cache: one unit of the
240 APEX candidates and one per Phase II memory signature, 6 in all)
and evaluates them twice:

* **fresh** — each unit on a new :class:`~repro.sim.batch.TracePlan`,
  so no unit sees another's outcomes (within the ideal unit its
  candidates still share them);
* **shared** — every unit on one trace plan, as an exploration does.

It asserts the two give identical results and that the shared memo
runs strictly fewer modules than the empty one (a deterministic count,
so smoke runs assert it too). It also records the seconds spent
building priced group plans (the ``sim.batch.build_group_plan`` span,
which only the Phase II groups open), the evaluation seconds, the
units, and the memo's outcome hits; full runs take the best of
:data:`REPEATS` (``REPRO_BENCH_SMOKE=1``: one). The timings are not
gated: the span covers only a few milliseconds of builds, too short to
clear the host's run-to-run drift. The record lands in
``benchmarks/out/BENCH_group_plan.json``.
"""

import time

import common
from common import SMOKE
import repro.sim.batch as sim_batch
from repro import obs, run_memorex
from repro.exec.cache import SimulationCache
from repro.workloads import get_workload

REPEATS = 1 if SMOKE else 3

WORKLOAD, SCALE, INPUT = "compress", 0.05, 0


def captured_groups() -> list[tuple]:
    """``(trace, jobs)`` of every unit one cold exploration evaluates."""
    groups = []
    original = sim_batch.evaluate_group

    def recording(trace, jobs, plan=None):
        jobs = list(jobs)
        groups.append((trace, jobs))
        return original(trace, jobs, plan)

    sim_batch.evaluate_group = recording
    try:
        run_memorex(
            get_workload(WORKLOAD, scale=SCALE, seed=INPUT),
            workers=1,
            cache=SimulationCache(),
        )
    finally:
        sim_batch.evaluate_group = original
    return groups


def evaluate(groups, shared: bool) -> tuple[float, float, dict, list]:
    """``(build_s, eval_s, counters, results)`` of one pass over ``groups``."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    plans: dict = {}
    results = []
    try:
        start = time.perf_counter()
        for trace, jobs in groups:
            plan = plans.get(trace.fingerprint()) if shared else None
            if plan is None:
                plan = plans[trace.fingerprint()] = sim_batch.TracePlan(trace)
            results.append(sim_batch.evaluate_group(trace, jobs, plan)[0])
        eval_seconds = time.perf_counter() - start
        snapshot = obs.snapshot()
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()
    build_seconds = sum(
        wall
        for path, (_, wall, _) in snapshot.spans.items()
        if path.rsplit("/", 1)[-1] == "sim.batch.build_group_plan"
    )
    counters = {
        name: int(snapshot.counters.get(f"sim.batch.{name}", 0))
        for name in ("groups", "module_outcome_builds", "module_outcome_hits")
    }
    return build_seconds, eval_seconds, counters, results


def _best(groups, shared: bool):
    best = None
    for _ in range(REPEATS):
        run = evaluate(groups, shared)
        if best is None or run[0] < best[0]:
            best = run
    return best


def regenerate() -> str:
    groups = captured_groups()
    fresh = _best(groups, shared=False)
    shared = _best(groups, shared=True)
    assert shared[3] == fresh[3], "shared memo changed a result"
    fields = {
        "workload": WORKLOAD,
        "scale": SCALE,
        "input": INPUT,
        "groups": len(groups),
        "members": sum(len(jobs) for _, jobs in groups),
        "fresh_build_seconds": round(fresh[0], 4),
        "shared_build_seconds": round(shared[0], 4),
        "build_speedup": round(fresh[0] / shared[0], 2)
        if shared[0] > 0
        else None,
        "fresh_eval_seconds": round(fresh[1], 4),
        "shared_eval_seconds": round(shared[1], 4),
        "fresh_outcome_builds": fresh[2]["module_outcome_builds"],
        "shared_outcome_builds": shared[2]["module_outcome_builds"],
        "shared_outcome_hits": shared[2]["module_outcome_hits"],
        "memo_limit": sim_batch._MODULE_OUTCOME_LIMIT,
        "repeats": REPEATS,
        "smoke": SMOKE,
    }
    assert fresh[2]["groups"] == shared[2]["groups"] == len(groups)
    r = regenerate.record = common.record_group_plan_timing(
        f"{WORKLOAD}_cold_op", **fields
    )
    return "\n".join(
        [
            "group plans: empty module-outcome memo vs shared memo",
            f"  {r['name']}: {r['groups']} groups, {r['members']} members",
            f"  fresh : build {r['fresh_build_seconds']:.4f}s, "
            f"evaluate {r['fresh_eval_seconds']:.4f}s, "
            f"{r['fresh_outcome_builds']} module runs",
            f"  shared: build {r['shared_build_seconds']:.4f}s, "
            f"evaluate {r['shared_eval_seconds']:.4f}s, "
            f"{r['shared_outcome_builds']} module runs, "
            f"{r['shared_outcome_hits']} memo hits",
            f"  build speedup {r['build_speedup']}x, identical results",
        ]
    )


def test_group_plan_memo(benchmark):
    text = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    common.write_output("group_plan", text)
    record = regenerate.record
    assert (
        record["shared_outcome_builds"] < record["fresh_outcome_builds"]
    ), record
