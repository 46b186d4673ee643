"""Spans around the program's layer entry points, recorded from outside.

:func:`install` wraps public functions of the program in place. A
function imported by name is patched in the module that imported it,
because that module holds its own reference. Each wrapper records a
span (name, start, end, parent, op id) and the counts it can read off
the call's arguments or result. Spans stay in memory until
:meth:`Tracer.dump`.

A layer's self time is its span's duration minus the time its child
spans cover. :func:`op_layers` turns the spans of one op into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import threading
import time


class Tracer:
    """In-memory span and counter store; safe for several threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, collections.Counter] = collections.defaultdict(
            collections.Counter
        )
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Root span of one op; spans and counts below it carry ``op_id``."""
        self._local.op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._local.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        op_id = getattr(self._local, "op", None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, op_id)

    def count(self, name: str, amount: float = 1) -> None:
        op_id = getattr(self._local, "op", None)
        with self._lock:
            self.counts[op_id][name] += amount

    def dump(self, path) -> None:
        """Write every span and count out as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": {str(k): dict(v) for k, v in self.counts.items()},
                },
                handle,
            )


# -- counting hooks: (tracer, args, kwargs, result) -> None ------------------


def _count_apex(tracer, args, kwargs, result):
    tracer.count("apex.candidates", len(result.evaluated))


def _count_conex(tracer, args, kwargs, result):
    tracer.count("conex.estimated", len(result.estimated))
    tracer.count("conex.carried", len(result.simulated))


def _count_batch(tracer, args, kwargs, result):
    tracer.count("exec.simulations", result.cache_misses)
    tracer.count("exec.lookups", result.cache_hits + result.cache_misses)
    tracer.count("exec.cache_hits", result.cache_hits)
    tracer.count("exec.retries", result.retries)
    tracer.count("exec.backend_bytes", result.bytes_sent + result.bytes_received)


def _count_put(tracer, args, kwargs, result):
    if args[0].directory is not None:
        tracer.count("exec.cache_disk_writes")


def _count_group(tracer, args, kwargs, result):
    tracer.count("sim.groups")


def _count_pareto(tracer, args, kwargs, result):
    tracer.count("pareto.points_in", len(args[0]))
    tracer.count("pareto.points_kept", len(result))


#: span name -> (where the name is bound, counting hook). A location is
#: (module, attribute path); a dotted path patches a method on a class.
TARGETS = {
    "workloads.trace": ([("repro.workloads.base", "Workload.trace")], None),
    "apex.explore": (
        [
            ("repro.core.memorex", "explore_memory_architectures"),
            ("repro.service.runner", "explore_memory_architectures"),
        ],
        _count_apex,
    ),
    "conex.explore": (
        [
            ("repro.core.memorex", "explore_connectivity"),
            ("repro.service.runner", "explore_connectivity"),
        ],
        _count_conex,
    ),
    "conex.exploration": (
        [("repro.conex.explorer", "connectivity_exploration")], None
    ),
    "conex.build_brg": ([("repro.conex.explorer", "build_brg")], None),
    "conex.plan_assignments": (
        [("repro.conex.explorer", "plan_assignments")], None
    ),
    "conex.estimate_plan": ([("repro.conex.explorer", "estimate_plan")], None),
    "pareto.front": (
        [
            ("repro.apex.explorer", "pareto_front"),
            ("repro.conex.explorer", "pareto_front"),
        ],
        _count_pareto,
    ),
    "exec.simulate_batch": (
        [
            ("repro.apex.explorer", "simulate_batch"),
            ("repro.conex.explorer", "simulate_batch"),
        ],
        _count_batch,
    ),
    "exec.cache_get": ([("repro.exec.cache", "SimulationCache.get")], None),
    "exec.cache_put": (
        [("repro.exec.cache", "SimulationCache.put")], _count_put
    ),
    "sim.trace_plan": ([("repro.sim.batch", "trace_plan")], None),
    "sim.build_group_plan": (
        [("repro.sim.batch", "TracePlan.group_plan")], None
    ),
    "sim.evaluate_group": (
        [("repro.sim.batch", "evaluate_group")], _count_group
    ),
}


def _wrap(tracer: Tracer, name: str, function, hook):
    pareto = name == "pareto.front"

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if pareto:
            # pareto_front accepts any iterable; count it once, pass a list.
            args = (list(args[0]), *args[1:])
        with tracer.span(name):
            result = function(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(tracer: Tracer, extra: dict | None = None) -> list[tuple]:
    """Wrap every target; returns what :func:`uninstall` restores.

    ``extra`` maps (module, attribute path) to a replacement factory
    ``original -> wrapper`` for entry points a caller times itself.
    """
    patched = []
    for name, (locations, hook) in TARGETS.items():
        for module_name, path in locations:
            owner, attribute = _resolve(module_name, path)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, _wrap(tracer, name, original, hook))
            patched.append((owner, attribute, original))
    for (module_name, path), factory in (extra or {}).items():
        owner, attribute = _resolve(module_name, path)
        original = owner.__dict__[attribute]
        setattr(owner, attribute, factory(original))
        patched.append((owner, attribute, original))
    return patched


def uninstall(patched: list[tuple]) -> None:
    for owner, attribute, original in reversed(patched):
        setattr(owner, attribute, original)


# -- analysis ----------------------------------------------------------------

#: Per-layer self-time metrics: metric -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "workloads.trace_s": ("workloads.trace",),
    "apex.explore_self_s": ("apex.explore",),
    "sim.evaluate_group_s": ("sim.evaluate_group",),
    "sim.trace_plan_s": ("sim.trace_plan",),
    "sim.build_group_plan_s": ("sim.build_group_plan",),
    "exec.simulate_batch_s": ("exec.simulate_batch",),
    "exec.cache_get_s": ("exec.cache_get",),
    "exec.cache_put_s": ("exec.cache_put",),
    "conex.build_brg_s": ("conex.build_brg",),
    "conex.plan_assignments_s": ("conex.plan_assignments",),
    "conex.estimate_plan_s": ("conex.estimate_plan",),
    "conex.phase1_self_s": ("conex.explore", "conex.exploration"),
    "pareto.front_s": ("pareto.front",),
}
COUNT_METRICS = (
    "apex.candidates",
    "sim.groups",
    "exec.simulations",
    "exec.cache_disk_writes",
    "exec.backend_bytes",
    "exec.retries",
    "conex.estimated",
    "conex.carried",
    "pareto.points_in",
)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span index -> duration minus its direct children's durations.

    Children of one span run one after another on its thread, so their
    durations add up to the part of the parent they cover.
    """
    covered = collections.Counter()
    for name, start, end, parent, _op in spans:
        if parent is not None:
            covered[parent] += end - start
    return {
        index: (end - start) - covered[index]
        for index, (name, start, end, parent, _op) in enumerate(spans)
    }


def op_layers(spans: list[tuple], counts: dict, op_id: str) -> dict:
    """Per-layer metrics of one op, from its spans and counts."""
    own = self_times(spans)
    by_name = collections.Counter()
    root_time = 0.0
    root_self = 0.0
    for index, (name, start, end, parent, span_op) in enumerate(spans):
        if span_op != op_id:
            continue
        if name == "op":
            root_time += end - start
            root_self += own[index]
        else:
            by_name[name] += own[index]
    layers = {
        metric: sum(by_name[name] for name in names)
        for metric, names in SELF_TIME_METRICS.items()
    }
    layers.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    lookups = counts.get("exec.lookups", 0)
    layers["exec.cache_hit_ratio"] = (
        counts.get("exec.cache_hits", 0) / lookups if lookups else 0.0
    )
    offered = counts.get("pareto.points_in", 0)
    layers["pareto.kept_ratio"] = (
        counts.get("pareto.points_kept", 0) / offered if offered else 0.0
    )
    layers["op_s"] = root_time
    layers["uncovered_s"] = root_self
    layers["sim_exec_share"] = (
        sum(
            layers[m]
            for m in (
                "sim.evaluate_group_s",
                "sim.trace_plan_s",
                "sim.build_group_plan_s",
                "exec.simulate_batch_s",
                "exec.cache_get_s",
                "exec.cache_put_s",
            )
        )
        / root_time
        if root_time
        else 0.0
    )
    return layers
