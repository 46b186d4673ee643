"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``workloads`` — list the registered workloads.
* ``libraries`` — list the memory and connectivity IP libraries.
* ``trace`` — generate a workload trace; print its profile, optionally
  save it to ``.npz``.
* ``apex`` — run the APEX memory-modules exploration and print the
  selected architectures.
* ``explore`` — run the full MemorEx pipeline and print the complete
  report; optionally export the pareto set to CSV/JSON.
* ``coverage`` — compare the Pruned / Neighborhood / Full strategies
  on a reduced design space (the Table 2 experiment).
* ``worker`` — serve simulation groups and cache traffic over a
  socket; the exploration commands dispatch to workers with
  ``--backend remote`` (addresses from ``REPRO_WORKER_ADDRS``).
* ``serve`` — run the exploration service daemon: an HTTP/JSON API
  where clients submit apex/explore jobs, poll progress, and fetch
  pareto results (see ``docs/service.md``).
* ``submit`` / ``status`` / ``result`` / ``cancel`` — client commands
  against a running daemon (``--url`` or ``REPRO_SERVICE_URL``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, Sequence

from repro import obs, registry
from repro.apex.explorer import ApexConfig, explore_memory_architectures
from repro.conex.explorer import ConExConfig
from repro.connectivity.library import default_connectivity_library
from repro.core.memorex import MemorExConfig, run_memorex
from repro.core.report import render_full_report
from repro.core.strategies import (
    coverage_rows,
    run_full,
    run_neighborhood,
    run_pruned,
)
from repro.errors import ReproError
from repro.exec.backend import ExecutionBackend, resolve_backend
from repro.exec.runtime import ExecutionRuntime
from repro.io import (
    export_design_points_csv,
    export_design_points_json,
    save_trace,
)
from repro.memory.library import default_memory_library
from repro.service.server import (
    DEFAULT_HOST,
    DEFAULT_JOBS,
    DEFAULT_PORT,
    DEFAULT_QUEUE_MAX,
)
from repro.trace.profiler import profile_trace
from repro.workloads import get_workload, workload_names


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", choices=workload_names())
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="workload size multiplier (default 0.25)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for simulation batches "
        "(default: REPRO_WORKERS or serial)",
    )


def _add_library_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memory-lib",
        default=None,
        metavar="NAME",
        help="registered memory IP library (default: 'default'; "
        "see repro.registry)",
    )
    parser.add_argument(
        "--conn-lib",
        default=None,
        metavar="NAME",
        help="registered connectivity IP library (default: 'default')",
    )


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("serial", "pool", "remote"),
        default=None,
        help="execution backend for simulation batches (default: serial "
        "for --jobs 1 and the pool otherwise; 'remote' shards over the "
        "REPRO_WORKER_ADDRS socket workers)",
    )


def _add_metrics_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-json",
        metavar="FILE.json",
        default=None,
        help="enable observability and write spans/counters as JSON",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable observability and print a summary to stderr",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ConEx memory-system connectivity exploration (DATE 2002)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("workloads", help="list registered workloads")
    commands.add_parser("libraries", help="list the IP libraries")

    trace_cmd = commands.add_parser("trace", help="generate and profile a trace")
    _add_workload_arguments(trace_cmd)
    trace_cmd.add_argument("--save", metavar="FILE.npz", default=None)

    apex_cmd = commands.add_parser(
        "apex", help="run the APEX memory-modules exploration"
    )
    _add_workload_arguments(apex_cmd)
    _add_jobs_argument(apex_cmd)
    _add_library_arguments(apex_cmd)
    _add_backend_argument(apex_cmd)
    _add_metrics_arguments(apex_cmd)
    apex_cmd.add_argument("--select", type=int, default=5)

    explore_cmd = commands.add_parser(
        "explore", help="run the full MemorEx pipeline"
    )
    _add_workload_arguments(explore_cmd)
    _add_jobs_argument(explore_cmd)
    _add_library_arguments(explore_cmd)
    _add_backend_argument(explore_cmd)
    _add_metrics_arguments(explore_cmd)
    explore_cmd.add_argument("--select", type=int, default=5)
    explore_cmd.add_argument("--keep", type=int, default=8, help="Phase-I keep")
    explore_cmd.add_argument("--csv", metavar="FILE.csv", default=None)
    explore_cmd.add_argument("--json", metavar="FILE.json", default=None)
    explore_cmd.add_argument(
        "--report", metavar="FILE.txt", default=None,
        help="also write the full report to a file",
    )

    coverage_cmd = commands.add_parser(
        "coverage",
        help="compare Pruned / Neighborhood / Full strategies (Table 2)",
    )
    _add_workload_arguments(coverage_cmd)
    _add_jobs_argument(coverage_cmd)
    _add_library_arguments(coverage_cmd)
    _add_backend_argument(coverage_cmd)
    _add_metrics_arguments(coverage_cmd)

    worker_cmd = commands.add_parser(
        "worker",
        help="serve simulation groups and cache traffic over a socket",
    )
    worker_cmd.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default loopback)",
    )
    worker_cmd.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 lets the OS pick (printed on stdout)",
    )
    worker_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist served cache entries to DIR "
        "(share one REPRO_CACHE_DIR across workers to pool results)",
    )

    serve_cmd = commands.add_parser(
        "serve", help="run the exploration service daemon (HTTP/JSON)"
    )
    serve_cmd.add_argument(
        "--host", default=DEFAULT_HOST,
        help="interface to bind (default: %(default)s)",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help="TCP port (default: %(default)s; 0 lets the OS pick, "
        "printed on stdout)",
    )
    serve_cmd.add_argument(
        "--jobs", type=int, default=DEFAULT_JOBS, metavar="N",
        help="concurrent exploration jobs (default: %(default)s)",
    )
    serve_cmd.add_argument(
        "--queue-max", type=int, default=DEFAULT_QUEUE_MAX, metavar="N",
        help="pending-job bound before submissions get 429 "
        "(default: %(default)s)",
    )
    serve_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="base directory for per-tenant cache namespaces "
        "(default: REPRO_CACHE_DIR; unset keeps caches in memory)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="simulation workers per job runner (default: REPRO_WORKERS)",
    )
    _add_backend_argument(serve_cmd)
    serve_cmd.add_argument(
        "--cache-worker-port", type=int, default=None, metavar="PORT",
        help="also serve the shared-cache socket protocol on PORT "
        "(point worker fleets' REPRO_CACHE_URL here)",
    )

    def _add_client_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url", default=None,
            help="daemon base URL (default: REPRO_SERVICE_URL, else "
            f"http://{DEFAULT_HOST}:{DEFAULT_PORT})",
        )
        sub.add_argument(
            "--tenant", default=None,
            help="tenant slug (scheduling fairness + cache namespace)",
        )

    submit_cmd = commands.add_parser(
        "submit", help="submit an exploration job to a running daemon"
    )
    _add_client_arguments(submit_cmd)
    submit_cmd.add_argument("workload", choices=workload_names())
    submit_cmd.add_argument(
        "--kind", choices=("apex", "explore"), default="explore"
    )
    submit_cmd.add_argument("--scale", type=float, default=0.25)
    submit_cmd.add_argument("--seed", type=int, default=0)
    submit_cmd.add_argument("--select", type=int, default=5)
    submit_cmd.add_argument("--keep", type=int, default=8)
    submit_cmd.add_argument("--priority", type=int, default=0)
    submit_cmd.add_argument(
        "--library", default=None, metavar="NAME",
        help="registered IP-library pair for the job (repro.registry)",
    )
    submit_cmd.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="simulation workers for this job",
    )
    _add_backend_argument(submit_cmd)
    submit_cmd.add_argument(
        "--wait", action="store_true",
        help="stream progress events and block until the job finishes",
    )

    status_cmd = commands.add_parser(
        "status", help="show a job (or, with no id, every job)"
    )
    _add_client_arguments(status_cmd)
    status_cmd.add_argument("job_id", nargs="?", default=None)

    result_cmd = commands.add_parser(
        "result", help="fetch a finished job's result as JSON"
    )
    _add_client_arguments(result_cmd)
    result_cmd.add_argument("job_id")
    result_cmd.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes before fetching",
    )

    cancel_cmd = commands.add_parser("cancel", help="cancel a job")
    _add_client_arguments(cancel_cmd)
    cancel_cmd.add_argument("job_id")
    return parser


def _cmd_workloads(_: argparse.Namespace) -> None:
    for name in workload_names():
        workload = get_workload(name)
        patterns = ", ".join(
            f"{struct}:{pattern.value}"
            for struct, pattern in workload.pattern_hints.items()
        )
        print(f"{name:10s} {patterns}")


def _cmd_libraries(_: argparse.Namespace) -> None:
    from repro.connectivity.library import component_families
    from repro.memory.library import module_types

    print(f"registered libraries: {', '.join(registry.library_names())}")
    print(
        "module families: "
        + ", ".join(entry.name for entry in module_types())
    )
    print(
        "connectivity families: "
        + ", ".join(entry.name for entry in component_families())
    )
    memory = default_memory_library()
    print(f"\nmemory IP library ({len(memory)} presets):")
    for name in memory.names():
        module = memory.get(name).instantiate()
        print(
            f"  {name:22s} {module.kind:18s} {module.area_gates:>10,.0f} gates"
        )
    connectivity = default_connectivity_library()
    print(f"\nconnectivity IP library ({len(connectivity)} presets):")
    for name in connectivity.names():
        component = connectivity.get(name).instantiate()
        print(f"  {name:22s} {component.describe()}")


def _cmd_trace(args: argparse.Namespace) -> None:
    workload = get_workload(args.workload, scale=args.scale, seed=args.seed)
    trace = workload.trace()
    profile = profile_trace(trace)
    print(
        f"{trace.name}: {len(trace)} accesses, {trace.duration} cycles, "
        f"{trace.total_bytes} bytes"
    )
    for stats in sorted(
        profile.by_struct.values(), key=lambda s: s.bandwidth, reverse=True
    ):
        print(
            f"  {stats.struct:16s} {stats.bandwidth:8.4f} B/cyc  "
            f"{stats.accesses:8d} accesses"
        )
    if args.save:
        save_trace(trace, args.save)
        print(f"saved to {args.save}")


def _print_runtime_faults(runtime: ExecutionRuntime) -> None:
    """One stderr line when the batch survived worker faults.

    Silent on a clean run; on a faulted one, makes the recovery
    visible without disturbing stdout (which scripts parse).
    """
    summary = runtime.stats.fault_summary()
    if summary is not None:
        print(f"[runtime] {summary}", file=sys.stderr)


@contextlib.contextmanager
def _command_execution(
    args: argparse.Namespace,
) -> "Iterator[ExecutionBackend]":
    """The command's backend, resolved once over the command's runtime.

    ``--backend`` (else the default rule) is resolved once, so a remote
    backend keeps its worker connections across every batch of the
    command and a pool is built at most once; it is closed on exit — as
    the service runner does per job.
    """
    with ExecutionRuntime(workers=args.jobs) as runtime:
        backend = resolve_backend(args.backend, args.jobs, runtime)
        try:
            yield backend
        finally:
            backend.close()
        _print_runtime_faults(runtime)
        args._runtime_stats = runtime.stats.as_dict()


def _cmd_apex(args: argparse.Namespace) -> None:
    workload = get_workload(args.workload, scale=args.scale, seed=args.seed)
    trace = workload.trace()
    with _command_execution(args) as backend:
        result = explore_memory_architectures(
            trace,
            registry.memory_library(args.memory_lib),
            ApexConfig(select_count=args.select),
            hints=workload.pattern_hints,
            workers=args.jobs,
            backend=backend,
        )
    print(
        f"evaluated {len(result.evaluated)} architectures, "
        f"selected {len(result.selected)}:"
    )
    for i, evaluated in enumerate(result.selected, 1):
        modules = ", ".join(evaluated.architecture.modules) or "(uncached)"
        print(
            f"  [{i}] {evaluated.cost_gates:>10,.0f} gates  "
            f"miss {evaluated.miss_ratio:6.3f}  "
            f"lat {evaluated.avg_latency:5.2f}  {modules}"
        )


def _cmd_explore(args: argparse.Namespace) -> None:
    workload = get_workload(args.workload, scale=args.scale, seed=args.seed)
    config = MemorExConfig(
        apex=ApexConfig(select_count=args.select),
        conex=ConExConfig(phase1_keep=args.keep),
    )
    with _command_execution(args) as backend:
        result = run_memorex(
            workload,
            memory_library=args.memory_lib,
            connectivity_library=args.conn_lib,
            config=config, workers=args.jobs, backend=backend,
        )
    report = render_full_report(result)
    print(report)
    if args.report:
        import pathlib

        pathlib.Path(args.report).write_text(report + "\n")
        print(f"\nreport written to {args.report}")
    if args.csv:
        export_design_points_csv(result.selected_points, args.csv)
        print(f"\npareto set exported to {args.csv}")
    if args.json:
        export_design_points_json(result.selected_points, args.json)
        print(f"pareto set exported to {args.json}")


def _cmd_coverage(args: argparse.Namespace) -> None:
    from repro.util.tables import format_table

    workload = get_workload(args.workload, scale=args.scale, seed=args.seed)
    trace = workload.trace()
    hints = dict(workload.pattern_hints)
    # A reduced space keeps the Full reference tractable from the CLI.
    apex_config = ApexConfig(
        cache_options=(None, "cache_4k_16b_1w", "cache_16k_32b_2w"),
        stream_buffer_options=(None, "stream_buffer_4"),
        dma_options=(None, "si_dma_32"),
        map_indexed_to_sram=(False,),
        select_count=5,
    )
    conex_config = ConExConfig(
        max_logical_connections=3,
        max_assignments_per_level=48,
        phase1_keep=12,
    )
    common = (
        trace,
        registry.memory_library(args.memory_lib),
        registry.connectivity_library(args.conn_lib),
        apex_config,
        conex_config,
    )
    # One backend over one persistent runtime serves all three
    # strategies: the pool is built once and the trace is exported to
    # shared memory once.
    with _command_execution(args) as backend:
        pruned = run_pruned(
            *common, hints=hints, workers=args.jobs, backend=backend,
        )
        neighborhood = run_neighborhood(
            *common, hints=hints, workers=args.jobs, backend=backend,
        )
        full = run_full(
            *common, hints=hints, workers=args.jobs, backend=backend,
        )
    rows = []
    for row in coverage_rows(full, [pruned, neighborhood]):
        cost_d, perf_d, energy_d = row.distances
        rows.append(
            (
                row.strategy,
                f"{row.seconds:.1f}s",
                f"{row.coverage_percent:.0f}%",
                f"{cost_d:.2f}%",
                f"{perf_d:.2f}%",
                f"{energy_d:.2f}%",
            )
        )
    print(
        format_table(
            ["strategy", "time", "coverage", "cost dist", "perf dist", "energy dist"],
            rows,
            title=f"Pareto coverage — {args.workload} (reduced space)",
        )
    )


def _cmd_worker(args: argparse.Namespace) -> None:
    from repro.exec.worker import serve

    serve(host=args.host, port=args.port, cache_dir=args.cache_dir)


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.service.server import serve

    serve(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        queue_max=args.queue_max,
        cache_dir=args.cache_dir,
        workers=args.workers,
        backend=args.backend,
        cache_worker_port=args.cache_worker_port,
    )


def _service_client(args: argparse.Namespace):
    from repro.service.client import ServiceClient

    return ServiceClient(base_url=args.url, tenant=args.tenant)


def _print_event(event: dict) -> None:
    detail = ", ".join(
        f"{key}={value}"
        for key, value in event.items()
        if key not in ("seq", "ts", "stage")
    )
    line = f"[{event['seq']:3d}] {event['stage']}"
    print(f"{line}  {detail}" if detail else line, file=sys.stderr)


def _cmd_submit(args: argparse.Namespace) -> None:
    import json

    client = _service_client(args)
    spec = {
        "kind": args.kind,
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "select": args.select,
        "keep": args.keep,
        "priority": args.priority,
    }
    if args.library is not None:
        spec["library"] = args.library
    if args.backend is not None:
        spec["backend"] = args.backend
    if args.workers is not None:
        spec["workers"] = args.workers
    job = client.submit(spec)
    print(
        f"job {job['id']} queued "
        f"(tenant {job['tenant']}, position {job.get('queue_position')})",
        file=sys.stderr,
    )
    if not args.wait:
        print(job["id"])
        return
    final = client.wait(job["id"], on_event=_print_event)
    if final["state"] != "done":
        reason = final.get("error") or final.get("note") or final["state"]
        raise ReproError(f"job {job['id']} {final['state']}: {reason}")
    print(json.dumps(client.result(job["id"])["result"], indent=2))


def _cmd_status(args: argparse.Namespace) -> None:
    import json

    client = _service_client(args)
    if args.job_id is not None:
        print(json.dumps(client.status(args.job_id), indent=2))
        return
    for job in client.jobs(tenant=args.tenant):
        position = job.get("queue_position")
        queue = f" queue={position}" if position is not None else ""
        print(
            f"{job['id']}  {job['state']:9s} {job['tenant']:12s} "
            f"{job['spec']['kind']}/{job['spec']['workload']}{queue}"
        )


def _cmd_result(args: argparse.Namespace) -> None:
    import json

    client = _service_client(args)
    if args.wait:
        client.wait(args.job_id, on_event=_print_event)
    print(json.dumps(client.result(args.job_id)["result"], indent=2))


def _cmd_cancel(args: argparse.Namespace) -> None:
    client = _service_client(args)
    job = client.cancel(args.job_id)
    print(f"job {job['id']} {job['state']}", file=sys.stderr)


_COMMANDS = {
    "workloads": _cmd_workloads,
    "libraries": _cmd_libraries,
    "trace": _cmd_trace,
    "apex": _cmd_apex,
    "explore": _cmd_explore,
    "coverage": _cmd_coverage,
    "worker": _cmd_worker,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "result": _cmd_result,
    "cancel": _cmd_cancel,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    metrics_json = getattr(args, "metrics_json", None)
    metrics_text = getattr(args, "metrics", False)
    if metrics_json or metrics_text:
        obs.enable()
    try:
        _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if metrics_json or metrics_text:
            runtime_stats = getattr(args, "_runtime_stats", None)
            extra = (
                {"runtime": runtime_stats} if runtime_stats is not None else None
            )
            if metrics_json:
                obs.export_json(metrics_json, extra=extra)
                print(f"metrics written to {metrics_json}", file=sys.stderr)
            if metrics_text:
                print(obs.render_text(), file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
