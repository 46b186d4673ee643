"""The service-repeat workload: the ``repro serve`` daemon under repeat jobs.

The daemon runs as a subprocess (``--jobs 1 --backend pool --workers
2``) with a fresh cache directory; every job asks for two workers, so a
miss dispatches its simulations to the daemon's two-process pool. One
client, two tenants taking turns, closed loop: each job is submitted
only after the previous result came back. In every cycle of
``MISS_EVERY`` jobs the last is an ``apex`` job on compress with an
input seed this daemon has not seen, so it misses the cache; the rest
repeat one ``apex`` job on vocoder, which hits.

Hits and misses are timed separately, and ``op_s_p50`` is the miss
median. A hit takes about 30 ms of HTTP, thread hand-offs and small
reads; on a shared two-CPU host its per-run median spread by 0.29 to
0.40 (interquartile range over median, ten runs), beyond the
benchmark's bound, so hit times go to the record only. Every result
must match the serial in-process digest for its spec.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import common
import tracing
from common import RUN_BUDGET_S, Watchdog, layer_medians

TENANTS = ("a", "b")


def _client_class():
    from repro.service.client import ServiceClient

    class CountingClient(ServiceClient):
        """Counts the HTTP requests a job costs."""

        requests = 0

        def _request(self, *args, **kwargs):
            self.requests += 1
            return super()._request(*args, **kwargs)

    return CountingClient


class Daemon:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self, deadline: float, spans_path: pathlib.Path | None = None) -> None:
        """``spans_path``: run the daemon traced, writing its spans there."""
        common.OUT_DIR.mkdir(exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=common.OUT_DIR)
        serve_args = [
            "--port", "0", "--jobs", "1", "--backend", "pool",
            "--workers", "2", "--cache-dir", self.cache_dir,
        ]
        if spans_path is not None:
            command = [
                sys.executable, str(common.BENCH_DIR / "traced_serve.py"),
                str(spans_path), *serve_args,
            ]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.log = open(self.cache_dir + ".log", "w")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
            env=common.child_env(),
        )
        self.watchdog = Watchdog(self.process, deadline)
        try:
            line = self.process.stdout.readline().strip()
            if not line.startswith("serving on "):
                raise RuntimeError(f"daemon failed to start: {line!r}")
            url = "http://" + line.removeprefix("serving on ")
            client_class = _client_class()
            self.clients = [
                client_class(url, tenant=t, timeout=30.0) for t in TENANTS
            ]
            if self.clients[0].health()["state"] != "serving":
                raise RuntimeError("daemon is not serving")
        except BaseException:
            self.stop()
            raise

    def peak_rss(self) -> tuple[float, dict]:
        """Peak resident memory of the daemon plus its descendants.

        Returns the total in MB and each counted process's peak (pid to
        command name and MB), which shows whether a worker pool ran.
        """
        pids, seen = [self.process.pid], {}
        while pids:
            pid = pids.pop()
            try:
                status = pathlib.Path(f"/proc/{pid}/status").read_text()
                tasks = list(pathlib.Path(f"/proc/{pid}/task").iterdir())
            except OSError:  # a process that ended meanwhile
                continue
            fields = dict(
                line.split(":", 1) for line in status.splitlines() if ":" in line
            )
            seen[pid] = (fields["Name"].strip(), int(fields["VmHWM"].split()[0]) / 1024)
            for task in tasks:
                try:
                    pids += [int(p) for p in (task / "children").read_text().split()]
                except OSError:  # a thread that ended meanwhile
                    continue
        return sum(mb for _, mb in seen.values()), seen

    def stop(self) -> bool:
        """SIGTERM, wait for the drain; True when it drained cleanly."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            out, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            out, _ = self.process.communicate()
        finally:
            self.watchdog.cancel()
            self.log.close()
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        clean = self.process.returncode == 0 and "drained cleanly" in out
        if clean:  # keep the daemon's log only when something went wrong
            pathlib.Path(self.log.name).unlink()
        return clean


def run_job(client, spec: dict, expected: str) -> dict:
    """Submit, wait, fetch; the op record with its timings and check."""
    job = {"tenant": client.tenant, "seed": spec["seed"], "ok": False}
    requests = client.requests
    began = time.perf_counter()
    try:
        submitted = client.submit(spec)
        job["submit_s"] = time.perf_counter() - began
        job["id"] = submitted["id"]
        status = client.wait(submitted["id"], timeout=120.0)
        body = client.result(submitted["id"])
        job["seconds"] = time.perf_counter() - began
        if status["state"] != "done":
            raise RuntimeError(f"job ended {status['state']}: {status.get('error')}")
        job["queue_wait_s"] = status["started"] - status["created"]
        job["run_s"] = status["finished"] - status["started"]
        job["overhead_s"] = job["seconds"] - job["run_s"]
        job["requests"] = client.requests - requests
        job["result_bytes"] = len(json.dumps(body["result"]))
        got = common.digest(common.apex_rows(body["result"]))
        if got != expected:
            raise AssertionError(f"digest {got} != serial digest {expected}")
        job["ok"] = True
    except Exception as error:  # a failed job is counted, not fatal
        job.setdefault("seconds", time.perf_counter() - began)
        job["error"] = f"{type(error).__name__}: {error}"
    return job


def set_up(deadline: float, hit_spec: dict, expected: str, spans_path=None) -> Daemon:
    """Start a daemon and fill each tenant's cache with the hit spec."""
    daemon = Daemon(deadline, spans_path)
    try:
        for client in daemon.clients:
            for _ in range(2):  # cache fill, then one warm-up hit
                job = run_job(client, hit_spec, expected)
                if not job["ok"]:
                    raise RuntimeError(f"set-up job failed: {job['error']}")
    except BaseException:
        daemon.stop()
        raise
    return daemon


def run(args) -> tuple[dict, dict, list]:
    sys.path.insert(0, str(common.source_root()))
    deadline = time.monotonic() + RUN_BUDGET_S
    expected = common.load_expected()
    hit_seed = common.input_order("service-hit", args.seed)[0]
    hit_spec = dict(common.HIT_SPEC, seed=hit_seed)
    hit_digest = expected["service-hit"][str(hit_seed)]
    misses = common.input_order("service-miss", args.seed)

    # Untraced: the last of several set-ups serves the run. Traced: one
    # plain and one traced daemon take turns, cycle by cycle.
    setup_samples = []
    spans_path = common.OUT_DIR / f"spans-service-repeat-{args.seed}.json"
    daemons = []
    try:
        for repeat in range(1 if args.trace else common.SETUP_REPEATS):
            began = time.perf_counter()
            daemon = set_up(deadline, hit_spec, hit_digest)
            setup_samples.append(time.perf_counter() - began)
            if repeat < common.SETUP_REPEATS - 1 and not args.trace:
                daemon.stop()
            else:
                daemons.append(daemon)
        if args.trace:
            daemons.append(set_up(deadline, hit_spec, hit_digest, spans_path))

        # Whole cycles, so every run times the same hit/miss mix.
        ops = []
        start = time.perf_counter()
        cycle = 0
        while time.perf_counter() - start < args.seconds:
            daemon = daemons[-1 - cycle % len(daemons)]  # traced one first
            for slot in range(common.MISS_EVERY):
                client = daemon.clients[len(ops) % len(daemon.clients)]
                if slot < common.MISS_EVERY - 1:
                    job = run_job(client, hit_spec, hit_digest)
                    kind = "hit"
                elif misses:
                    seed = misses.pop(0)
                    spec = dict(common.MISS_SPEC, seed=seed)
                    job = run_job(client, spec, expected["service-miss"][str(seed)])
                    kind = "miss"
                else:  # a faster program must not get a shorter run
                    job = {"seed": None, "ok": False, "seconds": 0.0,
                           "error": "miss-seed pool used up before the run ended"}
                    kind = "miss"
                job.update(
                    kind=kind,
                    cycle=cycle,
                    traced=bool(args.trace) and daemon is daemons[-1],
                )
                ops.append(job)
            cycle += 1
        peak_rss_mb, rss_by_pid = daemons[0].peak_rss()
    finally:
        drained = [daemon.stop() for daemon in daemons]

    def times(kind: str, traced: bool = False) -> list:
        return [
            op["seconds"] for op in ops
            if op["ok"] and op["kind"] == kind and op["traced"] == traced
        ]

    # Failed jobs' times stand in only when no job of the kind succeeded.
    hits = times("hit") or [op["seconds"] for op in ops if op["kind"] == "hit"]
    misses = times("miss") or [op["seconds"] for op in ops if op["kind"] == "miss"]
    record = {
        "setup_s": common.quartiles(setup_samples),
        "setup_samples": setup_samples,
        "hit_job_s": common.quartiles(hits),
        "hit_job_s_p90": common.p90(hits),
        "miss_job_s": common.quartiles(misses),
        "miss_job_s_p90": common.p90(misses),
        "peak_rss_mb": peak_rss_mb,
        "peak_rss_by_pid": rss_by_pid,
        "drained_cleanly": drained,
        "hit_input_seed": hit_seed,
        "ops": ops,
    }
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "op_s_p50": statistics.median(misses),
            "ops_per_min": 60.0 * sum(op["ok"] for op in ops) / sum(op["seconds"] for op in ops),
            "peak_rss_mb": peak_rss_mb,
        }
        return record, metrics, ops

    with open(spans_path) as handle:
        dump = json.load(handle)
    spans = [tuple(span) for span in dump["spans"]]
    by_kind = {"hit": [], "miss": []}
    for op in ops:
        if op["traced"] and op["ok"]:
            layers = tracing.op_layers(spans, dump["counts"].get(op["id"], {}), op["id"])
            covered = layers["op_s"] - layers["uncovered_s"]
            layers["uncovered_s"] = op["seconds"] - covered
            layers["op_s"] = op["seconds"]
            for key in ("submit_s", "queue_wait_s", "run_s", "overhead_s"):
                layers[f"service.{key}_p50"] = op[key]
            layers["service.requests_per_job"] = op["requests"]
            layers["service.result_bytes"] = op["result_bytes"]
            by_kind[op["kind"]].append(layers)
    record["spans_path"] = str(spans_path)
    record["miss_job_layers"] = layer_medians(by_kind["miss"])
    record["hit_job_layers"] = layer_medians(by_kind["hit"])
    metrics = common.per_layer_metrics(
        by_kind["hit"], times("hit", traced=True), times("hit")
    )
    return record, metrics, ops
