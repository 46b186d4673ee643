"""Exploration-service tests: schemas, queue, store, and the daemon.

Unit layers (schema validation, queue ordering/fairness, job store
long-poll) are tested directly; the end-to-end class drives a real
``ThreadingHTTPServer`` on loopback through :class:`ServiceClient` —
submit → poll → result, CLI parity, cancel, multi-tenant cache
namespaces, and graceful drain.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.apex.explorer import ApexConfig
from repro.conex.explorer import ConExConfig
from repro.core.memorex import MemorExConfig, run_memorex
from repro.errors import ConfigurationError, ExplorationError, ServiceError
from repro.io import export_design_points_json
from repro.service import (
    ExplorationService,
    Job,
    JobQueue,
    JobStore,
    ServiceClient,
    ServiceServer,
    parse_job_spec,
)
from repro.service import jobs as jobstates
from repro.workloads import get_workload

_WORKLOAD = "dct"
_SCALE = 0.05
_SEED = 3


def _spec(**overrides) -> dict:
    base = {"kind": "explore", "workload": _WORKLOAD, "scale": _SCALE,
            "seed": _SEED}
    base.update(overrides)
    return base


def _job(tenant: str = "t", priority: int = 0) -> Job:
    return Job(spec=parse_job_spec(_spec(tenant=tenant, priority=priority)))


class TestSchemas:
    def test_defaults(self):
        spec = parse_job_spec({"workload": _WORKLOAD})
        assert spec.kind == "explore"
        assert spec.tenant == "default"
        assert spec.priority == 0

    def test_header_tenant_wins_over_body(self):
        spec = parse_job_spec(_spec(tenant="body"), tenant="header")
        assert spec.tenant == "header"

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            _spec(kind="nope"),
            {"kind": "explore", "workload": "nope"},
            _spec(backend="fancy"),
            _spec(tenant="../escape"),
            _spec(scale=-1.0),
            _spec(scale="wide"),
            _spec(select=0),
            _spec(keep=0),
            _spec(workers=0),
            _spec(priority=True),  # bools are not job integers
            _spec(backend="remote"),
            _spec(scale=True),  # bools are not job numbers either
        ],
    )
    def test_rejects_bad_specs(self, payload):
        with pytest.raises(ServiceError) as excinfo:
            parse_job_spec(payload)
        assert excinfo.value.status == 400

    def test_empty_tenant_falls_back_to_default(self):
        assert parse_job_spec(_spec(tenant="")).tenant == "default"

    def test_tenant_slug_is_path_safe(self):
        for bad in ("a/b", "a\\b", ".", "..", "a" * 65, "-lead"):
            with pytest.raises(ServiceError):
                parse_job_spec(_spec(tenant=bad))


class TestJobQueue:
    def test_fifo_within_tenant(self):
        queue = JobQueue()
        jobs = [_job() for _ in range(3)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop() for _ in range(3)] == jobs

    def test_priority_beats_fifo(self):
        queue = JobQueue()
        low = _job(priority=0)
        high = _job(priority=5)
        queue.push(low)
        queue.push(high)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_tenant_fairness_stops_flood_starvation(self):
        queue = JobQueue()
        flood = [_job("flood") for _ in range(10)]
        for job in flood:
            queue.push(job)
        single = _job("single")
        queue.push(single)
        # The flood tenant gets exactly one pop before the single
        # tenant's job is served, despite ten earlier admissions.
        first, second = queue.pop(), queue.pop()
        assert first is flood[0]
        assert second is single

    def test_fairness_round_robins_between_tenants(self):
        queue = JobQueue()
        for _ in range(3):
            queue.push(_job("a"))
            queue.push(_job("b"))
        served = [queue.pop().spec.tenant for _ in range(6)]
        assert served == ["a", "b", "a", "b", "a", "b"]

    def test_bounded_queue_raises_429(self):
        queue = JobQueue(max_pending=2)
        queue.push(_job())
        queue.push(_job())
        with pytest.raises(ServiceError) as excinfo:
            queue.push(_job())
        assert excinfo.value.status == 429

    def test_remove_and_position(self):
        queue = JobQueue()
        first, second = _job(), _job()
        assert queue.push(first) == 0
        assert queue.push(second) == 1
        assert queue.remove(first.id) is first
        assert queue.position(second.id) == 0
        assert queue.remove("nonesuch") is None

    def test_drain_returns_all_pending_in_order(self):
        queue = JobQueue()
        jobs = [_job("a"), _job("b"), _job("a")]
        for job in jobs:
            queue.push(job)
        assert queue.drain() == jobs
        assert len(queue) == 0
        assert queue.pop(timeout=0.01) is None

    def test_pop_blocks_until_push(self):
        queue = JobQueue()
        job = _job()
        threading.Timer(0.05, queue.push, args=(job,)).start()
        assert queue.pop(timeout=2.0) is job


class TestJobStore:
    def test_get_unknown_is_404(self):
        store = JobStore()
        with pytest.raises(ServiceError) as excinfo:
            store.get("nonesuch")
        assert excinfo.value.status == 404

    def test_events_since_filters_by_seq(self):
        store = JobStore()
        job = _job()
        store.add(job)
        store.record_event(job, "one")
        store.record_event(job, "two")
        assert [e["stage"] for e in store.events_since(job)] == ["one", "two"]
        assert [e["stage"] for e in store.events_since(job, since=1)] == ["two"]

    def test_long_poll_wakes_on_new_event(self):
        store = JobStore()
        job = _job()
        store.add(job)
        threading.Timer(0.05, store.record_event, args=(job, "late")).start()
        start = time.monotonic()
        events = store.events_since(job, wait=2.0)
        assert [e["stage"] for e in events] == ["late"]
        assert time.monotonic() - start < 1.5  # woke early, no full wait

    def test_long_poll_returns_immediately_when_terminal(self):
        store = JobStore()
        job = _job()
        store.add(job)
        job.state = jobstates.DONE
        start = time.monotonic()
        assert store.events_since(job, since=99, wait=5.0) == []
        assert time.monotonic() - start < 1.0

    def test_finished_jobs_pruned_oldest_first(self):
        store = JobStore(retain_finished=2)
        done = [_job() for _ in range(3)]
        for job in done:
            store.add(job)
            store.transition(job, jobstates.DONE)
        live = _job()
        store.add(live)
        with pytest.raises(ServiceError):
            store.get(done[0].id)
        assert store.get(done[-1].id) is done[-1]
        assert store.get(live.id) is live


class TestRunner:
    def test_pool_backend_without_workers_uses_the_runner_runtime(self):
        """``serve --backend pool`` runs a job without ``workers`` on the
        runner thread's own runtime, not a fresh one-worker default."""
        from repro.exec.runtime import ExecutionRuntime
        from repro.service.runner import TenantCaches, execute_job

        store = JobStore()
        job = Job(spec=parse_job_spec(_spec(kind="apex")))
        store.add(job)
        with ExecutionRuntime(workers=2) as runtime:
            execute_job(
                job, store, TenantCaches(), runtime=runtime,
                default_backend="pool",
            )
            batches = runtime.stats.batches
        assert job.state == jobstates.DONE, job.error
        assert batches >= 1

    def test_unnamed_backend_without_workers_uses_the_runner_runtime(
        self, monkeypatch
    ):
        """With no backend named anywhere, a job without ``workers``
        runs on the runner's pool sized by the daemon's ``--workers``,
        not serially at ``REPRO_WORKERS``."""
        from repro.config import WORKERS_ENV
        from repro.exec.runtime import ExecutionRuntime
        from repro.service.runner import TenantCaches, execute_job

        monkeypatch.delenv(WORKERS_ENV, raising=False)
        store = JobStore()
        job = Job(spec=parse_job_spec(_spec(kind="apex")))
        store.add(job)
        with ExecutionRuntime(workers=2) as runtime:
            execute_job(job, store, TenantCaches(), runtime=runtime)
            batches = runtime.stats.batches
        assert job.state == jobstates.DONE, job.error
        assert batches >= 1


@pytest.mark.parametrize("scale", ["nan", "inf"])
class TestNonFiniteScale:
    """A non-finite scale fails at every boundary with a typed error
    (NaN passes a ``scale <= 0`` test)."""

    def test_get_workload_rejects_it(self, scale):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            get_workload(_WORKLOAD, scale=float(scale))

    def test_job_spec_rejects_it(self, scale):
        with pytest.raises(ServiceError) as excinfo:
            parse_job_spec(_spec(scale=scale))
        assert excinfo.value.status == 400

    def test_cli_reports_it(self, scale, capsys):
        from repro.cli import main

        assert main(["explore", _WORKLOAD, "--scale", scale]) == 1
        assert "error: scale must be positive and finite" in (
            capsys.readouterr().err
        )


class TestArgumentBounds:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExplorationService(jobs=0),
            lambda: ExplorationService(workers=0),
            lambda: ExplorationService(queue_max=0),
            lambda: ExplorationService(drain_timeout=0.0),
            lambda: ExplorationService(drain_timeout=float("nan")),
            lambda: ExplorationService(drain_timeout=float("inf")),
            lambda: ServiceServer(ExplorationService(), port=-1),
            lambda: ServiceServer(ExplorationService(), port=70000),
        ],
        ids=[
            "jobs=0", "workers=0", "queue_max=0", "drain_timeout=0",
            "drain_timeout=nan", "drain_timeout=inf", "port=-1",
            "port=70000",
        ],
    )
    def test_bad_arguments_raise_before_anything_starts(self, build):
        threads = threading.active_count()
        with pytest.raises(ServiceError):
            build()
        assert threading.active_count() == threads

    def test_cli_serve_reports_a_bad_argument(self, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", "--jobs", "0"]) == 1
        assert "error: service jobs must be >= 1" in capsys.readouterr().err


@pytest.fixture(scope="module")
def running_server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    service = ExplorationService(
        jobs=2, queue_max=16, cache_dir=str(cache_dir), drain_timeout=10.0
    )
    server = ServiceServer(service, host="127.0.0.1", port=0)
    server.start()
    yield server, cache_dir
    service.close()
    server.shutdown()


def _client(server: ServiceServer, tenant: str | None = None) -> ServiceClient:
    return ServiceClient(f"http://{server.address}", tenant=tenant)


class TestServiceEndToEnd:
    def test_submit_poll_result_matches_cli(self, running_server, tmp_path):
        server, _cache_dir = running_server
        client = _client(server)
        job = client.submit(_spec())
        assert job["state"] == "queued"
        stages = []
        final = client.wait(
            job["id"], timeout=120.0,
            on_event=lambda e: stages.append(e["stage"]),
        )
        assert final["state"] == "done"
        assert {"queued", "running", "trace", "apex", "conex", "done"} <= set(
            stages
        )
        points = client.result(job["id"])["result"]["design_points"]
        assert points

        # Byte-for-byte parity with `repro explore --json` on the
        # same workload/spec.
        workload = get_workload(_WORKLOAD, scale=_SCALE, seed=_SEED)
        result = run_memorex(
            workload,
            config=MemorExConfig(
                apex=ApexConfig(select_count=5),
                conex=ConExConfig(phase1_keep=8),
            ),
        )
        json_path = tmp_path / "cli.json"
        export_design_points_json(result.selected_points, json_path)
        assert points == json.loads(json_path.read_text())["design_points"]

    def test_health_and_status_endpoints(self, running_server):
        server, _cache_dir = running_server
        client = _client(server)
        health = client.health()
        assert health["state"] == "serving"
        assert health["concurrency"] == 2
        job = client.submit(_spec(kind="apex"))
        client.wait(job["id"], timeout=120.0)
        status = client.status(job["id"])
        assert status["id"] == job["id"]
        assert any(item["id"] == job["id"] for item in client.jobs())

    def test_unknown_job_is_404(self, running_server):
        server, _cache_dir = running_server
        client = _client(server)
        with pytest.raises(ServiceError) as excinfo:
            client.status("nonesuch")
        assert excinfo.value.status == 404

    def test_result_before_done_is_409(self, running_server):
        server, _cache_dir = running_server
        client = _client(server)
        job = client.submit(_spec())
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409
        client.wait(job["id"], timeout=120.0)

    def test_bad_spec_is_400(self, running_server):
        server, _cache_dir = running_server
        client = _client(server)
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "explore", "workload": "nonesuch"})
        assert excinfo.value.status == 400

    def test_failed_job_reports_error(self, running_server, monkeypatch):
        server, _cache_dir = running_server
        client = _client(server)
        # A spec that parses but whose run fails: the runner's APEX
        # step raises inside the in-process server.

        def failing_apex(*_args, **_kwargs):
            raise ExplorationError("injected APEX failure")

        monkeypatch.setattr(
            "repro.service.runner.explore_memory_architectures", failing_apex
        )
        job = client.submit(_spec())
        final = client.wait(job["id"], timeout=60.0)
        assert final["state"] == "failed"
        assert "error" in final
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 409

    def test_two_tenants_get_distinct_cache_namespaces(self, running_server):
        server, cache_dir = running_server
        alpha = _client(server, tenant="alpha")
        beta = _client(server, tenant="beta")
        job_a = alpha.submit(_spec(kind="apex"))
        job_b = beta.submit(_spec(kind="apex"))
        final_a = alpha.wait(job_a["id"], timeout=120.0)
        final_b = beta.wait(job_b["id"], timeout=120.0)
        assert final_a["state"] == "done"
        assert final_b["state"] == "done"
        assert final_a["tenant"] == "alpha"
        # Identical work, isolated namespaces: same answer, two
        # separate on-disk cache directories, each non-empty.
        result_a = alpha.result(job_a["id"])["result"]
        result_b = beta.result(job_b["id"])["result"]
        assert result_a["architectures"] == result_b["architectures"]
        for tenant in ("alpha", "beta"):
            files = list((cache_dir / tenant).glob("*.simres.pkl"))
            assert files, f"tenant {tenant} has no cache namespace"

    def test_cancel_queued_job(self, monkeypatch):
        # A service whose runners never start: submissions stay queued.
        service = ExplorationService(jobs=1, queue_max=4)
        monkeypatch.setattr(service, "start", lambda: None)
        with ServiceServer(service, host="127.0.0.1", port=0) as server:
            client = _client(server)
            job = client.submit(_spec())
            cancelled = client.cancel(job["id"])
            assert cancelled["state"] == "cancelled"
            assert cancelled["note"] == "cancelled by client"
            with pytest.raises(ServiceError) as excinfo:
                client.result(job["id"])
            assert excinfo.value.status == 409

    def test_drain_rejects_new_work_and_cancels_queued(self, monkeypatch):
        # No runners again: the submitted job is still queued when
        # drain fires, so it must come back cancelled with the
        # draining note.
        service = ExplorationService(jobs=1, queue_max=8)
        monkeypatch.setattr(service, "start", lambda: None)
        server = ServiceServer(service, host="127.0.0.1", port=0)
        server.start()
        try:
            client = _client(server)
            queued = client.submit(_spec())
            assert service.drain(timeout=5.0)
            status = client.status(queued["id"])
            assert status["state"] == "cancelled"
            assert status["note"] == "service draining"
            with pytest.raises(ServiceError) as excinfo:
                client.submit(_spec())
            assert excinfo.value.status == 503
            assert client.health()["state"] == "stopped"
        finally:
            server.shutdown()

    def test_http_soak_hundreds_of_sequential_requests(self, running_server):
        """Sequential request churn leaves the daemon healthy and bounded.

        Each request is its own HTTP connection (thread churn in the
        ThreadingHTTPServer) and each rejected submit exercises the
        error path; afterwards the daemon still serves and its job
        store holds only real jobs.
        """
        server, _cache_dir = running_server
        client = _client(server)
        jobs_before = len(client.jobs())
        for i in range(100):
            assert client.health()["state"] == "serving"
            with pytest.raises(ServiceError) as excinfo:
                client.status(f"nonesuch{i}")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "explore", "workload": "nope"})
            assert excinfo.value.status == 400
        assert len(client.jobs()) == jobs_before
        assert threading.active_count() < 50

    def test_drain_waits_for_running_job(self):
        service = ExplorationService(jobs=1, queue_max=8)
        service.start()
        client_spec = parse_job_spec(_spec())
        job = Job(spec=client_spec)
        service.store.add(job)
        service.queue.push(job)
        # Give the runner a moment to pick the job up, then drain: the
        # running job must finish (state done), not be killed.
        deadline = time.monotonic() + 5.0
        while job.state == "queued" and time.monotonic() < deadline:
            time.sleep(0.02)
        assert service.drain(timeout=60.0)
        assert job.state == jobstates.DONE
        assert job.result is not None
