"""The exploration daemon: service core plus HTTP/JSON front end.

Two layers, separable for tests:

* :class:`ExplorationService` — the long-lived application object: the
  job store, the fair multi-tenant :class:`~repro.service.queue.JobQueue`,
  N runner threads (each with its own persistent
  :class:`~repro.exec.runtime.ExecutionRuntime`, reused across every
  job it runs), the per-tenant cache namespaces, an optional embedded
  cache :class:`~repro.exec.worker.WorkerServer`, and the drain state
  machine. Tests drive it directly.
* :class:`ServiceServer` — a stdlib ``ThreadingHTTPServer`` exposing
  the service as JSON over HTTP (see ``docs/service.md`` for the
  API). Connection threads are per-request; long-polls block in the
  job store's condition variable, not in busy loops.

Graceful drain (``SIGTERM``, ``POST /v1/drain``, or
:meth:`ExplorationService.drain`): the service stops admitting
(submissions get 503), pending jobs leave the queue as ``cancelled``
with note ``"service draining"``, running jobs get up to the drain
timeout to finish (then a cooperative cancel lands at their next phase
checkpoint), and finally runtimes, caches, and the embedded worker —
via :meth:`~repro.exec.worker.WorkerServer.stop` with a drain join —
shut down clean.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.config import current_settings, positive_finite
from repro.errors import ServiceError
from repro.exec.runtime import ExecutionRuntime
from repro.exec.worker import WorkerServer
from repro.service import jobs as jobstates
from repro.service.jobs import Job, JobStore
from repro.service.queue import JobQueue
from repro.service.runner import TenantCaches, execute_job
from repro.service.schemas import parse_job_spec

__all__ = [
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_HOST",
    "DEFAULT_JOBS",
    "DEFAULT_PORT",
    "DEFAULT_QUEUE_MAX",
    "ExplorationService",
    "ServiceServer",
    "serve",
]

#: The daemon's defaults; ``repro serve`` flags and constructor
#: arguments override them, and ``ServiceClient`` falls back to the
#: host and port.
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8753
DEFAULT_JOBS = 1
DEFAULT_QUEUE_MAX = 64
DEFAULT_DRAIN_TIMEOUT = 30.0

SERVING = "serving"
DRAINING = "draining"
STOPPED = "stopped"

#: Ceiling on one long-poll's ``wait`` (clients re-issue to wait more).
_MAX_LONGPOLL_SECONDS = 30.0


class ExplorationService:
    """The daemon's application core, independent of the HTTP layer.

    Args:
        jobs: concurrent exploration jobs (runner threads), at least 1.
        queue_max: pending-job bound, at least 1.
        cache_dir: base directory for per-tenant disk cache
            namespaces; ``None`` consults ``REPRO_CACHE_DIR`` (unset:
            memory-only namespaces).
        workers: per-runner :class:`ExecutionRuntime` pool size, at
            least 1; ``None`` consults ``REPRO_WORKERS``.
        backend: default execution backend spec for jobs that do not
            choose one (``serial``/``pool``/``remote``, or ``None`` for
            the engine's default rule per batch).
        drain_timeout: seconds :meth:`drain` waits for running jobs,
            finite and positive.

    Raises:
        ServiceError: an argument is out of bounds; nothing has
            started yet.
    """

    def __init__(
        self,
        jobs: int = DEFAULT_JOBS,
        queue_max: int = DEFAULT_QUEUE_MAX,
        cache_dir: str | None = None,
        workers: int | None = None,
        backend: str | None = None,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
    ) -> None:
        if jobs < 1:
            raise ServiceError(f"service jobs must be >= 1, got {jobs}")
        if queue_max < 1:
            raise ServiceError(
                f"service queue bound must be >= 1, got {queue_max}"
            )
        if workers is not None and workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if not positive_finite(drain_timeout):
            raise ServiceError(
                f"service drain timeout must be positive and finite, "
                f"got {drain_timeout}"
            )
        settings = current_settings()
        self.concurrency = jobs
        self.queue_max = queue_max
        self.drain_timeout = drain_timeout
        self.workers = workers
        self.backend = backend
        cache_dir = cache_dir if cache_dir is not None else settings.cache_dir
        self.caches = TenantCaches(
            base_dir=cache_dir, max_mb=settings.cache_max_mb
        )
        self.store = JobStore()
        self.queue = JobQueue(max_pending=self.queue_max)
        self.started_at = time.time()
        self.state = SERVING
        self._state_lock = threading.Lock()
        self._runners: list[threading.Thread] = []
        self._running: dict[str, Job] = {}
        self._stop = threading.Event()
        self._idle = threading.Condition()

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Spin up the runner threads (idempotent)."""
        if self._runners:
            return
        for index in range(self.concurrency):
            thread = threading.Thread(
                target=self._run_loop, name=f"repro-runner-{index}", daemon=True
            )
            thread.start()
            self._runners.append(thread)

    def _run_loop(self) -> None:
        # One persistent runtime per runner thread: pools and shared
        # trace exports amortize across every job this thread runs,
        # and no two threads ever share one (ExecutionRuntime dispatch
        # is not thread-safe).
        with ExecutionRuntime(workers=self.workers) as runtime:
            while not self._stop.is_set():
                job = self.queue.pop(timeout=0.2)
                if job is None:
                    continue
                if job.cancel_event.is_set():
                    job.note = job.note or "cancelled by client"
                    self.store.transition(job, jobstates.CANCELLED)
                    continue
                self._running[job.id] = job
                try:
                    execute_job(
                        job,
                        self.store,
                        self.caches,
                        runtime=runtime,
                        default_backend=self.backend,
                    )
                finally:
                    self._running.pop(job.id, None)
                    with self._idle:
                        self._idle.notify_all()

    # -- request operations --------------------------------------------

    def submit(self, payload: object, tenant: str | None = None) -> dict:
        """Validate, admit, and enqueue one job; returns its status."""
        spec = parse_job_spec(payload, tenant=tenant)
        with self._state_lock:
            if self.state != SERVING:
                raise ServiceError(
                    f"service is {self.state}; not accepting jobs", status=503
                )
            job = Job(spec=spec)
            self.store.add(job)
            position = self.queue.push(job)
        self.store.record_event(job, "queued", position=position)
        obs.incr("service.submitted")
        return job.payload(queue_position=position)

    def status(self, job_id: str) -> dict:
        job = self.store.get(job_id)
        return job.payload(queue_position=self.queue.position(job_id))

    def job_list(self, tenant: str | None = None) -> list[dict]:
        return [
            job.payload(queue_position=self.queue.position(job.id))
            for job in self.store.jobs(tenant)
        ]

    def events(
        self, job_id: str, since: int = 0, wait: float | None = None
    ) -> dict:
        job = self.store.get(job_id)
        if wait is not None:
            wait = max(0.0, min(wait, _MAX_LONGPOLL_SECONDS))
        events = self.store.events_since(job, since=since, wait=wait)
        return {"id": job.id, "state": job.state, "events": events}

    def result(self, job_id: str) -> dict:
        job = self.store.get(job_id)
        if job.state == jobstates.FAILED:
            raise ServiceError(f"job {job_id} failed: {job.error}", status=409)
        if job.state == jobstates.CANCELLED:
            raise ServiceError(
                f"job {job_id} was cancelled ({job.note})", status=409
            )
        if job.state != jobstates.DONE or job.result is None:
            raise ServiceError(
                f"job {job_id} is {job.state}; result not ready", status=409
            )
        return {"id": job.id, "state": job.state, "result": job.result}

    def cancel(self, job_id: str) -> dict:
        """Cancel a job: dequeue if pending, flag if running."""
        job = self.store.get(job_id)
        removed = self.queue.remove(job_id)
        job.cancel_event.set()
        if removed is not None:
            job.note = "cancelled by client"
            self.store.transition(job, jobstates.CANCELLED)
        elif not job.terminal:
            self.store.record_event(job, "cancel_requested")
        obs.incr("service.cancelled")
        return job.payload()

    def health(self) -> dict:
        return {
            "state": self.state,
            "uptime_seconds": time.time() - self.started_at,
            "queued": len(self.queue),
            "running": len(self._running),
            "concurrency": self.concurrency,
            "tenants": list(self.caches.tenants()),
        }

    # -- drain ---------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown; returns ``True`` if all work finished.

        Stops admission, rejects the pending queue with a clear
        status, waits up to ``timeout`` (default: the configured drain
        timeout) for running jobs, then requests cooperative cancel
        and stops the runner threads. Idempotent.
        """
        with self._state_lock:
            if self.state == STOPPED:
                return True
            self.state = DRAINING
        timeout = timeout if timeout is not None else self.drain_timeout
        for job in self.queue.drain():
            job.note = "service draining"
            self.store.transition(job, jobstates.CANCELLED)
        deadline = time.monotonic() + timeout
        clean = True
        with self._idle:
            while self._running:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    clean = False
                    break
            # Out of patience: ask the stragglers to stop at their
            # next phase checkpoint and wait a short grace period.
                self._idle.wait(min(remaining, 0.5))
        if not clean:
            for job in list(self._running.values()):
                job.cancel_event.set()
            grace = time.monotonic() + 5.0
            with self._idle:
                while self._running and time.monotonic() < grace:
                    self._idle.wait(0.5)
        self._stop.set()
        for thread in self._runners:
            thread.join(timeout=5.0)
        self._runners = []
        self.state = STOPPED
        obs.incr("service.drains")
        return clean and not self._running

    def close(self) -> None:
        """Hard stop (tests): drain with a tiny timeout."""
        self.drain(timeout=0.1)


class ServiceServer:
    """The HTTP/JSON front end over one :class:`ExplorationService`.

    Binds ``host:port`` at construction (port 0 lets the OS pick); a
    port outside 0..65535 raises :class:`ServiceError` before any bind.
    """

    def __init__(
        self,
        service: ExplorationService,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
    ) -> None:
        if not 0 <= port <= 65535:
            raise ServiceError(f"service port must be 0..65535, got {port}")
        self.service = service
        handler = _make_handler(service)
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self.address = f"{self.host}:{self.port}"
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Serve requests on a background thread; start the runners."""
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()

    def shutdown(self) -> None:
        """Stop the HTTP listener (does not drain the service)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.service.close()
        self.shutdown()


def _make_handler(service: ExplorationService):
    """A request-handler class closed over ``service``."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-service/1"
        protocol_version = "HTTP/1.1"

        # -- plumbing --------------------------------------------------

        def log_message(self, *_args) -> None:
            pass  # request logging is the caller's concern, not stderr's

        def _reply(self, status: int, payload: dict | list) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _body(self) -> object:
            length = int(self.headers.get("Content-Length") or 0)
            if length <= 0:
                return {}
            raw = self.rfile.read(length)
            try:
                return json.loads(raw)
            except ValueError:
                raise ServiceError("request body is not valid JSON") from None

        def _tenant(self) -> str | None:
            return self.headers.get("X-Repro-Tenant")

        def _route(self, method: str) -> None:
            url = urlparse(self.path)
            parts = [part for part in url.path.split("/") if part]
            query = parse_qs(url.query)
            try:
                handled = self._dispatch(method, parts, query)
            except ServiceError as error:
                self._reply(error.status, {"error": str(error)})
                return
            except Exception as error:  # pragma: no cover - defensive
                self._reply(
                    500, {"error": f"{type(error).__name__}: {error}"}
                )
                return
            if not handled:
                self._reply(404, {"error": f"no route {method} {url.path}"})

        # -- routes ----------------------------------------------------

        def _dispatch(self, method: str, parts: list[str], query) -> bool:
            if parts == ["healthz"] and method == "GET":
                self._reply(200, service.health())
                return True
            if not parts or parts[0] != "v1":
                return False
            parts = parts[1:]
            if parts == ["drain"] and method == "POST":
                # Drain blocks until running jobs finish; do it off
                # this connection thread and answer immediately.
                threading.Thread(target=service.drain, daemon=True).start()
                self._reply(202, {"state": DRAINING})
                return True
            if parts == ["jobs"]:
                if method == "POST":
                    self._reply(
                        202, service.submit(self._body(), self._tenant())
                    )
                    return True
                if method == "GET":
                    tenant = (query.get("tenant") or [None])[0]
                    self._reply(200, {"jobs": service.job_list(tenant)})
                    return True
                return False
            if len(parts) == 2 and parts[0] == "jobs" and method == "GET":
                self._reply(200, service.status(parts[1]))
                return True
            if len(parts) == 3 and parts[0] == "jobs":
                job_id, action = parts[1], parts[2]
                if action == "events" and method == "GET":
                    since = int((query.get("since") or ["0"])[0])
                    wait_raw = (query.get("wait") or [None])[0]
                    wait = float(wait_raw) if wait_raw is not None else None
                    self._reply(200, service.events(job_id, since, wait))
                    return True
                if action == "result" and method == "GET":
                    self._reply(200, service.result(job_id))
                    return True
                if action == "cancel" and method == "POST":
                    self._reply(200, service.cancel(job_id))
                    return True
            return False

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._route("GET")

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._route("POST")

    return Handler


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    jobs: int = DEFAULT_JOBS,
    queue_max: int = DEFAULT_QUEUE_MAX,
    cache_dir: str | None = None,
    workers: int | None = None,
    backend: str | None = None,
    cache_worker_port: int | None = None,
) -> None:
    """Blocking entry point behind ``python -m repro serve``.

    Prints ``serving on host:port`` before accepting so launchers
    that requested port 0 can read the bound address back, runs until
    ``SIGTERM``/``SIGINT`` (or a ``POST /v1/drain``), then drains
    gracefully and exits clean. With ``cache_worker_port`` the daemon
    also embeds a :class:`~repro.exec.worker.WorkerServer` on that
    port serving the shared-cache socket protocol (point the worker
    fleet's ``REPRO_CACHE_URL`` at it); the embedded worker drains on
    the same path.
    """
    import signal

    service = ExplorationService(
        jobs=jobs,
        queue_max=queue_max,
        cache_dir=cache_dir,
        workers=workers,
        backend=backend,
    )
    server = ServiceServer(service, host=host, port=port)
    obs.enable()  # progress events are fed by obs counters
    cache_worker: WorkerServer | None = None
    if cache_worker_port is not None:
        cache_worker = WorkerServer(
            host=server.host,
            port=cache_worker_port,
            cache_dir=service.caches.base_dir,
        )
        cache_worker.start()
        print(f"cache worker on {cache_worker.address}", flush=True)

    stop = threading.Event()

    def _signal_drain(_signum, _frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _signal_drain)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    server.start()
    print(f"serving on {server.address}", flush=True)
    try:
        while not stop.is_set() and service.state == SERVING:
            stop.wait(0.2)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        clean = service.drain()
        if cache_worker is not None:
            cache_worker.stop(drain_timeout=service.drain_timeout)
        server.shutdown()
        print(
            "drained cleanly" if clean else "drain timed out", flush=True
        )
