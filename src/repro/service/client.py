"""A dependency-free client for the exploration service.

Wraps the daemon's HTTP/JSON API (``docs/service.md``) in plain
method calls over :mod:`urllib`, translating error payloads back into
:class:`~repro.errors.ServiceError` with the original HTTP status.
The CLI's ``repro submit/status/result/cancel`` subcommands are thin
shims over this class; tests and scripts can use it directly::

    client = ServiceClient("http://127.0.0.1:8753", tenant="ci")
    job = client.submit({"kind": "explore", "workload": "apex_like"})
    done = client.wait(job["id"])
    pareto = client.result(job["id"])["result"]["design_points"]
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from urllib.parse import quote, urlencode

from repro.config import DEFAULT_HOST, DEFAULT_PORT, current_settings
from repro.errors import ServiceError
from repro.service.jobs import TERMINAL_STATES

__all__ = ["ServiceClient"]


class ServiceClient:
    """Talk to one exploration daemon.

    Args:
        base_url: daemon address (``http://host:port``); ``None``
            consults ``REPRO_SERVICE_URL``, falling back to the
            daemon's default ``http://127.0.0.1:8753``.
        tenant: tenant slug sent as ``X-Repro-Tenant`` on every
            request (``None``: the daemon's default tenant).
        timeout: per-request socket timeout in seconds; long-poll
            requests extend it by the poll's wait.
    """

    def __init__(
        self,
        base_url: str | None = None,
        tenant: str | None = None,
        timeout: float = 10.0,
    ) -> None:
        if base_url is None:
            base_url = (
                current_settings().service_url
                or f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
            )
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- transport -----------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float | None = None,
    ) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, headers=headers, method=method
        )
        timeout = timeout if timeout is not None else self.timeout
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            try:
                message = json.loads(error.read()).get("error", str(error))
            except ValueError:
                message = str(error)
            raise ServiceError(message, status=error.code) from None
        except (urllib.error.URLError, OSError, TimeoutError) as error:
            raise ServiceError(
                f"service at {self.base_url} unreachable: {error}", status=503
            ) from None

    # -- API -----------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def submit(self, spec: dict) -> dict:
        """Enqueue one job; returns its status (id, queue position)."""
        return self._request("POST", "/v1/jobs", payload=spec)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{quote(job_id)}")

    def jobs(self, tenant: str | None = None) -> list[dict]:
        path = "/v1/jobs"
        if tenant is not None:
            path += "?" + urlencode({"tenant": tenant})
        return self._request("GET", path)["jobs"]

    def events(
        self, job_id: str, since: int = 0, wait: float | None = None
    ) -> dict:
        """Progress events after ``since``; ``wait`` long-polls."""
        params = {"since": since}
        if wait is not None:
            params["wait"] = wait
        path = f"/v1/jobs/{quote(job_id)}/events?" + urlencode(params)
        timeout = self.timeout + (wait or 0.0)
        return self._request("GET", path, timeout=timeout)

    def result(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{quote(job_id)}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/v1/jobs/{quote(job_id)}/cancel")

    def drain(self) -> dict:
        return self._request("POST", "/v1/drain")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_wait: float = 10.0,
        on_event=None,
    ) -> dict:
        """Long-poll until the job reaches a terminal state.

        Calls ``on_event(event)`` for each new progress event (the
        CLI's live progress line). Returns the final status payload;
        raises :class:`ServiceError` (status 504) on timeout.
        """
        deadline = time.monotonic() + timeout
        since = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"timed out waiting for job {job_id}", status=504
                )
            page = self.events(
                job_id, since=since, wait=min(poll_wait, remaining)
            )
            for event in page["events"]:
                since = max(since, event["seq"])
                if on_event is not None:
                    on_event(event)
            if page["state"] in TERMINAL_STATES:
                return self.status(job_id)
