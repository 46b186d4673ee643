"""Exploration-as-a-service: the daemon behind ``python -m repro serve``.

The package turns the persistent execution stack — runtimes and the
layered simulation cache — into a long-lived HTTP/JSON
daemon that many clients (and many tenants) share:

* :mod:`repro.service.schemas` — wire formats: validated job specs.
* :mod:`repro.service.jobs` — job records, the thread-safe store, and
  the long-poll condition.
* :mod:`repro.service.queue` — bounded FIFO-with-priority queue with
  per-tenant fairness.
* :mod:`repro.service.runner` — executes one job with cancel
  checkpoints, per-tenant cache namespaces, and obs-fed progress.
* :mod:`repro.service.server` — the service core, the stdlib HTTP
  front end, and the graceful-drain ``serve()`` loop.
* :mod:`repro.service.client` — urllib client used by the CLI's
  ``submit``/``status``/``result``/``cancel`` subcommands.
"""

from repro.service.client import ServiceClient
from repro.service.jobs import Job, JobStore
from repro.service.queue import JobQueue
from repro.service.schemas import JobSpec, parse_job_spec
from repro.service.server import ExplorationService, ServiceServer, serve

__all__ = [
    "ExplorationService",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobStore",
    "ServiceClient",
    "ServiceServer",
    "parse_job_spec",
    "serve",
]
