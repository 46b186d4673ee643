"""``repro serve`` with the benchmark's layer spans installed.

Usage: ``traced_serve.py SPANS_OUT [serve arguments...]``. Wraps the
layer entry points (see ``tracing.py``) and the daemon's job runner,
so every span of a job carries the job id, then runs the daemon until
it drains and writes the spans to ``SPANS_OUT``.
"""

from __future__ import annotations

import functools
import sys

import tracing


def main() -> int:
    spans_out, serve_args = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()

    def job_root(execute_job):
        @functools.wraps(execute_job)
        def wrapper(job, *args, **kwargs):
            with tracer.op(job.id):
                return execute_job(job, *args, **kwargs)

        return wrapper

    tracing.install(tracer, extra={("repro.service.server", "execute_job"): job_root})
    from repro.cli import main as cli_main

    code = cli_main(["serve", *serve_args])
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
