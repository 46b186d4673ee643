"""CI service smoke: the daemon end to end over loopback HTTP.

Launches ``python -m repro serve`` as a subprocess on a loopback
port, submits a tiny apex exploration job through
:class:`~repro.service.client.ServiceClient`, streams its progress
events until done, asserts the pareto result is non-empty, then sends
``SIGTERM`` and asserts the daemon drains cleanly (prints ``drained
cleanly`` and exits 0). Exit code 0 means the whole service path —
HTTP submit, queueing, execution against a persistent runtime, result
pickup, graceful drain — works against a real process boundary.

A second leg launches ``repro serve --port 0 --jobs 0`` and asserts
the daemon refuses the bad argument: it must exit non-zero within
10 s and print ``error:`` on stderr, instead of serving with no job
runners.

Run directly (``python benchmarks/service_smoke.py``) with
``PYTHONPATH=src``; no arguments.
"""

import os
import signal
import subprocess
import sys


def check_bad_argument_rejected() -> None:
    """``--jobs 0`` ends the daemon with an error before it serves."""
    try:
        rejected = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "0"],
            capture_output=True,
            text=True,
            env=dict(os.environ),
            timeout=10,
        )
    except subprocess.TimeoutExpired as error:
        raise AssertionError(
            f"daemon kept running with --jobs 0: {error.stdout!r}"
        ) from None
    assert rejected.returncode != 0, (
        f"daemon accepted --jobs 0: {rejected.stdout!r}"
    )
    assert "error:" in rejected.stderr, rejected.stderr


def main() -> int:
    check_bad_argument_rejected()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ),
    )
    try:
        line = process.stdout.readline().strip()
        if not line.startswith("serving on "):
            raise RuntimeError(f"daemon failed to start: {line!r}")
        address = line.removeprefix("serving on ")

        from repro.service.client import ServiceClient

        client = ServiceClient(f"http://{address}", tenant="ci")
        health = client.health()
        assert health["state"] == "serving", health

        job = client.submit(
            {"kind": "apex", "workload": "dct", "scale": 0.05, "seed": 1}
        )
        stages = []
        final = client.wait(
            job["id"],
            timeout=180.0,
            on_event=lambda event: stages.append(event["stage"]),
        )
        assert final["state"] == "done", final
        architectures = client.result(job["id"])["result"]["architectures"]
        assert architectures, "service returned an empty pareto result"

        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
        assert process.returncode == 0, (
            f"daemon exited {process.returncode}: {output}"
        )
        assert "drained cleanly" in output, output
        print(
            f"service smoke OK: job {job['id']} ran "
            f"{' -> '.join(stages)} and returned "
            f"{len(architectures)} architectures; SIGTERM drained cleanly; "
            f"--jobs 0 was rejected"
        )
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
