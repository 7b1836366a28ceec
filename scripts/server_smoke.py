#!/usr/bin/env python
"""Cross-process smoke test for the networked compile service.

The acceptance drill for the HTTP front-end, run by the CI
``server-smoke`` job and locally via::

    PYTHONPATH=src python scripts/server_smoke.py

Four checks against one real ``repro serve`` subprocess on a loopback
port:

1. **cross-process dedup** — eight client *processes* request the same
   cold ``bv_40`` compile concurrently; the server must pay for exactly
   one compilation (``/v1/stats`` ``misses == 1``) and hand every client
   a bit-identical report (compared as canonical ``report_to_dict``
   JSON);
2. **remote == local** — the report that crossed the wire equals an
   in-process ``caqr_compile`` field-for-field, except the wall-clock
   ``timers`` of each ``*_stats`` block, which ``CompileReport`` keeps
   outside the determinism contract (counters and gauges still compare);
3. **stats** — ``/v1/stats`` is non-empty and counted every request;
4. **graceful drain** — SIGTERM lands while a cold compile is
   in flight; the client still receives its result, the server drains
   and exits 0.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

N_CLIENTS = 8
DEDUP_WIDTH = 40  # ~1s cold: every client arrives inside the compile window
DRAIN_WIDTH = 50  # ~3s cold: SIGTERM reliably lands mid-request


def _client_worker(url: str, width: int, queue) -> None:
    """One client process: compile bv_<width> and report what it saw."""
    from repro.service import RemoteCompileService
    from repro.service.serialization import report_to_dict
    from repro.service.service import CompileRequest
    from repro.workloads import bv_circuit

    client = RemoteCompileService(url, timeout=300)
    report, fingerprint, status = client.compile_classified(
        CompileRequest(target=bv_circuit(width))
    )
    record = report_to_dict(report)
    record.pop("from_cache", None)  # only the paying client differs here
    queue.put(
        {
            "pid": os.getpid(),
            "fingerprint": fingerprint,
            "status": status,
            "report_json": json.dumps(record, sort_keys=True),
        }
    )


def _start_server() -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
    )
    line = process.stdout.readline().strip()
    if not line.startswith("serving on "):
        process.kill()
        raise SystemExit(f"server did not announce itself: {line!r}")
    host_port = line[len("serving on "):]
    return process, f"http://{host_port}"


def _without_timers(record: dict) -> str:
    """Canonical report JSON minus the wall-clock timers of each
    ``*_stats`` block (every other byte still compares)."""
    record = dict(record)
    for key, stats in record.items():
        if key.endswith("_stats") and isinstance(stats, dict):
            record[key] = {k: v for k, v in stats.items() if k != "timers"}
    return json.dumps(record, sort_keys=True)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main() -> int:
    context = multiprocessing.get_context("spawn")
    server, url = _start_server()
    print(f"server up at {url} (pid {server.pid})")
    try:
        # -- 1. eight processes, one cold compile --------------------------
        queue = context.Queue()
        workers = [
            context.Process(target=_client_worker, args=(url, DEDUP_WIDTH, queue))
            for _ in range(N_CLIENTS)
        ]
        for worker in workers:
            worker.start()
        results = [queue.get(timeout=300) for _ in workers]
        for worker in workers:
            worker.join(30)
        check(len(results) == N_CLIENTS, f"all {N_CLIENTS} clients answered")
        fingerprints = {r["fingerprint"] for r in results}
        check(len(fingerprints) == 1, "every client agreed on the fingerprint")
        payloads = {r["report_json"] for r in results}
        check(len(payloads) == 1, "every client received a bit-identical report")
        statuses = sorted(r["status"] for r in results)
        check(
            statuses.count("miss") <= 1,
            f"at most one client paid for the compile (statuses: {statuses})",
        )

        from repro.service import RemoteCompileService

        observer = RemoteCompileService(url, timeout=60)
        stats = observer.stats()["stats"]
        check(
            stats["counters"].get("misses") == 1,
            f"server compiled exactly once (misses={stats['counters'].get('misses')})",
        )
        check(
            stats["counters"].get("requests", 0) >= N_CLIENTS,
            "server counted every client request",
        )
        check(bool(stats["counters"]), "/v1/stats is non-empty")

        # -- 2. the wire report equals a local compile ---------------------
        from repro.compile_api import caqr_compile
        from repro.service.serialization import report_to_dict
        from repro.workloads import bv_circuit

        local = report_to_dict(caqr_compile(bv_circuit(DEDUP_WIDTH)))
        local.pop("from_cache", None)
        remote = json.loads(results[0]["report_json"])
        check(
            _without_timers(local) == _without_timers(remote),
            "remote report equals the in-process compile field-for-field "
            "(wall-clock stats timers aside)",
        )

        # -- 3. SIGTERM mid-request drains cleanly -------------------------
        queue = context.Queue()
        straggler = context.Process(
            target=_client_worker, args=(url, DRAIN_WIDTH, queue)
        )
        straggler.start()
        time.sleep(1.0)  # let the cold compile get going
        server.send_signal(signal.SIGTERM)
        late = queue.get(timeout=300)
        straggler.join(30)
        check(
            late["status"] in ("miss", "hit", "inflight"),
            "in-flight request completed through the drain",
        )
        code = server.wait(timeout=60)
        check(code == 0, f"server exited cleanly after SIGTERM (code {code})")
        tail = server.stdout.read()
        check("server drained and stopped" in tail, "server logged a clean drain")
    finally:
        if server.poll() is None:
            server.kill()
    print("server smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
