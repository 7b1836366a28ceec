#!/usr/bin/env python
"""Load generator for the networked compile service.

Drives a configurable request mix against a ``repro serve`` instance and
reports latency percentiles (p50/p90/p99/max) and the error rate, per
operation and overall.  Point it at a running server with ``--url``, or
let it self-host one on a background thread (loopback, port 0, request
log enabled) when ``--url`` is omitted::

    PYTHONPATH=src python scripts/loadgen.py --duration 10 --rps 50
    PYTHONPATH=src python scripts/loadgen.py --url http://host:8787 \
        --mix warm=0.6,cold=0.2,batch=0.1,portfolio=0.1

Operations:

* ``warm`` — repeat compile of one fixed circuit: after the first hit
  this exercises the encoded-envelope fast path;
* ``cold`` — every request mints a fresh fingerprint (the seed varies),
  measuring the full compile path;
* ``batch`` — a 3-member ``/v1/compile_batch`` of warm keys;
* ``portfolio`` — a warm ``strategy="portfolio"`` compile;
* ``shard`` — round-robins one circuit over several distinct synthetic
  calibrations, so requests spread across cache shards — and, through a
  ``repro gateway``, across backends (each calibration's shard digest
  pins it to one ring owner).

``--fleet`` switches the default mix to a shard-heavy profile and, when
the target turns out to be a gateway (its ``/v1/stats`` carries a
``backends`` map), prints per-backend request counts and hit rates
after the run.  With no ``--url`` it self-hosts a miniature fleet —
three backend threads sharing one request log behind a gateway thread —
instead of a single server.

``--smoke`` runs a short self-checking pass for CI: it fails (exit 1) on
any 5xx/transport error, on a warm p99 above ``--p99-budget``, on an
unparseable ``/v1/metrics`` body, on a compile server that served no
warm repeat from its body digest (``caqr_body_key_hits_total``), or
(self-hosted) on a request-log line that is not schema-complete JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.exceptions import RemoteServiceError  # noqa: E402
from repro.service import (  # noqa: E402
    CompileService,
    RemoteCompileService,
    start_gateway_thread,
    start_server_thread,
)
from repro.service.reqlog import RECORD_FIELDS, RequestLog  # noqa: E402
from repro.service.service import CompileRequest  # noqa: E402
from repro.workloads import bv_circuit  # noqa: E402

DEFAULT_MIX = "warm=0.7,cold=0.1,batch=0.1,portfolio=0.1"
FLEET_MIX = "warm=0.35,shard=0.45,cold=0.1,batch=0.1"
OPERATIONS = ("warm", "cold", "batch", "portfolio", "shard")
N_SHARD_CALIBRATIONS = 6


def parse_mix(text: str):
    """``warm=0.7,cold=0.3`` -> normalized ``{op: weight}``."""
    weights = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        if name not in OPERATIONS:
            raise SystemExit(f"unknown operation {name!r} in --mix (pick from {OPERATIONS})")
        weights[name] = float(value)
    total = sum(weights.values())
    if total <= 0:
        raise SystemExit("--mix weights must sum to something positive")
    return {name: weight / total for name, weight in weights.items()}


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values)) - 1))
    return sorted_values[rank]


class Recorder:
    """Thread-safe (op, latency, error) sample sink."""

    def __init__(self):
        self._lock = threading.Lock()
        self.latencies = {name: [] for name in OPERATIONS}
        self.errors = {name: 0 for name in OPERATIONS}
        self.server_errors = 0  # 5xx / transport failures specifically

    def record(self, op, seconds, error=None, server_error=False):
        with self._lock:
            if error is None:
                self.latencies[op].append(seconds)
            else:
                self.errors[op] += 1
                if server_error:
                    self.server_errors += 1

    def summary(self):
        with self._lock:
            rows = {}
            everything = []
            total_errors = 0
            for op in OPERATIONS:
                values = sorted(self.latencies[op])
                errors = self.errors[op]
                total_errors += errors
                if not values and not errors:
                    continue
                everything.extend(values)
                rows[op] = {
                    "count": len(values),
                    "errors": errors,
                    "p50_ms": percentile(values, 0.50) * 1000,
                    "p90_ms": percentile(values, 0.90) * 1000,
                    "p99_ms": percentile(values, 0.99) * 1000,
                    "max_ms": (values[-1] * 1000) if values else 0.0,
                }
            everything.sort()
            total = len(everything) + total_errors
            rows["overall"] = {
                "count": len(everything),
                "errors": total_errors,
                "error_rate": (total_errors / total) if total else 0.0,
                "server_errors": self.server_errors,
                "p50_ms": percentile(everything, 0.50) * 1000,
                "p90_ms": percentile(everything, 0.90) * 1000,
                "p99_ms": percentile(everything, 0.99) * 1000,
                "max_ms": (everything[-1] * 1000) if everything else 0.0,
            }
            return rows


class Mix:
    """Weighted operation picker + per-op request factories."""

    def __init__(self, weights, width, seed):
        self.names = sorted(weights)
        self.weights = [weights[name] for name in self.names]
        self.width = width
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._cold_counter = 0
        self.warm_request = CompileRequest(target=bv_circuit(width))
        self.portfolio_request = CompileRequest(
            target=bv_circuit(width), strategy="portfolio", objective="qubits"
        )
        self.batch_requests = [
            CompileRequest(target=bv_circuit(width + offset))
            for offset in (0, 1, 2)
        ]
        from repro.hardware import generic_backend, line

        # distinct calibration seeds -> distinct shard digests: through a
        # gateway each one consistently lands on its own ring owner
        self.shard_requests = [
            CompileRequest(
                target=bv_circuit(width),
                backend=generic_backend(line(width + 2), seed=1000 + k),
            )
            for k in range(N_SHARD_CALIBRATIONS)
        ]
        self._shard_counter = 0

    def pick(self):
        with self._lock:
            return self._rng.choices(self.names, weights=self.weights)[0]

    def shard_request(self):
        with self._lock:
            self._shard_counter += 1
            return self.shard_requests[
                self._shard_counter % len(self.shard_requests)
            ]

    def cold_request(self):
        with self._lock:
            self._cold_counter += 1
            # a fresh seed mints a fresh fingerprint: a genuine cold miss
            return CompileRequest(target=bv_circuit(self.width), seed=1000 + self._cold_counter)


def run_op(client, mix, op):
    if op == "warm":
        client.compile_classified(mix.warm_request)
    elif op == "cold":
        client.compile_classified(mix.cold_request())
    elif op == "batch":
        client.compile_batch(mix.batch_requests)
    elif op == "portfolio":
        client.compile_classified(mix.portfolio_request)
    elif op == "shard":
        client.compile_classified(mix.shard_request())


def worker(url, mix, recorder, deadline, interval, timeout):
    client = RemoteCompileService(url, timeout=timeout, retries=0)
    try:
        while time.monotonic() < deadline:
            op = mix.pick()
            start = time.perf_counter()
            try:
                run_op(client, mix, op)
            except RemoteServiceError as exc:
                status = getattr(exc, "status", None)
                recorder.record(
                    op, 0.0, error=exc,
                    server_error=status is None or status >= 500,
                )
            else:
                recorder.record(op, time.perf_counter() - start)
            # open-loop pacing: hold the per-thread rate steady
            sleep_for = interval - (time.perf_counter() - start)
            if sleep_for > 0:
                time.sleep(sleep_for)
    finally:
        client.close()


def prime(url, mix, weights, timeout):
    """Warm every repeated lane once so the run measures steady state."""
    client = RemoteCompileService(url, timeout=timeout, retries=0)
    try:
        client.compile_classified(mix.warm_request)
        if weights.get("portfolio"):
            client.compile_classified(mix.portfolio_request)
        if weights.get("batch"):
            client.compile_batch(mix.batch_requests)
        if weights.get("shard"):
            for request in mix.shard_requests:
                client.compile_classified(request)
    finally:
        client.close()


def print_fleet_report(stats_payload):
    """Per-backend request counts and hit rates (gateway targets only)."""
    backends = stats_payload.get("backends")
    if not isinstance(backends, dict) or not backends:
        return
    print("\nper-backend (gateway view):")
    header = f"{'backend':<28} {'requests':>9} {'hits':>7} {'misses':>7} {'hit rate':>9}"
    print(header)
    print("-" * len(header))
    for url in sorted(backends):
        counters = backends[url].get("stats", {}).get("counters", {})
        hits = counters.get("hits", 0) + counters.get("inflight_hits", 0)
        misses = counters.get("misses", 0)
        requests = counters.get("requests", 0)
        served = hits + misses
        rate = (hits / served) if served else 0.0
        print(f"{url:<28} {requests:>9} {hits:>7} {misses:>7} {rate:>9.1%}")


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def metric_value(metrics_body, name):
    """One unlabelled sample of a Prometheus body (0.0 when absent)."""
    for line in metrics_body.splitlines():
        if line.startswith(name + " "):
            return float(line.split(" ")[1])
    return 0.0


def smoke_checks(summary, metrics_body, log_path, p99_budget):
    overall = summary["overall"]
    check(overall["count"] > 0, f"served {overall['count']} requests")
    check(
        overall["server_errors"] == 0,
        "zero 5xx / transport errors",
    )
    check(overall["errors"] == 0, "zero request errors of any kind")
    warm = summary.get("warm", {})
    budget_ms = p99_budget * 1000
    check(
        warm.get("p99_ms", 0.0) <= budget_ms,
        f"warm p99 {warm.get('p99_ms', 0.0):.1f}ms within {budget_ms:.0f}ms",
    )
    check(
        metrics_body.startswith("# HELP")
        and (
            "caqr_requests_total" in metrics_body  # a compile server
            or "caqr_gateway_http_requests_total" in metrics_body  # a gateway
        ),
        "/v1/metrics answers a Prometheus exposition body",
    )
    if "caqr_requests_total" in metrics_body:
        # a compile server answers repeat warm bodies from their digest;
        # zero such hits after a warm phase means that path stopped firing
        body_key_hits = metric_value(metrics_body, "caqr_body_key_hits_total")
        check(body_key_hits > 0, f"{body_key_hits:.0f} warm repeats served by body digest")
    if log_path is not None:
        lines = [
            line for line in open(log_path, encoding="utf-8").read().splitlines() if line
        ]
        check(len(lines) >= overall["count"], f"request log holds {len(lines)} records")
        bad_schema = bad_status = 0
        for line in lines:
            record = json.loads(line)
            if any(field not in record for field in RECORD_FIELDS):
                bad_schema += 1
            if record["status"] >= 500:
                bad_status += 1
        check(bad_schema == 0, f"all {len(lines)} log records are schema-complete")
        check(bad_status == 0, "no 5xx recorded in the request log")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", help="target server (self-hosts one when omitted)")
    parser.add_argument("--duration", type=float, default=10.0, help="seconds to run")
    parser.add_argument("--rps", type=float, default=20.0, help="target requests/second across all threads")
    parser.add_argument("--threads", type=int, default=4, help="client threads")
    parser.add_argument("--mix", default=DEFAULT_MIX, help=f"operation weights (default {DEFAULT_MIX})")
    parser.add_argument("--width", type=int, default=5, help="BV circuit width for the workload")
    parser.add_argument("--seed", type=int, default=11, help="mix-picker RNG seed")
    parser.add_argument("--timeout", type=float, default=120.0, help="per-request client timeout")
    parser.add_argument("--p99-budget", type=float, default=2.0, help="smoke gate: max warm p99 seconds")
    parser.add_argument("--smoke", action="store_true", help="short self-checking CI pass")
    parser.add_argument("--json", action="store_true", help="emit the summary as JSON")
    parser.add_argument(
        "--fleet", action="store_true",
        help=f"shard-heavy profile for gateway targets (mix {FLEET_MIX}) "
        "plus a per-backend hit-rate report",
    )
    args = parser.parse_args(argv)

    if args.fleet and args.mix == DEFAULT_MIX:
        args.mix = FLEET_MIX
    if args.smoke:
        args.duration = min(args.duration, 5.0)
        args.rps = min(args.rps, 20.0)

    weights = parse_mix(args.mix)
    mix = Mix(weights, args.width, args.seed)
    recorder = Recorder()

    handles = []
    shared_log = None
    log_path = None
    url = args.url
    try:
        if url is None:
            log_path = os.path.join(
                REPO_ROOT, "benchmarks", "results", f"loadgen-requests-{os.getpid()}.jsonl"
            )
            os.makedirs(os.path.dirname(log_path), exist_ok=True)
            if args.fleet:
                # a real (if miniature) fleet: three backend threads
                # sharing one request log behind a gateway thread
                shared_log = RequestLog(log_path)
                backends = [
                    start_server_thread(
                        service=CompileService(), request_log=shared_log
                    )
                    for _ in range(3)
                ]
                handles.extend(backends)
                gateway = start_gateway_thread(
                    backends=[h.url for h in backends], probe_interval=0.5
                )
                handles.append(gateway)
                url = gateway.url
                print(
                    f"self-hosted fleet: gateway {url} over "
                    f"{[h.url for h in backends]} (request log: {log_path})"
                )
            else:
                handles.append(
                    start_server_thread(
                        service=CompileService(), request_log=log_path
                    )
                )
                url = handles[0].url
                print(f"self-hosted server at {url} (request log: {log_path})")

        prime(url, mix, weights, args.timeout)
        threads_n = max(1, args.threads)
        interval = threads_n / max(args.rps, 0.1)
        deadline = time.monotonic() + args.duration
        threads = [
            threading.Thread(
                target=worker,
                args=(url, mix, recorder, deadline, interval, args.timeout),
                daemon=True,
            )
            for _ in range(threads_n)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(args.duration + args.timeout)
        elapsed = time.monotonic() - started

        observer = RemoteCompileService(url, timeout=args.timeout)
        try:
            metrics_body = observer.metrics()
            stats_payload = observer.stats() if args.fleet else {}
        finally:
            observer.close()
    finally:
        for handle in reversed(handles):  # gateway first, then backends
            handle.stop()
        if shared_log is not None:
            shared_log.close()

    summary = recorder.summary()
    overall = summary["overall"]
    achieved = overall["count"] / elapsed if elapsed > 0 else 0.0
    if args.json:
        print(json.dumps({"elapsed_s": elapsed, "achieved_rps": achieved, "summary": summary}, indent=2, sort_keys=True))
    else:
        print(f"\nloadgen: {overall['count']} ok / {overall['errors']} errors "
              f"in {elapsed:.1f}s ({achieved:.1f} rps achieved)")
        header = f"{'op':<10} {'count':>6} {'errors':>6} {'p50ms':>8} {'p90ms':>8} {'p99ms':>8} {'maxms':>8}"
        print(header)
        print("-" * len(header))
        for op in (*OPERATIONS, "overall"):
            row = summary.get(op)
            if row is None:
                continue
            print(f"{op:<10} {row['count']:>6} {row['errors']:>6} "
                  f"{row['p50_ms']:>8.1f} {row['p90_ms']:>8.1f} "
                  f"{row['p99_ms']:>8.1f} {row['max_ms']:>8.1f}")
        print(f"error rate: {overall['error_rate']:.2%}")

    if args.fleet:
        print_fleet_report(stats_payload)

    if args.smoke:
        smoke_checks(summary, metrics_body, log_path, args.p99_budget)
        print("loadgen smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
