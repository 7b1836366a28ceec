"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script once per run.  It sets the workload up
and prints ``ready``; that moment ends the set-up time ``run.py``
measures.  It then runs the timed region, stops every process it
started, checks the outputs outside the timed region, and prints one
JSON line of raw results.

With ``--trace 1`` the run measures twice, untraced and then traced,
and reports per-layer metrics plus the difference (the tracing
overhead).  Spans are written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from spans import CLIENT_POINTS, COMPILER_POINTS, Tracer, load_spans  # noqa: E402
from speed import CoreSpeeds, HostSpeed, probe_cpu_s, short_scale  # noqa: E402

#: Warm hits timed per compile-workload run (120 lie beyond hit p90),
#: scaled in groups by the in-thread probes between them.
LOCAL_HITS = 1200
HIT_GROUP = 10
#: A serve run goes on past ``--seconds`` (up to twice as long) until ten
#: samples lie beyond miss p90 and a hundred beyond hit p90.
MIN_HITS = 1000
MIN_MISSES = 100
CLIENT_THREADS = 2
REQUEST_TIMEOUT_S = 120.0


# -- statistics ------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def geomean(values: List[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality(reports) -> Dict[str, float]:
    """Output-quality sums over a fixed report set (deterministic)."""
    # sorted: the sum of logs must not depend on the seeded job order
    esp = sorted(
        r.sim_stats.values["esp"]
        for r in reports
        if r.sim_stats is not None and "esp" in r.sim_stats.values
    )
    return {
        "qubits_sum": float(sum(r.metrics.qubits_used for r in reports)),
        "depth_sum": float(sum(r.metrics.depth for r in reports)),
        "swap_sum": float(sum(r.metrics.swap_count for r in reports)),
        "esp_geomean": geomean(esp),
    }


# -- process tree ----------------------------------------------------------------


def _children() -> Dict[int, List[int]]:
    tree: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def peak_rss_mb(roots: List[int]) -> float:
    """Sum of peak RSS (VmHWM) over *roots* and all their descendants."""
    tree = _children()
    pending, total_kb = list(roots), 0
    while pending:
        pid = pending.pop()
        pending.extend(tree.get(pid, []))
        try:
            with open(f"/proc/{pid}/status", "r") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# -- compile workloads -----------------------------------------------------------


class CompileWorkload:
    """In-process ``caqr_compile`` calls with the cache off.

    The timed region is one pass over the job list (fixed work, 25-40 s
    on a 2-core box; a second pass would meet a portfolio that has
    learned its lane order from the first).  Every compile is a miss, so
    ``miss_*`` and ``requests_per_s`` describe the pass.  ``hit_*`` comes
    from a fixed number of warm hits on one key of an in-process memory
    cache, primed during set-up and run in batches between the compiles:
    every run must print every end-to-end metric with a measured value.
    All of these times are in reference seconds (``speed.py``).
    """

    def __init__(self, name: str, seed: int, trace: bool):
        del trace  # the tracer is installed by start_tracing
        self.name = name
        self.seed = seed
        self.job_fn = {
            "compile-matrix": inputs.compile_matrix_jobs,
            "search-race": inputs.search_race_jobs,
        }[name]

    def setup(self) -> None:
        from repro import compile_api
        from repro.hardware.mumbai import ibm_mumbai
        from repro.service.service import CompileService

        self.api = compile_api
        self.backend = ibm_mumbai()
        self.jobs = self.job_fn(self.seed)
        self.hit_job = inputs.LOCAL_HIT_JOB
        self.sources = {
            job.name: inputs.circuit(job.name) for job in self.jobs + [self.hit_job]
        }
        self.service = CompileService()
        self._compile(self.hit_job, cache=self.service)
        self._warm_up()

    def _warm_up(self) -> None:
        """One small compile per option set: lazy imports, pools, lane state."""
        warm = inputs.circuit("bv6")
        kinds = {
            tuple((k, v) for k, v in sorted(job.options.items()) if k != "qubit_limit")
            for job in self.jobs
        }
        for kind in sorted(kinds):
            options = dict(kind)
            if options.get("mode") == "qubit_budget":
                options["qubit_limit"] = 4
            self.api.caqr_compile(warm, self.backend, **options)

    def _compile(self, job, **extra):
        return self.api.caqr_compile(
            self.sources[job.name], self.backend, **job.options, **extra
        )

    def measure(self, seconds: float, tracer=None) -> Dict[str, Any]:
        del seconds  # fixed work: one pass
        # every compile is converted to reference seconds by the samples of
        # the cores its work ran on, every hit by the in-thread probes
        # around it (speed.py); pool workers started in set-up keep every
        # core
        with CoreSpeeds() as speeds:
            start = time.perf_counter()
            groups, compiles, reports = self._pass(tracer)
            measured = time.perf_counter() - start
        hits, stale = [], 0
        for hit_times, before, after, group_stale in groups:
            scale = short_scale(before, after)
            hits += [t * scale for t in hit_times]
            stale += group_stale
        wall = [end - begin for begin, end, _ in compiles]
        times = [(end - begin) * speeds.scale(begin, end, cpu) for begin, end, cpu in compiles]
        cold = sum(times)
        return {
            "hits": hits,
            "misses": times,
            "requests_per_s": len(times) / cold,
            "failed": stale,
            "attempted": len(times) + len(hits),
            "measured_s": measured,
            "samples": {
                "compiles": len(times),
                "hits": len(hits),
                "speed_samples": speeds.samples,
                "compile_wall_clock_s": sum(wall),
            },
            "reports": reports,
            "fresh": reports,
            # the compiles of the pass, without the interleaved hits
            "cold": (cold, times, reports),
            "unit_s": cold,
            "rss_mb": peak_rss_mb([os.getpid()]),
        }

    def _pass(self, tracer):
        """The timed pass: (hit groups, compile intervals, reports).

        The warm hits run in equal batches before each compile, so they
        span the pass, in groups of ``HIT_GROUP`` between two short
        probes.  A hit is synchronous in-process work, timed in thread CPU
        time like the probe, so a portfolio lane still running beside it
        does not count.
        """
        per_batch = LOCAL_HITS // len(self.jobs) // HIT_GROUP
        groups, compiles, reports = [], [], []
        for job in self.jobs:
            if tracer is not None:
                tracer.set_request("hit")
            before = probe_cpu_s()
            for _ in range(per_batch):
                hit_times, stale = [], 0
                for _ in range(HIT_GROUP):
                    begin = time.thread_time()
                    report = self._compile(self.hit_job, cache=self.service)
                    hit_times.append(time.thread_time() - begin)
                    stale += not report.from_cache
                after = probe_cpu_s()
                groups.append((hit_times, before, after, stale))
                before = after
            if tracer is not None:
                tracer.set_request(f"cold:{job.label}")
            begin, cpu = time.perf_counter(), time.thread_time()
            reports.append(self._compile(job))
            compiles.append((begin, time.perf_counter(), time.thread_time() - cpu))
        return groups, compiles, reports

    def service_stats(self) -> Dict[str, Any]:
        return {"backends": [self.service.stats.to_dict()]}

    def outputs(self, data):
        """(report, source circuit, backend) for every distinct output."""
        return [
            (report, self.sources[job.name], self.backend)
            for job, report in zip(self.jobs, data["reports"])
        ]

    def chain_greedy(self, data) -> Dict[int, int]:
        return {
            id(report): inputs.greedy_width(self.sources[job.name])
            for job, report in zip(self.jobs, data["reports"])
            if job.options.get("strategy") == "chain"
        }

    def start_tracing(self, tracer: Tracer) -> None:
        # the untraced pass taught the portfolio its lane order: start the
        # traced pass from the same state set-up left
        _drop_portfolio()
        self._warm_up()
        tracer.install(COMPILER_POINTS)

    def server_spans(self) -> List[Dict[str, Any]]:
        return []

    def close(self) -> None:
        _drop_portfolio()


def _drop_portfolio() -> None:
    """Shut the process-wide portfolio's pool down and forget the service."""
    from repro.service.portfolio import (
        peek_default_portfolio_service,
        reset_default_portfolio_service,
    )

    service = peek_default_portfolio_service()
    if service is not None:
        service.close()
    reset_default_portfolio_service()


# -- served workloads ------------------------------------------------------------


def _spawn(command: List[str]) -> tuple:
    """Start a ``repro`` server process; return it with its base URL."""
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
    )
    line = process.stdout.readline().strip()
    if not line.startswith("serving on "):
        _stop(process)
        raise RuntimeError(f"{' '.join(command[-3:])} did not start: {line!r}")
    return process, "http://" + line[len("serving on "):].split(" ")[0]


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


class ServeWorkload:
    """Closed-loop clients against ``repro serve`` (serve-mixed) or against
    ``repro gateway`` in front of two ``repro serve`` processes (fleet-shard).

    Every server runs with a memory-only cache (no ``CAQR_CACHE_DIR``).
    Two client threads each hold one keep-alive ``RemoteCompileService``
    and send their next request only when the previous one answered.
    Request times are in reference seconds (``speed.py``).
    """

    def __init__(self, name: str, seed: int, trace: bool):
        self.name = name
        self.seed = seed
        self.trace = trace
        self.speed: Optional[HostSpeed] = None
        servers = 2 if name == "fleet-shard" else 1
        self.inputs = inputs.SERVED_INPUTS[name]
        self.servers: List[subprocess.Popen] = []
        self.gateway: Optional[subprocess.Popen] = None
        self.client = None
        self.span_files = [
            os.path.join(OUT_DIR, f"spans-{name}-{seed}-server{index}.json")
            for index in range(servers)
        ]

    def setup(self) -> None:
        from repro.service import RemoteCompileService

        self.server_urls = []
        for span_file in self.span_files:
            if self.trace:
                os.makedirs(OUT_DIR, exist_ok=True)
                command = [sys.executable, os.path.join(HERE, "serve_boot.py"), span_file]
            else:
                command = [sys.executable, "-m", "repro"]
            server, url = _spawn(command + ["serve", "--port", "0"])
            self.servers.append(server)
            self.server_urls.append(url)
        self.url = self.server_urls[0]
        if self.name == "fleet-shard":
            command = [sys.executable, "-m", "repro", "gateway", "--port", "0"]
            for url in self.server_urls:
                command += ["--backend", url]
            self.gateway, self.url = _spawn(command)
        self.client = RemoteCompileService(self.url, timeout=REQUEST_TIMEOUT_S)
        self.client.health()
        self.hits, self.stream = self.inputs(self.seed)
        # warm-up: one miss circuit under every miss mode, sent to each
        # server directly, so every server has paid its lazy imports
        # before the timed misses
        _, warm = self.inputs(self.seed + 1_000_003)
        for url in self.server_urls:
            direct = RemoteCompileService(url, timeout=REQUEST_TIMEOUT_S)
            try:
                for op in warm.miss_group():
                    direct.compile_classified(op.request)
            finally:
                direct.close()
        # priming: the hit keys' one cold compile each
        self.prime_reports = []
        for op in inputs.seeded_order(self.seed, self.hits):
            report, fingerprint, _ = self.client.compile_classified(op.request)
            self.prime_reports.append((fingerprint, report, op))

    def _loop(self, deadlines, records: List[tuple], errors: List[str], tracer) -> None:
        from repro.service import RemoteCompileService

        client = RemoteCompileService(self.url, timeout=REQUEST_TIMEOUT_S)
        soft, hard = deadlines
        try:
            while True:
                now = time.perf_counter()
                if now >= hard or (now >= soft and self._enough(records)):
                    break
                op = self.stream.next()
                if tracer is not None:
                    tracer.set_request(f"{threading.get_ident()}-{len(records)}")
                begin = time.perf_counter()
                try:
                    report, fingerprint, _ = client.compile_classified(op.request)
                except Exception as exc:  # counted as a failed request
                    errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                    continue
                records.append((op, (begin, time.perf_counter()), report, fingerprint))
        finally:
            client.close()

    @staticmethod
    def _enough(records: List[tuple]) -> bool:
        misses = sum(1 for op, *_ in records if op.kind == "miss")
        return misses >= MIN_MISSES and len(records) - misses >= MIN_HITS

    def measure(self, seconds: float, tracer=None) -> Dict[str, Any]:
        records: List[tuple] = []
        errors: List[str] = []
        self.speed = HostSpeed()
        start = time.perf_counter()
        deadlines = (start + seconds, start + 2 * seconds)
        threads = [
            threading.Thread(target=self._loop, args=(deadlines, records, errors, tracer))
            for _ in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        self.speed.stop()
        measured = end - start
        hits, misses = [], []
        for op, (begin, done), _, _ in records:
            latency = (done - begin) * self.speed.scale(begin, done)
            (hits if op.kind == "hit" else misses).append(latency)
        wrong = sum(
            1 for op, _, report, _ in records if report.from_cache != (op.kind == "hit")
        )
        fresh = {fp: report for op, _, report, fp in records if not report.from_cache}
        distinct = {fingerprint: (report, op) for fingerprint, report, op in self.prime_reports}
        for op, _, report, fingerprint in records:
            distinct.setdefault(fingerprint, (report, op))
        return {
            "hits": hits,
            "misses": misses,
            "requests_per_s": len(records) / (measured * self.speed.scale(start, end)),
            "unit_s": sum(hits + misses) / max(1, len(hits) + len(misses)),
            "failed": len(errors) + wrong,
            "errors": errors[:5],
            "attempted": len(records) + len(errors),
            "measured_s": measured,
            "samples": {
                "hits": len(hits),
                "misses": len(misses),
                "speed_samples": len(self.speed.samples),
                "requests_per_wall_s": len(records) / measured,
            },
            "distinct": list(distinct.values()),
            "fresh": list(fresh.values()),
            "rss_mb": peak_rss_mb(
                [p.pid for p in self.servers + [self.gateway] if p is not None]
            ),
            # the cold work: the first MIN_MISSES miss requests, a fixed
            # count; the quality sums are over the primed reports
            "cold": (
                sum(misses[:MIN_MISSES]),
                misses[:MIN_MISSES],
                [report for _, report, _ in self.prime_reports],
            ),
        }

    def service_stats(self) -> Dict[str, Any]:
        payload = self.client.stats()
        if self.gateway is None:
            return {"backends": [payload["stats"]]}
        return {
            "backends": [b["stats"] for _, b in sorted(payload["backends"].items())],
            "gateway": payload["gateway"]["stats"],
        }

    def outputs(self, data):
        return [
            (report, op.source, op.request.backend) for report, op in data["distinct"]
        ]

    def chain_greedy(self, data) -> Dict[int, int]:
        return {}

    def start_tracing(self, tracer: Tracer) -> None:
        tracer.install(CLIENT_POINTS)
        for server in self.servers:
            server.send_signal(signal.SIGUSR1)

    def server_spans(self) -> List[Dict[str, Any]]:
        """Every server's spans; a traced half without them is a failed run."""
        spans = []
        for span_file in self.span_files:
            if not os.path.isfile(span_file):
                raise RuntimeError(f"a traced server wrote no span file ({span_file})")
            spans += load_spans(span_file)
        if not spans:
            raise RuntimeError("the traced servers recorded no spans")
        return spans

    def close(self) -> None:
        if self.speed is not None:
            self.speed.close()
        if self.client is not None:
            self.client.close()
        # the gateway first, so no backend sees it as a lost peer
        for process in [self.gateway] + self.servers:
            if process is not None:
                _stop(process)


WORKLOADS = {
    "compile-matrix": CompileWorkload,
    "search-race": CompileWorkload,
    "serve-mixed": ServeWorkload,
    "fleet-shard": ServeWorkload,
}


# -- one run ---------------------------------------------------------------------


def end_to_end(data: Dict[str, Any]) -> Dict[str, float]:
    wall, times, reports = data["cold"]
    hits_ms = [1000.0 * t for t in data["hits"]]
    misses_ms = [1000.0 * t for t in data["misses"]]
    metrics = {
        "peak_rss_mb": data["rss_mb"],
        "compile_wall_s": wall,
        "compile_geomean_s": geomean(times),
        "hit_p50_ms": percentile(hits_ms, 0.5),
        "hit_p90_ms": percentile(hits_ms, 0.9),
        "miss_p50_ms": percentile(misses_ms, 0.5),
        "miss_p90_ms": percentile(misses_ms, 0.9),
        "requests_per_s": data["requests_per_s"],
    }
    metrics.update(quality(reports))
    return metrics


def check_outputs(workload, data) -> List[str]:
    errors = []
    for report, source, backend in workload.outputs(data):
        for error in checks.output_errors(report.circuit, source, backend):
            errors.append(f"{source.name}/{report.mode}: {error}")
    return errors


def run(workload, seconds: float, trace: bool) -> Dict[str, Any]:
    if trace:
        untraced = workload.measure(seconds / 2)
        tracer = Tracer()
        workload.start_tracing(tracer)
        before = workload.service_stats()
        data = workload.measure(seconds / 2, tracer)
        after = workload.service_stats()
        tracer.uninstall()
    else:
        data = workload.measure(seconds)
    workload.close()
    errors = check_outputs(workload, data)
    result = {
        "correct": not errors and data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "errors": (errors + data.get("errors", []))[:10],
        "samples": data["samples"],
    }
    if not trace:
        result["metrics"] = end_to_end(data)
        return result
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"spans-{workload.name}-{workload.seed}.json"))
    # the warm-hit probe's spans belong to the service layers, which the
    # /v1/stats-style sink already reports
    spans = [s.as_dict() for s in tracer.spans if s.request != "hit"]
    spans += workload.server_spans()
    result["metrics"] = layers.compute(
        spans,
        data["fresh"],
        layers.stats_delta(before, after),
        workload.chain_greedy(data),
        # the workload's unit of end-to-end time: a pass, or a mean request
        data["unit_s"] - untraced["unit_s"],
    )
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.workload, args.seed, bool(args.trace))
    # a terminated run still stops its server and pool workers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        workload.setup()
        print("ready", flush=True)
        result = run(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
