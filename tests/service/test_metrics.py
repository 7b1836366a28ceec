"""Observability layer: histograms, Prometheus exporter, request logs.

The renderer tests parse the exposition body back with a strict
mini-parser instead of substring checks, so a malformed line (bad label
escaping, missing TYPE, non-monotone buckets) fails loudly.  The
endpoint tests drive a real server thread: ``GET /v1/metrics`` must
yield a parseable body whose counters/histograms reflect the requests
just served, and the JSONL request log must carry the full stable
schema per line.  The lint tests scrape a server and a gateway twice
around a cold compile and a warm hit.
"""

import http.client
import io
import json
import math
import re

import pytest

from repro.exceptions import ServiceError
from repro.hardware import generic_backend, line
from repro.service import (
    CompileService,
    DiskCache,
    RemoteCompileService,
    render_prometheus,
    start_gateway_thread,
    start_server_thread,
)
from repro.service.reqlog import RECORD_FIELDS, REQUEST_LOG_ENV, RequestLog
from repro.service.service import CompileRequest
from repro.stats import DEFAULT_BUCKETS, LatencyHistogram, Stats
from repro.workloads import bv_circuit

# -- a strict mini-parser for Prometheus text format 0.0.4 ---------------------

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """Parse an exposition body into ``(types, samples)``.

    ``types`` maps metric family -> kind; ``samples`` is a list of
    ``(name, labels_dict, value)``.  Asserts the structural rules the
    format demands: newline-terminated, HELP/TYPE comments well-formed,
    one TYPE per family, every sample line parseable.
    """
    assert text.endswith("\n"), "exposition body must end with a newline"
    types = {}
    samples = []
    for line in text.splitlines():
        assert line and line == line.strip(), f"bad line: {line!r}"
        if line.startswith("# HELP "):
            name, sep, help_text = line[len("# HELP ") :].partition(" ")
            assert sep and help_text, f"HELP without text: {line!r}"
        elif line.startswith("# TYPE "):
            name, sep, kind = line[len("# TYPE ") :].partition(" ")
            assert kind in ("counter", "gauge", "histogram"), line
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
        else:
            match = _SAMPLE.match(line)
            assert match, f"unparseable sample line: {line!r}"
            labels = dict(
                (k, v) for k, v in _LABEL.findall(match.group("labels") or "")
            )
            samples.append(
                (match.group("name"), labels, float(match.group("value")))
            )
    return types, samples


def family_of(name, types):
    """The declared family a sample belongs to (asserts one exists)."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        root = name[: -len(suffix)] if name.endswith(suffix) else None
        if root and types.get(root) == "histogram":
            return root
    raise AssertionError(f"sample {name!r} has no TYPE declaration")


def sample_value(samples, name, **labels):
    for sample_name, sample_labels, value in samples:
        if sample_name == name and sample_labels == labels:
            return value
    raise AssertionError(f"no sample {name} with labels {labels}")


# -- LatencyHistogram ----------------------------------------------------------


class TestLatencyHistogram:
    def test_observe_lands_in_le_bucket(self):
        hist = LatencyHistogram()
        hist.observe(0.003)  # 0.0025 < v <= 0.005
        assert hist.counts[DEFAULT_BUCKETS.index(0.005)] == 1
        hist.observe(0.001)  # exactly on a bound -> that bucket (le semantics)
        assert hist.counts[0] == 1
        hist.observe(120.0)  # past the last bound -> +Inf overflow
        assert hist.counts[-1] == 1
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.003 + 0.001 + 120.0)

    def test_cumulative_is_monotone_and_ends_at_inf_total(self):
        hist = LatencyHistogram()
        for value in (0.0001, 0.004, 0.004, 0.7, 999.0):
            hist.observe(value)
        pairs = hist.cumulative()
        assert len(pairs) == len(DEFAULT_BUCKETS) + 1
        counts = [count for _, count in pairs]
        assert counts == sorted(counts), "cumulative counts must be monotone"
        assert pairs[-1] == (math.inf, hist.count)
        bounds = [bound for bound, _ in pairs[:-1]]
        assert bounds == list(DEFAULT_BUCKETS)

    def test_quantile_estimates_bucket_upper_bound(self):
        hist = LatencyHistogram()
        for _ in range(9):
            hist.observe(0.001)
        hist.observe(10.0)
        assert hist.quantile(0.5) == 0.001
        assert hist.quantile(0.99) == 10.0
        assert LatencyHistogram().quantile(0.5) == 0.0

    def test_merge_adds_elementwise(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.observe(0.01)
        b.observe(0.01)
        b.observe(5.0)
        a.merge(b)
        assert a.count == 3
        assert a.sum == pytest.approx(0.02 + 5.0)
        assert b.count == 2, "merge must not mutate the source"

    def test_merge_rejects_different_buckets(self):
        a = LatencyHistogram()
        b = LatencyHistogram(buckets=(0.1, 1.0))
        with pytest.raises(ServiceError):
            a.merge(b)

    def test_invalid_buckets_rejected(self):
        for bad in ((), (1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(ServiceError):
                LatencyHistogram(buckets=bad)

    def test_dict_roundtrip(self):
        hist = LatencyHistogram(buckets=(0.01, 0.1, 1.0))
        hist.observe(0.05)
        hist.observe(7.0)
        clone = LatencyHistogram.from_dict(hist.to_dict())
        assert clone.buckets == hist.buckets
        assert clone.counts == hist.counts
        assert clone.sum == hist.sum
        with pytest.raises(ServiceError):
            LatencyHistogram.from_dict(
                {"buckets": [0.01], "counts": [1, 2, 3], "sum": 0.0}
            )


class TestStatsHistograms:
    def test_observe_creates_and_accumulates(self):
        stats = Stats()
        stats.observe("request_latency", 0.02)
        stats.observe("request_latency", 0.5)
        assert stats.histograms["request_latency"].count == 2
        snapshot = stats.to_dict()
        assert snapshot["histograms"]["request_latency"]["count"] == 2

    def test_to_dict_omits_empty_histograms(self):
        assert "histograms" not in Stats().to_dict()

    def test_merge_folds_histograms_and_keeps_counters(self):
        a, b = Stats(), Stats()
        a.count("requests", 2)
        a.observe("request_latency", 0.01)
        b.count("requests", 3)
        b.observe("request_latency", 0.2)
        b.observe("serialize", 0.001)
        a.merge(b)
        assert a.counters["requests"] == 5
        assert a.histograms["request_latency"].count == 2
        assert a.histograms["serialize"].count == 1


# -- the Prometheus renderer ---------------------------------------------------


class TestRenderPrometheus:
    def _stats(self):
        stats = Stats()
        stats.count("requests", 3)
        stats.count("http:/v1/compile", 2)
        stats.count("portfolio_wins:qs_min_depth", 1)
        stats.add_time("compile", 1.5)
        stats.set_value("shard_bytes:ab12", 4096)
        stats.observe("request_latency", 0.002)
        stats.observe("request_latency", 0.8)
        stats.observe("request_latency:/v1/compile", 0.002)
        return stats

    def test_golden_parse(self):
        body = render_prometheus(
            self._stats(), extra_gauges={"uptime_seconds": 12.5, "inflight": 0}
        )
        types, samples = parse_prometheus(body)
        # every sample belongs to a declared family of the right kind
        for name, _, _ in samples:
            family_of(name, types)
        assert types["caqr_requests_total"] == "counter"
        assert types["caqr_time_compile_seconds_total"] == "counter"
        assert types["caqr_shard_bytes"] == "gauge"
        assert types["caqr_request_latency_seconds"] == "histogram"
        assert sample_value(samples, "caqr_requests_total") == 3
        assert sample_value(samples, "caqr_http_total", path="/v1/compile") == 2
        assert (
            sample_value(
                samples, "caqr_portfolio_wins_total", strategy="qs_min_depth"
            )
            == 1
        )
        assert sample_value(samples, "caqr_time_compile_seconds_total") == 1.5
        assert sample_value(samples, "caqr_shard_bytes", shard="ab12") == 4096
        assert sample_value(samples, "caqr_uptime_seconds") == 12.5
        assert sample_value(samples, "caqr_inflight") == 0

    def test_histogram_buckets_monotone_and_inf_matches_count(self):
        body = render_prometheus(self._stats())
        types, samples = parse_prometheus(body)
        buckets = [
            (labels["le"], value)
            for name, labels, value in samples
            if name == "caqr_request_latency_seconds_bucket" and "path" not in labels
        ]
        assert buckets, "expected bucket samples for the overall histogram"
        assert buckets[-1][0] == "+Inf"
        bounds = [float("inf") if le == "+Inf" else float(le) for le, _ in buckets]
        assert bounds == sorted(bounds)
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        total = sample_value(samples, "caqr_request_latency_seconds_count")
        assert counts[-1] == total == 2
        labelled = sample_value(
            samples, "caqr_request_latency_seconds_count", path="/v1/compile"
        )
        assert labelled == 1

    def test_label_values_are_escaped(self):
        stats = Stats()
        stats.count('http:/v1/"x"\\y\nz', 1)
        body = render_prometheus(stats)
        types, samples = parse_prometheus(body)
        (sample,) = [s for s in samples if s[0] == "caqr_http_total"]
        # the parser only accepts well-escaped label values, so a parsed
        # sample proves the renderer escaped quote/backslash/newline
        assert sample[1]["path"] == '/v1/\\"x\\"\\\\y\\nz'

    def test_unlabelled_families_fall_back_to_key_label(self):
        stats = Stats()
        stats.count("made_up_family:some_key", 4)
        _, samples = parse_prometheus(render_prometheus(stats))
        assert (
            sample_value(samples, "caqr_made_up_family_total", key="some_key") == 4
        )

    def test_disk_bytes_written_is_a_counter(self, tmp_path):
        stats = Stats()
        disk = DiskCache(str(tmp_path), stats=stats)
        disk.put("a", "first entry")
        _, samples = parse_prometheus(render_prometheus(stats))
        first = sample_value(samples, "caqr_disk_bytes_written_total")
        disk.put("b", "second entry")
        types, samples = parse_prometheus(render_prometheus(stats))
        assert types["caqr_disk_bytes_written_total"] == "counter"
        assert "caqr_disk_bytes_written" not in types
        assert sample_value(samples, "caqr_disk_bytes_written_total") > first


# -- the request log -----------------------------------------------------------


class TestRequestLog:
    def test_record_schema_and_unknown_fields(self):
        sink = io.StringIO()
        log = RequestLog(sink)
        log.log(method="GET", path="/v1/health", status=200, extra="kept")
        (line,) = sink.getvalue().splitlines()
        record = json.loads(line)
        for field in RECORD_FIELDS:
            assert field in record
        assert record["method"] == "GET"
        assert record["fingerprint"] is None
        assert record["extra"] == "kept"
        assert isinstance(record["ts"], float)

    def test_close_leaves_foreign_handles_open(self):
        sink = io.StringIO()
        log = RequestLog(sink)
        log.close()
        assert not sink.closed
        log.log(method="GET")  # logging after close is a no-op, not a crash

    def test_path_target_appends(self, tmp_path):
        path = tmp_path / "nested" / "requests.jsonl"
        for status in (200, 404):
            log = RequestLog(str(path))
            log.log(method="GET", path="/", status=status)
            log.close()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert [r["status"] for r in records] == [200, 404]

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(REQUEST_LOG_ENV, raising=False)
        assert RequestLog.from_env() is None
        target = tmp_path / "env.jsonl"
        monkeypatch.setenv(REQUEST_LOG_ENV, str(target))
        log = RequestLog.from_env()
        assert log is not None
        log.log(method="GET")
        log.close()
        assert target.exists()


# -- the /v1/metrics endpoint + logged server ----------------------------------


@pytest.fixture
def logged_server(tmp_path):
    log_path = tmp_path / "requests.jsonl"
    handle = start_server_thread(
        service=CompileService(), request_log=str(log_path)
    )
    handle.log_path = log_path
    yield handle
    handle.stop()


@pytest.fixture
def client(logged_server):
    with RemoteCompileService(
        logged_server.url, timeout=120, backoff=0.01
    ) as remote:
        yield remote


class TestMetricsEndpoint:
    def test_metrics_body_parses_and_reflects_traffic(self, logged_server, client):
        request = CompileRequest(target=bv_circuit(5))
        for _ in range(3):  # miss, hit (stores envelope), envelope hit
            client.compile_classified(request)
        types, samples = parse_prometheus(client.metrics())
        for name, _, _ in samples:
            family_of(name, types)
        assert sample_value(samples, "caqr_requests_total") == 3
        assert sample_value(samples, "caqr_hits_total") == 2
        assert sample_value(samples, "caqr_envelope_stores_total") >= 1
        assert sample_value(samples, "caqr_envelope_hits_total") >= 1
        assert sample_value(samples, "caqr_uptime_seconds") > 0
        assert types["caqr_request_latency_seconds"] == "histogram"
        compiles = sample_value(
            samples,
            "caqr_request_latency_seconds_count",
            path="/v1/compile",
        )
        assert compiles == 3

    def test_metrics_content_type(self, logged_server):
        server = logged_server.server
        conn = http.client.HTTPConnection(server.host, server.port)
        try:
            conn.request("GET", "/v1/metrics")
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            content_type = response.getheader("Content-Type")
            assert content_type.startswith("text/plain")
            assert "version=0.0.4" in content_type
            parse_prometheus(body.decode("utf-8"))
        finally:
            conn.close()

    def test_health_and_stats_carry_process_gauges(self, client):
        health = client.health()
        assert health["uptime_s"] >= 0
        # the probing request itself is in flight while the gauge is read
        assert health["inflight"] == 1
        stats = client.stats()
        assert stats["uptime_s"] >= 0
        assert stats["inflight"] == 1
        assert stats["draining"] is False

    def test_envelope_invalidation(self, client):
        request = CompileRequest(target=bv_circuit(6))
        fingerprint = request.fingerprint()
        for _ in range(3):
            client.compile_classified(request)
        assert client.invalidate(fingerprint) is True
        _, _, status = client.compile_classified(request)
        assert status == "miss", "invalidate must drop the envelope too"
        counters = client.stats()["stats"]["counters"]
        assert counters["envelope_invalidations"] >= 1
        client.clear()
        _, _, status = client.compile_classified(request)
        assert status == "miss"

    def test_cold_compile_surfaces_engine_stats(self, client):
        # min_swap runs the SR router, whose route stats ride the report;
        # the server folds them into their own caqr_route_* prefix
        request = CompileRequest(
            target=bv_circuit(5),
            backend=generic_backend(line(7), seed=7),
            mode="min_swap",
        )
        client.compile_request(request)
        types, samples = parse_prometheus(client.metrics())
        route_counters = [
            name
            for name, _, _ in samples
            if name.startswith("caqr_route_") and name.endswith("_total")
        ]
        assert route_counters, "route stats never reached /v1/metrics"
        assert sample_value(samples, "caqr_route_slack_recomputes_total") > 0
        assert (
            types["caqr_route_time_sr_run_seconds_total"] == "counter"
        ), "route timers must render with the standard timer naming"
        # a warm repeat must not double-count the engine stats
        before = sample_value(samples, "caqr_route_slack_recomputes_total")
        client.compile_request(request)
        _, warm_samples = parse_prometheus(client.metrics())
        assert (
            sample_value(warm_samples, "caqr_route_slack_recomputes_total")
            == before
        )

    def test_sim_gauges_report_the_latest_compile(self, client):
        from repro.hardware import ibm_mumbai

        # gauges (ESP, ratios) are point readings: the export holds the
        # last cold compile's value, never a sum across compiles
        for width in (5, 6, 7):
            report = client.compile_request(
                CompileRequest(
                    target=bv_circuit(width), backend=ibm_mumbai(), mode="min_swap"
                )
            )
        _, samples = parse_prometheus(client.metrics())
        esp = sample_value(samples, "caqr_sim_esp")
        assert esp == pytest.approx(report.sim_stats.values["esp"])
        assert 0.0 <= esp <= 1.0

    def test_request_log_lines_are_schema_complete(self, logged_server, client):
        request = CompileRequest(target=bv_circuit(4))
        client.compile_classified(request)
        client.compile_classified(request)
        client.health()
        records = [
            json.loads(line)
            for line in logged_server.log_path.read_text().splitlines()
        ]
        assert len(records) >= 3
        for record in records:
            for field in RECORD_FIELDS:
                assert field in record, f"missing {field!r} in {record}"
            assert record["status"] == 200
            assert record["latency_ms"] >= 0
        compiles = [r for r in records if r["path"] == "/v1/compile"]
        assert [r["cache"] for r in compiles] == ["miss", "hit"]
        for record in compiles:
            assert record["fingerprint"] == request.fingerprint()
            assert record["strategy"] == "auto"
            assert record["error"] is None


# -- metrics lint: two scrapes around real traffic ------------------------------


def lint_scrape(text):
    """Strict-parse one scrape and check every family has HELP and TYPE."""
    types, samples = parse_prometheus(text)
    helped = [
        line.split(" ")[2] for line in text.splitlines() if line.startswith("# HELP ")
    ]
    assert sorted(helped) == sorted(types), "a family lacks HELP or TYPE"
    for name, _, _ in samples:
        family_of(name, types)
    return types, samples


def counter_samples(types, samples):
    return {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in samples
        if types.get(name) == "counter"
    }


def scrape_around_traffic(remote):
    """Scrape, compile cold, hit warm, scrape again; no counter may fall."""
    request = CompileRequest(
        target=bv_circuit(5), backend=generic_backend(line(7), seed=7), mode="min_swap"
    )
    first = counter_samples(*lint_scrape(remote.metrics()))
    assert remote.compile_classified(request)[2] == "miss"
    assert remote.compile_classified(request)[2] == "hit"
    types, samples = lint_scrape(remote.metrics())
    second = counter_samples(types, samples)
    for key, value in first.items():
        assert key in second, f"counter {key} vanished between scrapes"
        assert second[key] >= value, f"counter {key} went backwards"
    return samples


class TestMetricsLint:
    def test_server_scrapes(self, client):
        samples = scrape_around_traffic(client)
        assert 0.0 <= sample_value(samples, "caqr_sim_esp") <= 1.0

    def test_gateway_scrapes(self):
        backend = start_server_thread(service=CompileService())
        gateway = start_gateway_thread(backends=[backend.url], probe_interval=600.0)
        try:
            with RemoteCompileService(gateway.url, backoff=0.01) as remote:
                scrape_around_traffic(remote)
            with RemoteCompileService(backend.url, backoff=0.01) as remote:
                _, samples = lint_scrape(remote.metrics())
            assert 0.0 <= sample_value(samples, "caqr_sim_esp") <= 1.0
        finally:
            gateway.stop()
            backend.stop()
