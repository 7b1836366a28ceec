"""Per-layer metrics: spans, report sinks and ``/v1/stats`` deltas.

Every metric named in ``BENCHMARK.json``'s ``per_layer`` list is filled
in here.  A layer a workload does not reach reads 0; README.md says which
layers each workload reaches and why some cannot be read from outside.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from spans import layer_times


def _delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Counter, timer and histogram growth between two stats snapshots."""
    delta: Dict[str, Any] = {}
    for section in ("counters", "timers"):
        old = before.get(section, {})
        delta[section] = {
            name: value - old.get(name, 0)
            for name, value in after.get(section, {}).items()
        }
    histograms = {}
    for name, hist in after.get("histograms", {}).items():
        old = before.get("histograms", {}).get(name)
        counts, total = list(hist["counts"]), hist.get("sum", 0.0)
        if old is not None:
            counts = [a - b for a, b in zip(counts, old["counts"])]
            total -= old.get("sum", 0.0)
        histograms[name] = {"buckets": hist["buckets"], "counts": counts, "sum": total}
    delta["histograms"] = histograms
    return delta


def _merge(deltas: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One delta summed over several servers (histogram buckets are shared)."""
    merged: Dict[str, Any] = {"counters": {}, "timers": {}, "histograms": {}}
    for delta in deltas:
        for section in ("counters", "timers"):
            for name, value in delta[section].items():
                merged[section][name] = merged[section].get(name, 0) + value
        for name, hist in delta["histograms"].items():
            mine = merged["histograms"].setdefault(
                name, {"buckets": hist["buckets"], "counts": [0] * len(hist["counts"]), "sum": 0.0}
            )
            mine["counts"] = [a + b for a, b in zip(mine["counts"], hist["counts"])]
            mine["sum"] += hist["sum"]
    return merged


def stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """Growth of the service's stats between two snapshots.

    A snapshot is ``{"backends": [stats, ...], "gateway": stats}`` (no
    gateway outside fleet-shard).  The result holds the compile servers'
    merged delta, each server's own, and the gateway's.
    """
    per_backend = [_delta(b, a) for b, a in zip(before["backends"], after["backends"])]
    gateway = None
    if after.get("gateway") is not None:
        gateway = _delta(before["gateway"], after["gateway"])
    return {"service": _merge(per_backend), "per_backend": per_backend, "gateway": gateway}


def histogram_quantile(hist: Optional[Dict[str, Any]], q: float) -> float:
    """Quantile of a bucketed histogram, interpolated inside its bucket."""
    if not hist:
        return 0.0
    counts, bounds = hist["counts"], hist["buckets"]
    total = sum(counts)
    if not total:
        return 0.0
    rank = q * total
    seen, lower = 0, 0.0
    for index, count in enumerate(counts):
        upper = bounds[index] if index < len(bounds) else bounds[-1]
        if count and seen + count >= rank:
            return lower + (upper - lower) * (rank - seen) / count
        seen += count
        lower = upper
    return bounds[-1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sum_counter(sinks, name: str) -> float:
    return sum(sink.counters.get(name, 0) for sink in sinks if sink is not None)


def compute(
    spans: List[Dict[str, Any]],
    reports: List[Any],
    service: Dict[str, Any],
    greedy_widths: Dict[int, int],
    overhead_s: float,
) -> Dict[str, float]:
    """All per-layer metrics of one traced run.

    *spans* are the run's traced spans (benchmark and server processes),
    *reports* its distinct compile reports, *service* the
    :func:`stats_delta` of the compile service (and gateway),
    *greedy_widths* maps ``id(report)`` of each chain compile to the
    greedy width it must beat.
    """
    layers = layer_times(spans)

    def layer(name: str, key: str = "s") -> float:
        return layers.get(name, {}).get(key, 0.0)

    def attrs(name: str) -> List[Dict[str, Any]]:
        return [span["attrs"] for span in spans if span["name"] == name]

    eval_sinks = [r.eval_stats for r in reports]
    route_sinks = [r.route_stats for r in reports]
    chain_sinks = [r.chain_stats for r in reports]
    transpiles = attrs("transpiler")
    chain_reports = [r for r in reports if id(r) in greedy_widths]
    exact_flags = [r.exact_optimal for r in reports if r.exact_optimal is not None]
    portfolio = [r for r in reports if r.strategy_timings]
    lane_s = sum(sum(r.strategy_timings.values()) for r in portfolio)
    winner_s = sum(r.strategy_timings.get(r.strategy, 0.0) for r in portfolio)
    exact_lane_s = sum(r.strategy_timings.get("exact", 0.0) for r in portfolio)

    out = {
        "compile_api.calls": layer("compile_api", "calls"),
        "compile_api.self_s": layer("compile_api", "self_s"),
        "core.tradeoff.sweep_calls": layer("core.tradeoff.sweep", "calls"),
        "core.tradeoff.sweep_s": layer("core.tradeoff.sweep"),
        "core.tradeoff.points": sum(a.get("points", 0) for a in attrs("core.tradeoff.sweep")),
        "core.tradeoff.benefit_s": layer("core.tradeoff.benefit"),
        # QS search runs inside sweeps (their self time) and in reduce_to
        "core.qs.reduce_s": layer("core.qs.reduce") + layer("core.tradeoff.sweep", "self_s"),
        "core.qs.candidate_evals": _sum_counter(eval_sinks, "evaluations"),
        "core.qs.eval_cache_hit_ratio": _ratio(
            _sum_counter(eval_sinks, "cache_hits"),
            _sum_counter(eval_sinks, "cache_hits") + _sum_counter(eval_sinks, "evaluations"),
        ),
        "core.sr.run_s": layer("core.sr.run", "self_s"),
        "core.sr.route_trials": _sum_counter(route_sinks, "sr_trials"),
        "core.sr.swaps": _sum_counter(route_sinks, "swaps_inserted"),
        "core.chains.run_s": layer("core.chains.run"),
        "core.chains.beam_states": _sum_counter(chain_sinks, "states_expanded"),
        "core.chains.greedy_fallbacks": _sum_counter(chain_sinks, "greedy_fallback"),
        "core.chains.narrower_ratio": _ratio(
            sum(1 for r in chain_reports if r.metrics.qubits_used < greedy_widths[id(r)]),
            len(chain_reports),
        ),
        "core.exact.run_s": layer("core.exact.run") + exact_lane_s,
        "core.exact.nodes": sum(a.get("nodes", 0) for a in attrs("core.exact.run")),
        "core.exact.proven_ratio": _ratio(sum(exact_flags), len(exact_flags)),
        "transpiler.calls": layer("transpiler", "calls"),
        "transpiler.s": layer("transpiler"),
        "transpiler.sweep_calls": sum(1 for a in transpiles if a.get("sweep")),
        "transpiler.baseline_calls": sum(1 for a in transpiles if a.get("baseline")),
        "transpiler.gates_out": sum(a.get("gates_out", 0) for a in transpiles),
        "analysis.collect_s": layer("analysis.collect"),
        "sim.esp_s": layer("sim.esp"),
        "service.portfolio.race_s": layer("service.portfolio.race", "self_s"),
        "service.portfolio.lanes": sum(len(r.strategy_timings) for r in portfolio),
        "service.portfolio.lane_s_sum": lane_s,
        "service.portfolio.winner_share": _ratio(winner_s, lane_s),
        "service.net.client.decode_s": layer("service.net.client.decode"),
        "trace.overhead_s": overhead_s,
        "trace.spans": float(len(spans)),
    }
    out.update(_service_metrics(service["service"]))
    out.update(_fleet_metrics(service["service"], service["per_backend"], service["gateway"]))
    return {name: float(value) for name, value in out.items()}


def _service_metrics(delta: Dict[str, Any]) -> Dict[str, float]:
    counters, timers = delta.get("counters", {}), delta.get("timers", {})
    hits = counters.get("hits", 0)
    return {
        "service.fingerprint.s": timers.get("fingerprint", 0.0),
        "service.cache.lookup_s": timers.get("lookup", 0.0),
        "service.cache.hit_ratio": _ratio(hits, hits + counters.get("misses", 0)),
        "service.cache.store_s": timers.get("store", 0.0),
        "service.cache.stores": counters.get("stores", 0),
        "service.serialization.serialize_s": timers.get("serialize", 0.0),
        "service.serialization.deserialize_s": timers.get("deserialize", 0.0),
        "service.serialization.envelope_hit_ratio": _ratio(counters.get("envelope_hits", 0), hits),
        "service.net.server.latency_p50_ms": 1000.0 * histogram_quantile(
            delta.get("histograms", {}).get("request_latency:/v1/compile"), 0.5
        ),
    }


def _mean_ms(hist: Optional[Dict[str, Any]]) -> float:
    if not hist or not sum(hist["counts"]):
        return 0.0
    return 1000.0 * hist["sum"] / sum(hist["counts"])


def _fleet_metrics(
    service: Dict[str, Any], per_backend: List[Dict[str, Any]], gateway: Optional[Dict[str, Any]]
) -> Dict[str, float]:
    """Gateway and fleet layers, from the gateway's ``/v1/stats`` delta."""
    if gateway is None:
        return {
            "service.net.gateway.requests": 0.0,
            "service.net.gateway.key_cache_hit_ratio": 0.0,
            "service.net.gateway.peer_fills": 0.0,
            "service.net.gateway.retries": 0.0,
            "service.net.gateway.added_ms": 0.0,
            "service.fleet.balance": 0.0,
        }
    counters = gateway["counters"]
    key_hits = counters.get("key_cache_hits", 0)
    served = [b["counters"].get("http:/v1/compile", 0) for b in per_backend]
    # gateway-observed minus backend-observed mean compile latency; the
    # gateway's histogram also holds the one /v1/stats call that opened
    # the delta, a few ms among thousands of compiles
    added = _mean_ms(gateway["histograms"].get("request_latency")) - _mean_ms(
        service["histograms"].get("request_latency:/v1/compile")
    )
    return {
        "service.net.gateway.requests": counters.get("http:/v1/compile", 0),
        "service.net.gateway.key_cache_hit_ratio": _ratio(
            key_hits, key_hits + counters.get("key_cache_misses", 0)
        ),
        "service.net.gateway.peer_fills": counters.get("peer_fills", 0),
        "service.net.gateway.retries": sum(
            value for name, value in counters.items() if name.startswith("backend_retries:")
        ),
        "service.net.gateway.added_ms": added,
        "service.fleet.balance": _ratio(max(served), min(served)),
    }
