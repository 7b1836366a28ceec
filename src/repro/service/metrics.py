"""The Prometheus text-format exporter.

:func:`render_prometheus` serializes a :class:`~repro.stats.Stats`
snapshot into Prometheus text exposition format 0.0.4 (the
``GET /v1/metrics`` payload).  Counters become ``caqr_<name>_total``,
timers become ``caqr_time_<name>_seconds_total``, gauges stay gauges,
histograms expand into ``_bucket{le=...}`` / ``_sum`` / ``_count``
series.

The stats objects use ``family:key`` compound names for per-entity
series (``http:/v1/compile``, ``shard_bytes:<digest>``,
``portfolio_wins:<strategy>``).  Prometheus metric names cannot carry a
``:``-suffixed key, so the renderer splits those into a label:
``caqr_http_requests_total{path="/v1/compile"}``.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Mapping, Optional, Tuple

from repro.stats import Stats

__all__ = ["render_prometheus"]

#: ``family:key`` stats names rendered with this label instead of an
#: inlined key (anything not listed falls back to a generic ``key`` label).
_FAMILY_LABELS = {
    "http": "path",
    "request_latency": "path",
    "portfolio_wins": "strategy",
    "portfolio_errors": "strategy",
    "shard_entries": "shard",
    "shard_bytes": "shard",
    # gateway fleet families (repro.service.net.gateway): one series per
    # backend base URL
    "backend_requests": "backend",
    "backend_errors": "backend",
    "backend_retries": "backend",
    "batch_retries": "backend",
    "backend_latency": "backend",
    "backend_up": "backend",
    "marked_down": "backend",
    "peer_fills": "backend",
    "fleet_requests": "backend",
    "fleet_hits": "backend",
    "fleet_misses": "backend",
}

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_]")


def _split(name: str) -> Tuple[str, Optional[str], Optional[str]]:
    """``family:key`` -> (family, label_name, label_value)."""
    family, sep, key = name.partition(":")
    if not sep:
        return name, None, None
    return family, _FAMILY_LABELS.get(family, "key"), key


def _metric_name(prefix: str, family: str, suffix: str = "") -> str:
    return f"{prefix}_{_NAME_SANITIZER.sub('_', family)}{suffix}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(pairs: Iterable[Tuple[str, str]]) -> str:
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return f"{{{body}}}" if body else ""


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    return "+Inf" if bound == float("inf") else repr(bound)


class _Renderer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed: set = set()

    def header(self, metric: str, kind: str, help_text: str) -> None:
        if metric not in self._typed:
            self._typed.add(metric)
            self.lines.append(f"# HELP {metric} {help_text}")
            self.lines.append(f"# TYPE {metric} {kind}")

    def sample(
        self, metric: str, labels: Iterable[Tuple[str, str]], value: float
    ) -> None:
        self.lines.append(f"{metric}{_labels(labels)} {_format_value(value)}")


def render_prometheus(
    stats: Stats,
    prefix: str = "caqr",
    extra_gauges: Optional[Mapping[str, float]] = None,
) -> str:
    """Render a :class:`~repro.stats.Stats` snapshot as Prometheus text format.

    *extra_gauges* lets the server inject process-level gauges the stats
    sink does not own (``uptime_seconds``, ``inflight``, ``draining``).
    Returns the full exposition body, newline-terminated.
    """
    out = _Renderer()

    for name in sorted(stats.counters):
        family, label, key = _split(name)
        metric = _metric_name(prefix, family, "_total")
        out.header(metric, "counter", f"Cumulative count of {family} events.")
        labels = [(label, key)] if label is not None and key is not None else []
        out.sample(metric, labels, stats.counters[name])

    for name in sorted(stats.timers):
        family, label, key = _split(name)
        metric = _metric_name(prefix, f"time_{family}", "_seconds_total")
        out.header(
            metric, "counter", f"Cumulative wall-clock seconds in {family}."
        )
        labels = [(label, key)] if label is not None and key is not None else []
        out.sample(metric, labels, stats.timers[name])

    for name in sorted(stats.values):
        family, label, key = _split(name)
        metric = _metric_name(prefix, family)
        out.header(metric, "gauge", f"Current value of {family}.")
        labels = [(label, key)] if label is not None and key is not None else []
        out.sample(metric, labels, stats.values[name])

    for name, value in sorted((extra_gauges or {}).items()):
        metric = _metric_name(prefix, name)
        out.header(metric, "gauge", f"Current value of {name}.")
        out.sample(metric, [], value)

    for name in sorted(stats.histograms):
        hist = stats.histograms[name]
        family, label, key = _split(name)
        metric = _metric_name(prefix, family, "_seconds")
        out.header(metric, "histogram", f"Latency distribution of {family}.")
        base = [(label, key)] if label is not None and key is not None else []
        for bound, count in hist.cumulative():
            out.sample(
                f"{metric}_bucket", base + [("le", _format_bound(bound))], count
            )
        out.sample(f"{metric}_sum", base, hist.sum)
        out.sample(f"{metric}_count", base, hist.count)

    return "\n".join(out.lines) + "\n"
