"""In-memory span tracer that wraps the compiler's entry points from outside.

Each wrapped name is patched where its caller looks it up (``transpile``
is imported by name into both ``repro.compile_api`` and
``repro.core.tradeoff``, so both bindings are wrapped).  A span records
its name, start, end, parent span and request id; spans stay in memory
and are written out as JSON when the benchmark ends.  Nothing under
``src/`` is modified: :meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: (module, attribute path, span name).  An attribute path with a dot
#: names a method on a class in that module.
COMPILER_POINTS = [
    ("repro.compile_api", "caqr_compile", "compile_api"),
    ("repro.service.service", "caqr_compile", "compile_api"),
    ("repro.compile_api", "sweep_regular", "core.tradeoff.sweep"),
    ("repro.compile_api", "sweep_commuting", "core.tradeoff.sweep"),
    ("repro.compile_api", "assess_reuse_benefit", "core.tradeoff.benefit"),
    ("repro.core.qs_caqr", "QSCaQR.reduce_to", "core.qs.reduce"),
    ("repro.core.qs_commuting", "QSCaQRCommuting.reduce_to", "core.qs.reduce"),
    ("repro.core.sr_caqr", "SRCaQR.run", "core.sr.run"),
    ("repro.core.sr_commuting", "SRCaQRCommuting.run", "core.sr.run"),
    ("repro.core.chains", "ChainReuse.run", "core.chains.run"),
    ("repro.core.exact", "ExactReuse.run", "core.exact.run"),
    ("repro.compile_api", "transpile", "transpiler"),
    ("repro.core.tradeoff", "transpile", "transpiler"),
    ("repro.compile_api", "collect_metrics", "analysis.collect"),
    ("repro.service.portfolio", "collect_metrics", "analysis.collect"),
    ("repro.sim.metrics", "estimated_success_probability", "sim.esp"),
    ("repro.service.portfolio", "estimated_success_probability", "sim.esp"),
    ("repro.service.portfolio", "PortfolioCompileService.compile",
     "service.portfolio.race"),
]

#: The client half of a remote compile: decoding the report off the wire.
CLIENT_POINTS = [
    ("repro.service.net.wire", "report_from_dict", "service.net.client.decode"),
]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "attrs")

    def __init__(self, span_id, name, start, parent, request):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs: Dict[str, Any] = {}

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "attrs": self.attrs,
        }


def _width(target) -> int:
    """Logical width of a compile target (a circuit or a QAOA graph)."""
    return getattr(target, "num_qubits", None) or target.number_of_nodes()


def _annotate(name: str, args, result, span: Span, stack: List[Span]) -> None:
    """Record the counts a layer's span carries (sizes in, sizes out)."""
    if name == "transpiler":
        span.attrs["gates_out"] = result.circuit.size()
        in_sweep = any(s.name == "core.tradeoff.sweep" for s in stack)
        compile_span = next((s for s in reversed(stack) if s.name == "compile_api"), None)
        span.attrs["sweep"] = in_sweep
        # the unreused input: as wide as the compile's own input (a reused
        # circuit is narrower; cc_13 has a native mid-circuit measure, so
        # "has dynamic operations" cannot tell them apart)
        span.attrs["baseline"] = (
            not in_sweep
            and compile_span is not None
            and args[0].num_qubits == compile_span.attrs.get("width")
        )
    elif name == "core.tradeoff.sweep":
        span.attrs["points"] = len(result)
    elif name == "core.chains.run":
        span.attrs["qubits"] = result.qubits
        span.attrs["from_greedy"] = bool(result.from_greedy)
    elif name == "core.exact.run":
        span.attrs["nodes"] = result.nodes_expanded
        span.attrs["optimal"] = bool(result.optimal)


class Tracer:
    """Collects spans from patched entry points, per thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    # -- request ids -----------------------------------------------------------

    def set_request(self, request_id: Optional[str]) -> None:
        """Tag every span this thread opens from now on with *request_id*."""
        self._local.request = request_id

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- patching --------------------------------------------------------------

    def _wrap(self, original: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(
                next(tracer._ids),
                name,
                time.perf_counter(),
                parent.id if parent else None,
                getattr(tracer._local, "request", None)
                or (parent.request if parent else None),
            )
            if name == "compile_api":
                span.attrs["width"] = _width(args[0])
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)
            _annotate(name, args, result, span, stack)
            return result

        return traced

    def install(self, points) -> "Tracer":
        """Wrap every point; a point that no longer exists is an error.

        A renamed or moved entry point would otherwise leave its layer
        silently untraced, reading 0 as if it had become free.
        """
        for module_name, path, span_name in points:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if original is None:
                self.uninstall()
                raise RuntimeError(f"trace point {module_name}.{path} does not exist")
            setattr(owner, attr, self._wrap(original, span_name))
            self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        with self._lock:
            payload = [span.as_dict() for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def load_spans(path: str) -> List[Dict[str, Any]]:
    """Spans written by :meth:`Tracer.dump`, tagged with their file.

    Span ids are unique per process only, so the tag keeps parents from
    different processes apart.
    """
    with open(path, "r", encoding="utf-8") as handle:
        spans = json.load(handle)
    for span in spans:
        span["origin"] = path
    return spans


def layer_times(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``s`` and ``self_s``.

    Self time is a span's duration minus the part its child spans cover;
    children nest on one thread, so their intervals never overlap.
    """
    child_time: Dict[Any, float] = {}
    for span in spans:
        if span["parent"] is not None:
            key = (span.get("origin"), span["parent"])
            child_time[key] = child_time.get(key, 0.0) + span["end"] - span["start"]
    layers: Dict[str, Dict[str, float]] = {}
    for span in spans:
        duration = span["end"] - span["start"]
        entry = layers.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_time.get((span.get("origin"), span["id"]), 0.0)
    return layers
