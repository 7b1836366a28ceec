"""The benchmark's tracer must find every entry point it wraps.

``perfbench/spans.py`` patches named bindings (``compile_api.transpile``,
``portfolio.collect_metrics``, …) where their callers look them up, and
``Tracer.install`` raises on a point that no longer exists.  Installing
the full point list here turns a refactor that drops or moves a traced
binding into a tier-1 failure instead of a failed benchmark run.
"""

import importlib.util
import os

SPANS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "spans.py",
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_installs_and_uninstalls():
    spans = _load_spans()
    points = spans.COMPILER_POINTS + spans.CLIENT_POINTS
    tracer = spans.Tracer().install(points)  # raises on a missing point
    try:
        assert len(tracer._patches) == len(points)
    finally:
        tracer.uninstall()
    import repro.compile_api as compile_api
    from repro.transpiler.pipeline import transpile

    assert compile_api.transpile is transpile
