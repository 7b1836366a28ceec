"""Work-count regression: each ``caqr_compile`` mode runs only the sweeps
and transpiles its report reads (see docs/ARCHITECTURE.md)."""

import pytest

import repro.compile_api as compile_api
import repro.core.tradeoff as tradeoff
from repro.core import QSCaQR
from repro.hardware import ibm_mumbai
from repro.service.service import CompileRequest
from repro.workloads import bv_circuit

WIDTH = 6


@pytest.fixture(scope="module")
def backend():
    return ibm_mumbai()


@pytest.fixture
def calls(monkeypatch):
    """Count transpiles, tradeoff sweeps and ``reduce_to`` calls."""
    counts = {"transpile": 0, "sweep": 0, "reduce_to": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(compile_api, "transpile", "transpile")
    counting(tradeoff, "transpile", "transpile")
    counting(compile_api, "sweep_regular", "sweep")
    counting(compile_api, "sweep_commuting", "sweep")
    counting(QSCaQR, "reduce_to", "reduce_to")
    return counts


def _compile(backend, mode, **kwargs):
    return compile_api.caqr_compile(
        bv_circuit(WIDTH), backend, mode=mode, parallel=False, **kwargs
    )


def test_max_reuse_transpiles_only_the_baseline(backend, calls):
    _compile(backend, "max_reuse")
    assert calls == {"transpile": 1, "sweep": 1, "reduce_to": 0}


def test_qubit_budget_runs_one_sweep(backend, calls):
    report = _compile(backend, "qubit_budget", qubit_limit=3)
    assert report.metrics.qubits_used == 3
    # the budget point's compile plus the baseline
    assert calls == {"transpile": 2, "sweep": 1, "reduce_to": 0}


def test_min_swap_transpiles_only_the_baseline(backend, calls):
    # SR-CaQR routes with its own router; the only opt-3 transpile here
    # is the baseline
    report = _compile(backend, "min_swap")
    assert calls == {"transpile": 1, "sweep": 1, "reduce_to": 0}
    assert report.eval_stats is not None


def test_min_swap_benefit_sweep_stops_at_the_floor(backend, monkeypatch):
    seen = []
    original = compile_api.sweep_regular

    def recording(*args, **kwargs):
        points = original(*args, **kwargs)
        seen.append([p.qubits for p in points])
        return points

    monkeypatch.setattr(compile_api, "sweep_regular", recording)
    report = _compile(backend, "min_swap")
    floor = tradeoff.benefit_floor(WIDTH)
    assert seen == [list(range(WIDTH, floor - 1, -1))]
    assert report.reuse_beneficial


def test_min_depth_reuses_point_zero_as_baseline(backend, calls):
    points = len(tradeoff.sweep_regular(bv_circuit(WIDTH)))
    report = _compile(backend, "min_depth")
    # one transpile per sweep point, none for the baseline
    assert calls == {"transpile": points, "sweep": 1, "reduce_to": 0}
    request = CompileRequest(target=bv_circuit(WIDTH), backend=backend, seed=11)
    assert report.baseline_metrics == compile_api._baseline_metrics(request)


@pytest.mark.parametrize("mode", ["max_reuse", "min_depth", "min_swap"])
def test_portfolio_qs_lane_maps_points_only_when_read(backend, monkeypatch, mode):
    counts = {"transpile": 0}
    original = tradeoff.transpile

    def counting(*args, **kwargs):
        counts["transpile"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(tradeoff, "transpile", counting)
    monkeypatch.setattr(compile_api, "transpile", counting)
    request = CompileRequest(target=bv_circuit(WIDTH), backend=backend, mode=mode)
    spec = compile_api.StrategySpec.make("qs-duration", "qs", objective="duration")
    outcome = compile_api.run_lane(spec, request)
    points = len(tradeoff.sweep_regular(bv_circuit(WIDTH), objective="duration"))
    # max_reuse reads logical metrics only; min_swap reuses the selected
    # point's mapping instead of transpiling it again
    assert counts["transpile"] == (0 if mode == "max_reuse" else points)
    if mode == "min_swap":
        assert outcome.circuit.num_qubits == backend.num_qubits
