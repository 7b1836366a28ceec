"""Golden pins for every compile lane.

Each case compiles a small input through ``caqr_compile`` (``auto``,
``chain`` and a serial ``portfolio`` race) and compares the report with
``tests/fixtures/lane_golden.json``: the output circuit's sha256, the
metrics, the baseline, the verdict, the saving, the portfolio fields and
the engine counters.  A second family pins the circuit of every roster
lane of a serial race on its own, winner or not.  A compile that raises
pins its error text instead.

Regenerate the fixture (only for an intended output change) with::

    PYTHONPATH=src python tests/test_lane_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict

import networkx as nx
import pytest

from repro.circuit.random import random_circuit
from repro.compile_api import caqr_compile
from repro.hardware.backends import generic_backend
from repro.hardware.mumbai import ibm_mumbai
from repro.hardware.topologies import full
from repro.service.serialization import circuit_to_dict
from repro.workloads import bv_circuit
from repro.workloads.qaoa import qaoa_maxcut_circuit

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "lane_golden.json")

MODES = ("qubit_budget", "max_reuse", "min_depth", "min_swap")
STRATEGIES = ("auto", "chain", "portfolio")
#: qubit_budget limits: bv6 and the random circuit reach 2 and 4 qubits
#: at most, the 6-node QAOA reaches 4
LIMITS = {"bv6": 3, "rand6": 5, "qaoa6": 5, "qaoa6-graph": 5}


def _graph() -> nx.Graph:
    return nx.random_regular_graph(3, 6, seed=7)


def _targets():
    return {
        "bv6": bv_circuit(6),
        "rand6": random_circuit(
            6, num_gates=18, seed=5, two_qubit_fraction=0.5, measure=True
        ),
        "qaoa6": qaoa_maxcut_circuit(_graph()),
        "qaoa6-graph": _graph(),
    }


def _backends():
    return {
        "none": None,
        "mumbai": ibm_mumbai(),
        # all-to-all: the portfolio races a chain-dual lane here
        "full8": generic_backend(full(8), name="full8"),
    }


def groups():
    """``(target, backend, mode)`` for every pinned group of compiles."""
    for target in LIMITS:
        for backend in ("none", "mumbai", "full8"):
            if backend == "full8" and target.startswith("qaoa"):
                continue
            for mode in MODES:
                yield target, backend, mode


def _sha(circuit) -> str:
    text = json.dumps(circuit_to_dict(circuit), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def summarize(report) -> dict:
    """The report fields the golden fixture pins."""

    def counters(stats):
        return None if stats is None else dict(sorted(stats.counters.items()))

    return {
        "sha256": _sha(report.circuit),
        "mode": report.mode,
        "metrics": asdict(report.metrics),
        "baseline": (
            None
            if report.baseline_metrics is None
            else asdict(report.baseline_metrics)
        ),
        "beneficial": report.reuse_beneficial,
        "saving": report.qubit_saving,
        "strategy": report.strategy,
        "strategy_errors": report.strategy_errors,
        "optimality_gap": report.optimality_gap,
        "exact_optimal": report.exact_optimal,
        "route_counters": counters(report.route_stats),
        "eval_counters": counters(report.eval_stats),
        "chain_counters": counters(report.chain_stats),
        "esp": (
            None
            if report.sim_stats is None
            else report.sim_stats.values.get("esp")
        ),
    }


def _compile(target, backend, mode, strategy) -> dict:
    kwargs = {"mode": mode, "strategy": strategy, "parallel": False}
    if mode == "qubit_budget":
        kwargs["qubit_limit"] = LIMITS[target]
    if strategy == "portfolio":
        kwargs["portfolio_workers"] = 1
    try:
        report = caqr_compile(_targets()[target], _backends()[backend], **kwargs)
    except Exception as exc:  # the error text is pinned too
        return _error(exc)
    return summarize(report)


def run_group(target, backend, mode, monkeypatch) -> dict:
    """The group's compiles, plus each roster lane's circuit sha256 (or
    error) as the serial portfolio race ran it."""
    from repro.service import portfolio

    lanes = {}
    original = portfolio._run_strategy_worker

    def capturing(payload):
        outcome = original(payload)
        lanes[outcome.name] = (
            {"error": outcome.error}
            if outcome.error is not None
            else {"sha256": _sha(outcome.result.circuit)}
        )
        return outcome

    monkeypatch.setattr(portfolio, "_run_strategy_worker", capturing)
    # the all-to-all backend only matters to the chain engine
    strategies = STRATEGIES[1:] if backend == "full8" else STRATEGIES
    group = {s: _compile(target, backend, mode, s) for s in strategies}
    group["lanes"] = lanes
    return group


def _key(*parts) -> str:
    return "/".join(parts)


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _compare(actual: dict, expected: dict, backend: str, context: str) -> None:
    expected = dict(expected)
    race = actual.get("strategy_errors") is not None
    if race and backend != "none" and expected["esp"] is None:
        # the fixture holds no ESP for a race won by a lane other than
        # greedy; the report carries the winner's ESP under a backend
        assert 0.0 <= actual["esp"] <= 1.0, context
        expected["esp"] = actual["esp"]
    assert actual == expected, context


@pytest.mark.parametrize("group", list(groups()), ids=lambda g: _key(*g))
def test_group_matches_golden(golden, group, monkeypatch):
    actual = run_group(*group, monkeypatch)
    expected = golden[_key(*group)]
    assert actual.pop("lanes") == expected["lanes"], _key(*group, "lanes")
    for strategy, record in actual.items():
        _compare(record, expected[strategy], group[1], _key(*group, strategy))


if __name__ == "__main__":
    fixture = {}
    for group in groups():
        with pytest.MonkeyPatch.context() as patch:
            fixture[_key(*group)] = run_group(*group, patch)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=1, sort_keys=True)
        handle.write("\n")
