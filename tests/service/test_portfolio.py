"""Portfolio compile service: determinism, objectives, error channel.

The portfolio's contract is that racing is an *engine* concern: the
winning report is a pure function of (target, backend, knobs, objective)
— worker count, scheduling order, and the machine it runs on must never
change the result.  These tests pin that, plus the per-strategy error
channel (a poisoned strategy loses the race, it does not sink it), the
anytime-budget fallback, the win-rate stats, and remote==local through
the wire protocol.
"""

import json

import pytest
from networkx import random_regular_graph

from repro.circuit.random import random_circuit
from repro.compile_api import caqr_compile
from repro.exceptions import ReuseError
from repro.circuit.circuit import QuantumCircuit
from repro.hardware import ibm_mumbai
from repro.service import (
    CompileService,
    PortfolioCompileService,
    StrategySpec,
)
from repro.stats import Stats
from repro.workloads import bv_circuit

SEMANTIC_FIELDS = [
    "mode",
    "metrics",
    "baseline_metrics",
    "reuse_beneficial",
    "qubit_saving",
    "strategy",
    "strategy_errors",
    "optimality_gap",
    "exact_optimal",
]
# strategy_timings are wall-clock — observability only, like the
# route-stats timers, and deliberately outside the determinism contract


def _sample_circuit(seed: int) -> QuantumCircuit:
    return random_circuit(
        3 + seed % 4,
        num_gates=8 + (seed * 5) % 10,
        seed=seed,
        two_qubit_fraction=0.5,
        measure=True,
    )


def _reuse_chain(length: int) -> QuantumCircuit:
    circuit = QuantumCircuit(length, length)
    for i in range(length - 1):
        circuit.cx(i, i + 1)
    for i in range(length):
        circuit.measure(i, i)
    return circuit


def _assert_same_report(a, b, context):
    assert a.circuit.data == b.circuit.data, f"{context}: circuit drifted"
    for name in SEMANTIC_FIELDS:
        assert getattr(a, name) == getattr(b, name), (
            f"{context}: field {name!r} drifted"
        )


# -- determinism ---------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_worker_count_never_changes_the_winner(seed):
    """workers=1 (serial path) and workers=4 (process pool) must return
    bit-identical reports — the portfolio races, it never gambles."""
    circuit = _sample_circuit(seed)
    serial = caqr_compile(
        circuit, strategy="portfolio", objective="qubits",
        parallel=False, portfolio_workers=1,
    )
    pooled = caqr_compile(
        circuit, strategy="portfolio", objective="qubits",
        parallel=True, portfolio_workers=4,
    )
    _assert_same_report(serial, pooled, f"seed={seed}")
    assert serial.strategy_timings.keys() == pooled.strategy_timings.keys()


def test_repeated_compiles_are_identical():
    circuit = _sample_circuit(1)
    first = caqr_compile(circuit, strategy="portfolio", parallel=False)
    second = caqr_compile(circuit, strategy="portfolio", parallel=False)
    _assert_same_report(first, second, "repeat")


# -- SR lane seed diversity ----------------------------------------------------


def test_sr_lanes_derive_distinct_deterministic_seed_bases():
    """Each SR lane gets its own fingerprint-derived hint-seed stream,
    and the derivation is a pure function of (request, lane name)."""
    from repro.compile_api import _sr_seed_base
    from repro.service.service import CompileRequest

    def request():
        return CompileRequest(
            target=bv_circuit(4), backend=ibm_mumbai(), mode="min_swap"
        )

    trials_base = _sr_seed_base(request(), "sr-trials-5")
    esp_base = _sr_seed_base(request(), "sr-esp")
    assert trials_base != esp_base
    # deterministic across replicas of the same request
    assert trials_base == _sr_seed_base(request(), "sr-trials-5")
    # and sensitive to the request fingerprint, not just the lane name
    other = CompileRequest(
        target=bv_circuit(5), backend=ibm_mumbai(), mode="min_swap"
    )
    assert trials_base != _sr_seed_base(other, "sr-trials-5")


def test_lane_requests_ship_the_backend_digest(monkeypatch):
    """Every lane request carries the cached backend digest when it is
    pickled, so a pooled SR lane's fingerprint does not re-encode the
    backend."""
    import pickle

    import repro.service.portfolio as portfolio

    shipped = []
    run_lane = portfolio._run_strategy_worker

    def record(lane):
        shipped.append(pickle.loads(pickle.dumps(lane[1])))
        return run_lane(lane)

    monkeypatch.setattr(portfolio, "_run_strategy_worker", record)
    caqr_compile(
        bv_circuit(4), backend=ibm_mumbai(), mode="min_swap",
        strategy="portfolio", parallel=False,
    )
    assert shipped
    assert all("_backend_key" in request.__dict__ for request in shipped)


def test_sr_seed_diversity_keeps_serial_pooled_determinism():
    """The per-lane seed streams must not break the race contract:
    serial and pooled min_swap races return bit-identical reports."""
    circuit = bv_circuit(4)
    serial = caqr_compile(
        circuit, backend=ibm_mumbai(), mode="min_swap",
        strategy="portfolio", objective="qubits",
        parallel=False, portfolio_workers=1,
    )
    pooled = caqr_compile(
        circuit, backend=ibm_mumbai(), mode="min_swap",
        strategy="portfolio", objective="qubits",
        parallel=True, portfolio_workers=4,
    )
    _assert_same_report(serial, pooled, "sr-seeded race")


# -- objectives ----------------------------------------------------------------


def test_objective_changes_the_winner():
    """BV trades depth for width: the qubits objective must pick the
    deep 2-qubit circuit, the depth objective the shallow wide one."""
    circuit = bv_circuit(4)
    by_qubits = caqr_compile(
        circuit, strategy="portfolio", objective="qubits", parallel=False
    )
    by_depth = caqr_compile(
        circuit, strategy="portfolio", objective="depth", parallel=False
    )
    assert by_qubits.strategy != by_depth.strategy
    assert by_qubits.metrics.qubits_used < by_depth.metrics.qubits_used
    assert by_qubits.metrics.depth > by_depth.metrics.depth


def test_qubits_objective_matches_the_oracle():
    """With the exact tier in the race, the qubits objective achieves the
    proven optimum (gap 0) on an oracle-solvable circuit."""
    report = caqr_compile(
        bv_circuit(5), strategy="portfolio", objective="qubits", parallel=False
    )
    assert report.exact_optimal is True
    assert report.optimality_gap == 0


def test_est_error_objective_needs_backend():
    with pytest.raises(ReuseError, match="backend"):
        caqr_compile(
            bv_circuit(4), strategy="portfolio", objective="est_error",
            parallel=False,
        )


def test_est_error_objective_runs_with_backend():
    report = caqr_compile(
        bv_circuit(4), backend=ibm_mumbai(), mode="min_swap",
        strategy="portfolio", objective="est_error", parallel=False,
    )
    assert report.strategy in report.strategy_timings
    assert report.metrics.qubits_used >= 1


def test_unknown_objective_rejected():
    with pytest.raises(ReuseError, match="objective"):
        PortfolioCompileService().compile(
            bv_circuit(4), objective="speed", parallel=False
        )


def test_objective_requires_portfolio_strategy():
    with pytest.raises(ReuseError, match="portfolio"):
        caqr_compile(bv_circuit(4), objective="qubits")


# -- the exact tier's budget semantics -----------------------------------------


def test_budget_cutoff_falls_back_to_greedy():
    """A starved oracle returns best-so-far (optimal=False); the greedy
    engines still win the race and the report says the bound is
    unproven — never a silent wrong 'optimal'."""
    circuit = _reuse_chain(8)
    service = PortfolioCompileService(exact_max_nodes=2)
    report = service.compile(
        circuit, mode="max_reuse", objective="qubits", parallel=False
    )
    assert report.exact_optimal is False
    assert report.optimality_gap is None  # unproven bound -> no gap claim
    assert report.strategy != "exact"  # greedy reaches 2 qubits; cut oracle cannot
    assert report.metrics.qubits_used == 2
    assert service.stats.counters["portfolio_oracle_budget_cut"] == 1


def test_wide_circuits_skip_the_exact_tier():
    service = PortfolioCompileService(exact_max_qubits=3)
    report = service.compile(bv_circuit(6), objective="qubits", parallel=False)
    assert report.exact_optimal is None
    assert report.optimality_gap is None
    assert "exact" not in report.strategy_timings


# -- error channel -------------------------------------------------------------


def test_poisoned_strategy_does_not_sink_the_portfolio():
    """One strategy raising inside the pool surfaces as a per-strategy
    error while the race completes on the survivors."""
    service = PortfolioCompileService(
        strategies=[
            StrategySpec.make("greedy", "caqr"),
            StrategySpec.make("poison", "caqr", mode="definitely-bogus"),
        ]
    )
    report = service.compile(bv_circuit(4), objective="qubits", parallel=False)
    assert report.strategy == "greedy"
    assert "poison" in report.strategy_errors
    assert "bogus" in report.strategy_errors["poison"]
    assert service.stats.counters["portfolio_errors:poison"] == 1


def test_all_strategies_failing_raises_with_details():
    service = PortfolioCompileService(
        strategies=[StrategySpec.make("poison", "caqr", mode="bogus")]
    )
    with pytest.raises(ReuseError, match="poison"):
        service.compile(bv_circuit(4), objective="qubits", parallel=False)


@pytest.mark.parametrize(
    "target, lane",
    [
        (bv_circuit(6), StrategySpec.make("qs-narrow", "qs", lookahead_width=1)),
        (
            random_regular_graph(3, 6, seed=7),
            StrategySpec.make(
                "commuting-degree", "commuting", candidate_evaluation="degree"
            ),
        ),
    ],
    ids=["circuit", "graph"],
)
def test_dead_canonical_lane_recomputes_baseline_and_verdict(target, lane):
    """Without a surviving canonical lane to borrow from, the race
    recomputes the input's baseline and verdict, and they match the
    single-strategy path's."""
    backend = ibm_mumbai()
    service = PortfolioCompileService(
        strategies=[StrategySpec.make("poison", "caqr", mode="bogus"), lane]
    )
    report = service.compile(target, backend, mode="max_reuse", parallel=False)
    canonical = caqr_compile(target, backend, mode="max_reuse", parallel=False)
    assert report.strategy == lane.name
    assert "poison" in report.strategy_errors
    assert report.baseline_metrics == canonical.baseline_metrics
    assert report.reuse_beneficial == canonical.reuse_beneficial


def test_unknown_strategy_kind_is_an_error_not_a_crash():
    service = PortfolioCompileService(
        strategies=[
            StrategySpec.make("greedy", "caqr"),
            StrategySpec.make("mystery", "quantum-annealing"),
        ]
    )
    report = service.compile(bv_circuit(4), objective="qubits", parallel=False)
    assert report.strategy == "greedy"
    assert "unknown strategy kind" in report.strategy_errors["mystery"]


# -- win-rate stats ------------------------------------------------------------


def test_win_rate_accounting():
    stats = Stats()
    service = PortfolioCompileService(stats=stats)
    first = service.compile(bv_circuit(4), objective="qubits", parallel=False)
    second = service.compile(bv_circuit(5), objective="qubits", parallel=False)
    assert stats.counters["portfolio_compiles"] == 2
    wins = {
        name.split(":", 1)[1]: count
        for name, count in stats.counters.items()
        if name.startswith("portfolio_wins:")
    }
    assert sum(wins.values()) == 2
    assert wins.get(first.strategy, 0) >= 1
    assert wins.get(second.strategy, 0) >= 1
    # every raced strategy got a timer sample
    for name in first.strategy_timings:
        assert f"portfolio_strategy:{name}" in stats.timers


def test_win_rates_reorder_submission_not_results():
    """A service with skewed win history must still return the same
    report as a fresh one — scheduling order is not semantics."""
    circuit = _sample_circuit(2)
    fresh = PortfolioCompileService()
    skewed = PortfolioCompileService()
    skewed.stats.count("portfolio_compiles", 10)
    skewed.stats.count("portfolio_wins:qs-narrow", 10)
    _assert_same_report(
        fresh.compile(circuit, objective="qubits", parallel=False),
        skewed.compile(circuit, objective="qubits", parallel=False),
        "win-rate skew",
    )


# -- service + wire integration ------------------------------------------------


def test_portfolio_through_compile_service_cache():
    circuit = _sample_circuit(4)
    cold = caqr_compile(
        circuit, strategy="portfolio", objective="qubits", parallel=False
    )
    service = CompileService()
    primed = service.compile(
        circuit, strategy="portfolio", objective="qubits", parallel=False
    )
    warm = service.compile(
        circuit, strategy="portfolio", objective="qubits", parallel=False
    )
    assert primed.from_cache is False
    assert warm.from_cache is True
    _assert_same_report(primed, cold, "primed")
    _assert_same_report(warm, cold, "warm")
    # the cache replays the primed race exactly, timers included
    assert warm.strategy_timings == primed.strategy_timings


def test_portfolio_and_auto_have_distinct_cache_keys():
    from repro.service.service import CompileRequest

    circuit = bv_circuit(4)
    keys = {
        CompileRequest(target=circuit).fingerprint(),
        CompileRequest(target=circuit, strategy="portfolio").fingerprint(),
        CompileRequest(
            target=circuit, strategy="portfolio", objective="depth"
        ).fingerprint(),
    }
    assert len(keys) == 3
    # worker count is an engine knob: same key either way
    assert (
        CompileRequest(
            target=circuit, strategy="portfolio", portfolio_workers=7
        ).fingerprint()
        == CompileRequest(target=circuit, strategy="portfolio").fingerprint()
    )


def test_remote_equals_local_portfolio():
    """The portfolio race behind a server returns the same winner, gap,
    and circuit as the local path — every new report field crosses the
    wire losslessly."""
    from repro.service import RemoteCompileService, start_server_thread

    circuit = _sample_circuit(6)
    handle = start_server_thread(service=CompileService())
    try:
        with RemoteCompileService(handle.url, timeout=180) as client:
            remote = client.compile(
                circuit, strategy="portfolio", objective="qubits",
                parallel=False,
            )
            warm = client.compile(
                circuit, strategy="portfolio", objective="qubits",
                parallel=False,
            )
        local = caqr_compile(
            circuit, strategy="portfolio", objective="qubits", parallel=False
        )
        assert remote.from_cache is False
        assert warm.from_cache is True
        _assert_same_report(remote, local, "remote miss")
        _assert_same_report(warm, local, "remote hit")
    finally:
        handle.stop()


@pytest.mark.parametrize("strategy", ["auto", "chain", "portfolio"])
def test_unknown_mode_rejected_for_every_strategy(strategy):
    """A bad mode is rejected before any lane runs, and never cached."""
    rejected = "^unknown compile mode 'bogus'$"  # not a failed race
    service = CompileService()
    with pytest.raises(ReuseError, match=rejected):
        service.compile(bv_circuit(5), mode="bogus", strategy=strategy)
    with pytest.raises(ReuseError, match=rejected):
        PortfolioCompileService().compile(bv_circuit(5), mode="bogus")
    assert service.stats.counters.get("stores", 0) == 0


def test_non_greedy_winner_carries_sim_stats():
    """The report assembly attaches analytic ESP whichever lane wins."""
    from repro.compile_api import _esp_stats

    backend = ibm_mumbai()
    report = caqr_compile(
        bv_circuit(16), backend, strategy="portfolio", objective="depth",
        parallel=False, portfolio_workers=1,
    )
    assert report.strategy != "greedy"
    assert report.sim_stats is not None
    esp = report.sim_stats.values["esp"]
    assert esp == _esp_stats(report.circuit, backend).values["esp"]
    assert 0.0 <= esp <= 1.0


def test_unknown_strategy_rejected_at_the_api():
    with pytest.raises(ReuseError, match="strategy"):
        caqr_compile(bv_circuit(4), strategy="racing")


# -- persistent pool + persisted win-rate state --------------------------------


def test_persistent_pool_race_matches_serial():
    """The long-lived worker pool races circuit and graph targets
    identically to the serial path, and later races reuse the pool."""
    serial = PortfolioCompileService(max_workers=1)
    pooled = PortfolioCompileService(max_workers=2)
    try:
        for target in (_sample_circuit(3), random_regular_graph(3, 8, seed=1)):
            base = serial.compile(target, objective="qubits", parallel=False)
            fast = pooled.compile(target, objective="qubits", parallel=True)
            _assert_same_report(base, fast, "persistent pool")
            again = pooled.compile(target, objective="qubits", parallel=True)
            _assert_same_report(base, again, "persistent pool, second race")
        assert pooled.stats.counters["portfolio_parallel_races"] == 4
        assert pooled.stats.counters["worker_pool_spawns"] == 1
    finally:
        serial.close()
        pooled.close()


def test_win_rate_state_persists_across_restarts(tmp_path):
    state_path = str(tmp_path / "portfolio_state.json")
    first = PortfolioCompileService(max_workers=1, state_path=state_path)
    first.compile(bv_circuit(4), objective="qubits", parallel=False)
    first.compile(bv_circuit(5), objective="qubits", parallel=False)
    saved = {
        name: count
        for name, count in first.stats.counters.items()
        if name == "portfolio_compiles" or name.startswith("portfolio_wins:")
    }
    assert saved["portfolio_compiles"] == 2
    payload = json.loads((tmp_path / "portfolio_state.json").read_text())
    assert payload["schema"] == PortfolioCompileService._STATE_SCHEMA
    assert payload["counters"] == saved
    reborn = PortfolioCompileService(max_workers=1, state_path=state_path)
    for name, count in saved.items():
        assert reborn.stats.counters.get(name) == count
    assert reborn.stats.counters["portfolio_state_loads"] == 1
    first.close()
    reborn.close()


def test_corrupt_state_is_a_clean_cold_start(tmp_path):
    state_path = tmp_path / "portfolio_state.json"
    state_path.write_text("{this is not json")
    service = PortfolioCompileService(max_workers=1, state_path=str(state_path))
    assert "portfolio_state_loads" not in service.stats.counters
    service.compile(bv_circuit(4), objective="qubits", parallel=False)
    payload = json.loads(state_path.read_text())  # rewritten with good state
    assert payload["counters"]["portfolio_compiles"] == 1
    service.close()


def test_loaded_state_reorders_submission_not_results(tmp_path):
    state_path = tmp_path / "portfolio_state.json"
    state_path.write_text(
        json.dumps(
            {
                "schema": PortfolioCompileService._STATE_SCHEMA,
                "counters": {
                    "portfolio_compiles": 50,
                    "portfolio_wins:qs-narrow": 50,
                },
            }
        )
    )
    circuit = _sample_circuit(5)
    fresh = PortfolioCompileService(max_workers=1)
    loaded = PortfolioCompileService(max_workers=1, state_path=str(state_path))
    _assert_same_report(
        fresh.compile(circuit, objective="qubits", parallel=False),
        loaded.compile(circuit, objective="qubits", parallel=False),
        "persisted win-rate skew",
    )
    fresh.close()
    loaded.close()
