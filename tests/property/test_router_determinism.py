"""Determinism harness for the vectorised, parallel routing stack.

The PR that introduced numpy scoring kernels, the incremental SR
scheduler, the bitset lookahead kernel, and the parallel trial engines
promised one thing above all: **no output circuit changes**.  This
harness pins that promise on random circuits:

* ``SRCaQR.run`` serial vs. process-pool parallel — identical swap
  count, reuse count, and emitted circuit;
* ``sabre_layout`` serial vs. parallel — identical layout;
* the incremental SR scheduler vs. ``ReferenceSRCaQR``, the
  from-scratch scheduler in ``tests/oracles.py``;
* the scheduler's closed-form frontier slack vs. a from-scratch
  ALAP - ASAP over the unscheduled sub-DAG, after every step of random
  frontier-first schedules;
* the bitset reuse-potential lookahead vs. the networkx reference
  kernel (``tests.oracles.nx_lookahead_kernel``).

``CAQR_ROUTE_SAMPLES`` (default 25) scales the random-circuit pool; the
nightly CI job runs 200.
"""

import os
import random

import pytest

from repro.circuit.random import random_circuit
from repro.core.sr_caqr import SRCaQR, _frontier_slack
from repro.dag.dagcircuit import DAGCircuit
from repro.exceptions import ReuseError
from repro.hardware import generic_backend, grid, ibm_mumbai, line
from repro.transpiler.basis import decompose_to_two_qubit
from repro.transpiler.sabre import sabre_layout
from tests.oracles import ReferenceSRCaQR, nx_lookahead_kernel

ROUTE_SAMPLES = int(os.environ.get("CAQR_ROUTE_SAMPLES", "25"))


def _sample_circuit(seed: int):
    num_qubits = 3 + seed % 5
    num_gates = 8 + (seed * 5) % 14
    return random_circuit(
        num_qubits,
        num_gates=num_gates,
        seed=seed,
        two_qubit_fraction=0.3 + 0.3 * ((seed // 3) % 2),
        measure=seed % 3 != 0,
    )


def _backend(seed: int):
    return [
        ibm_mumbai(),
        generic_backend(grid(4, 4), seed=3),
        generic_backend(line(9), seed=9),
    ][seed % 3]


def _result_signature(result):
    return (
        result.swap_count,
        result.reuse_count,
        result.qubits_used,
        result.duration_dt,
        result.circuit.data,
    )


@pytest.mark.parametrize("seed", range(ROUTE_SAMPLES))
def test_sr_run_serial_parallel_identical(seed, two_workers):
    circuit = _sample_circuit(seed)
    backend = _backend(seed)
    try:
        serial = SRCaQR(backend, parallel=False).run(
            circuit, trials=2, qs_assist=seed % 2 == 0
        )
    except ReuseError:
        with pytest.raises(ReuseError):
            SRCaQR(backend, parallel=True).run(
                circuit, trials=2, qs_assist=seed % 2 == 0
            )
        return
    parallel = SRCaQR(backend, parallel=True).run(
        circuit, trials=2, qs_assist=seed % 2 == 0
    )
    assert _result_signature(serial) == _result_signature(parallel), seed


@pytest.mark.parametrize("seed", range(ROUTE_SAMPLES))
def test_sabre_layout_serial_parallel_identical(seed):
    circuit = _sample_circuit(seed)
    backend = _backend(seed + 1)
    if circuit.num_qubits > backend.coupling.num_qubits:
        pytest.skip("circuit wider than device")
    serial = sabre_layout(
        circuit, backend.coupling, seed=seed, trials=3, parallel=False
    )
    parallel = sabre_layout(
        circuit, backend.coupling, seed=seed, trials=3, parallel=True
    )
    assert serial.as_dict() == parallel.as_dict(), seed


@pytest.mark.parametrize("seed", range(ROUTE_SAMPLES))
def test_sr_incremental_matches_reference(seed):
    circuit = _sample_circuit(seed)
    backend = _backend(seed)
    engines = [
        SRCaQR(backend, parallel=False),
        ReferenceSRCaQR(backend, parallel=False),
    ]
    outcomes = []
    for engine in engines:
        try:
            outcomes.append(
                _result_signature(engine.run(circuit, trials=2, qs_assist=False))
            )
        except ReuseError as error:
            outcomes.append(("ReuseError", str(error)))
    assert outcomes[0] == outcomes[1], seed


def _scratch_slack(dag: DAGCircuit, unscheduled) -> dict:
    """ALAP - ASAP of every unscheduled node, over the unscheduled
    sub-DAG, from scratch."""
    order = [n for n in dag.topological_order() if n in unscheduled]
    asap = {}
    for n in order:
        asap[n] = 1 + max(
            (asap[p] for p in dag.predecessors(n) if p in unscheduled), default=0
        )
    horizon = max(asap.values(), default=0)
    alap = {}
    for n in reversed(order):
        alap[n] = min(
            (alap[s] - 1 for s in dag.successors(n) if s in unscheduled),
            default=horizon,
        )
    return {n: alap[n] - asap[n] for n in order}


@pytest.mark.parametrize("seed", range(ROUTE_SAMPLES))
def test_frontier_slack_matches_scratch_alap_minus_asap(seed):
    dag = DAGCircuit.from_circuit(decompose_to_two_qubit(_sample_circuit(seed)))
    depth_below = {}
    for n in reversed(dag.topological_order()):
        depth_below[n] = 1 + max(
            (depth_below[s] for s in dag.successors(n)), default=-1
        )
    rng = random.Random(seed)
    unscheduled = set(dag.nodes)
    while unscheduled:
        frontier = sorted(
            n
            for n in unscheduled
            if not any(p in unscheduled for p in dag.predecessors(n))
        )
        scratch = _scratch_slack(dag, unscheduled)
        assert _frontier_slack(set(frontier), depth_below) == {
            n: scratch[n] for n in frontier
        }, (seed, len(unscheduled))
        unscheduled.discard(rng.choice(frontier))


@pytest.mark.parametrize("seed", range(0, ROUTE_SAMPLES, 2))
def test_lookahead_kernels_identical(seed):
    """The bitset kernel and the networkx reference kernel must agree on
    every potential, hence on the full QS-assisted SR compilation."""
    circuit = _sample_circuit(seed)
    backend = _backend(seed)

    def _compile():
        return SRCaQR(backend, parallel=False).run(
            circuit, trials=1, qs_assist=True
        )

    try:
        fast = _result_signature(_compile())
    except ReuseError:
        with nx_lookahead_kernel(), pytest.raises(ReuseError):
            _compile()
        return
    with nx_lookahead_kernel():
        reference = _result_signature(_compile())
    assert fast == reference, seed
