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
* the bitset reuse-potential lookahead vs. the networkx reference
  kernel (``tests.oracles.nx_lookahead_kernel``).

``CAQR_ROUTE_SAMPLES`` (default 25) scales the random-circuit pool; the
nightly CI job runs 200.
"""

import os

import pytest

from repro.circuit.random import random_circuit
from repro.core.sr_caqr import SRCaQR
from repro.exceptions import ReuseError
from repro.hardware import generic_backend, grid, ibm_mumbai, line
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
def test_sr_run_serial_parallel_identical(seed):
    circuit = _sample_circuit(seed)
    backend = _backend(seed)
    try:
        serial = SRCaQR(backend, parallel=False).run(
            circuit, trials=2, qs_assist=seed % 2 == 0
        )
    except ReuseError:
        with pytest.raises(ReuseError):
            SRCaQR(backend, parallel=True, max_workers=2).run(
                circuit, trials=2, qs_assist=seed % 2 == 0
            )
        return
    parallel = SRCaQR(backend, parallel=True, max_workers=2).run(
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
