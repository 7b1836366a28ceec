"""Engine selection, regression pins, and cross-engine agreement.

The counts pinned here were captured from the pre-engine-knob simulator,
so ``engine="reference"`` (and ``engine="auto"`` on its domain) staying
byte-identical to the historical output is enforced forever.
"""

import hashlib
import json

import pytest

from repro.circuit import QuantumCircuit
from repro.core import QSCaQR
from repro.exceptions import SimulationError
from repro.sim import NoiseModel, run_counts
from repro.sim.statevector import ENGINES, _resolve_engine
from repro.stats import Stats
from repro.workloads import bv_circuit


def ghz3():
    circuit = QuantumCircuit(3, 3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    for q in range(3):
        circuit.measure(q, q)
    return circuit


def wide12():
    circuit = QuantumCircuit(12, 12)
    for q in range(12):
        circuit.h(q)
        circuit.rz(0.3 * (q + 1), q)
    for q in range(11):
        circuit.cx(q, q + 1)
    for q in range(12):
        circuit.measure(q, q)
    return circuit


def branchy():
    circuit = QuantumCircuit(2, 3)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.x(1).c_if(0, 1)
    circuit.h(0)
    circuit.measure(0, 1)
    circuit.measure(1, 2)
    return circuit


def bv6_reuse():
    return QSCaQR().sweep(bv_circuit(6))[-1].circuit


def bell():
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    return circuit


NOISE = NoiseModel.uniform(
    one_qubit_error=0.01, two_qubit_error=0.05, readout=0.03
)

# (builder, shots, seed, noise) -> counts captured before the engine knob
PINS = [
    (ghz3, 3000, 8, None, {"000": 1533, "111": 1467}),
    (branchy, 600, 5, None, {"000": 140, "010": 141, "101": 157, "111": 162}),
    (bv6_reuse, 500, 7, None, {"11111": 500}),
    (bell, 512, 3, NOISE, {"00": 222, "01": 23, "10": 19, "11": 248}),
]
PIN_IDS = ["ghz3", "branchy", "bv6", "bell"]


@pytest.mark.parametrize("case", PINS, ids=PIN_IDS)
def test_regression_pins_reference(case):
    """engine="reference" reproduces the historical counts bit-for-bit."""
    builder, shots, seed, noise, expected = case
    counts = run_counts(
        builder(), shots=shots, seed=seed, noise=noise, engine="reference"
    )
    assert dict(counts) == expected


@pytest.mark.parametrize("case", PINS[:3], ids=PIN_IDS[:3])
def test_regression_pins_auto_noiseless(case):
    """On noiseless circuits auto routes to engines that are seeded
    bit-identical to the reference, so the pins hold there too.  (Noisy
    auto runs route to the batch engine, which is only required to match
    the reference in distribution.)"""
    builder, shots, seed, noise, expected = case
    counts = run_counts(builder(), shots=shots, seed=seed, noise=noise)
    assert dict(counts) == expected


def test_regression_pin_wide_terminal():
    """400-shot 12-qubit terminal sample, pinned by digest (390 keys)."""
    counts = run_counts(wide12(), shots=400, seed=21, engine="reference")
    digest = hashlib.sha256(
        json.dumps(dict(counts), sort_keys=True).encode()
    ).hexdigest()
    assert sum(counts.values()) == 400
    assert digest == (
        "dfdb381474ef2e1ad91bd22431273780ca235dde79ffda960645fdecd5bd78eb"
    )


def test_regression_pin_relaxation():
    circuit = QuantumCircuit(1, 1)
    circuit.x(0)
    circuit.delay(60000, 0)
    circuit.measure(0, 0)
    noise = NoiseModel(
        relaxation_enabled=True, t1={0: 50000.0}, t2={0: 50000.0}
    )
    counts = run_counts(circuit, shots=200, seed=12, noise=noise)
    assert dict(counts) == {"0": 156, "1": 44}


def test_auto_routing():
    trivial = NoiseModel.ideal()
    assert _resolve_engine(ghz3(), None, "auto") == "reference"
    assert _resolve_engine(branchy(), None, "auto") == "branchtree"
    assert _resolve_engine(branchy(), trivial, "auto") == "branchtree"
    assert _resolve_engine(branchy(), NOISE, "auto") == "batch"
    relaxing = NoiseModel(relaxation_enabled=True, t1={0: 1e4}, t2={0: 1e4})
    assert _resolve_engine(branchy(), relaxing, "auto") == "reference"
    # explicit choices pass through untouched
    for engine in ENGINES[1:]:
        assert _resolve_engine(branchy(), None, engine) == engine


def test_auto_routing_reports_stats():
    stats = Stats()
    run_counts(branchy(), shots=50, seed=1, stats=stats)
    assert stats.counters.get("tree_shots") == 50
    stats = Stats()
    run_counts(branchy(), shots=50, seed=1, noise=NOISE, stats=stats)
    assert stats.counters.get("batch_shots") == 50
    stats = Stats()
    run_counts(ghz3(), shots=50, seed=1, stats=stats)
    assert stats.counters.get("terminal_shots") == 50


def test_unknown_engine_rejected():
    with pytest.raises(SimulationError, match="unknown engine"):
        run_counts(ghz3(), shots=10, engine="warp")


def test_branchtree_rejects_noise():
    with pytest.raises(SimulationError, match="noiseless"):
        run_counts(branchy(), shots=10, noise=NOISE, engine="branchtree")


def test_batch_rejects_relaxation():
    relaxing = NoiseModel(relaxation_enabled=True, t1={0: 1e4}, t2={0: 1e4})
    with pytest.raises(SimulationError, match="relaxation"):
        run_counts(branchy(), shots=10, noise=relaxing, engine="batch")


@pytest.mark.parametrize("engine", ["branchtree", "batch"])
def test_engines_match_reference_exactly(engine):
    """Seeded noiseless counts from the fast engines are bit-identical to
    the reference trajectory loop on dynamic circuits."""
    for builder in (branchy, bv6_reuse):
        circuit = builder()
        reference = run_counts(circuit, shots=700, seed=13, engine="reference")
        fast = run_counts(circuit, shots=700, seed=13, engine=engine)
        assert fast == reference, builder.__name__
