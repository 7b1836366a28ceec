"""Batched trajectory engine: exact replay, noise fidelity, sharding."""

import pytest

from repro.circuit import QuantumCircuit
from repro.core import QSCaQR
from repro.exceptions import SimulationError
from repro.sim import NoiseModel, run_counts
from repro.sim.batch import run_batched_counts
from repro.sim.metrics import normalize_counts
from repro.stats import Stats
from repro.workloads import bv_circuit
from tests.oracles import exact_distribution

NOISE = NoiseModel.uniform(
    one_qubit_error=0.01, two_qubit_error=0.05, readout=0.03
)


def dynamic_circuit():
    circuit = QuantumCircuit(3, 4)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.x(2).c_if(0, 1)
    circuit.reset(0)
    circuit.ry(0.8, 0)
    circuit.measure(0, 1)
    circuit.measure(1, 2)
    circuit.measure(2, 3)
    return circuit


def _tvd_counts(a, b):
    pa, pb = normalize_counts(a), normalize_counts(b)
    keys = set(pa) | set(pb)
    return 0.5 * sum(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in keys)


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_noiseless_exact_replay(seed):
    """Unconditioned measures/resets: seeded counts are bit-identical to
    the reference loop (the engine pre-draws the same uniforms)."""
    circuit = dynamic_circuit()
    reference = run_counts(circuit, shots=900, seed=seed, engine="reference")
    batched = run_counts(circuit, shots=900, seed=seed, engine="batch")
    assert batched == reference


def test_terminal_circuits_delegate_to_fast_path():
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    stats = Stats()
    batched = run_counts(circuit, shots=800, seed=3, engine="batch", stats=stats)
    reference = run_counts(circuit, shots=800, seed=3, engine="reference")
    assert batched == reference
    assert stats.counters.get("terminal_shots") == 800


def test_conditioned_measure_distribution():
    """Conditioned measurements disable exact replay; the distribution
    still matches the exact density-matrix result."""
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.measure(0, 0)
    circuit.h(1)
    circuit.measure(1, 1).c_if(0, 1)
    exact = exact_distribution(circuit)
    counts = run_batched_counts(circuit, 8192, seed=5)
    assert _tvd_counts(counts, {k: v * 8192 for k, v in exact.items()}) < 0.02


@pytest.mark.slow
def test_noisy_matches_exact_distribution():
    """Batched noisy sampling converges on the exact noisy distribution."""
    circuit = QuantumCircuit(2, 2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    exact = exact_distribution(circuit, noise=NOISE)
    counts = run_batched_counts(circuit, 8192, seed=11, noise=NOISE)
    assert _tvd_counts(counts, {k: v * 8192 for k, v in exact.items()}) < 0.02


@pytest.mark.slow
def test_noisy_matches_reference_tvd():
    circuit = dynamic_circuit()
    reference = run_counts(
        circuit, shots=8192, seed=2, noise=NOISE, engine="reference"
    )
    batched = run_counts(circuit, shots=8192, seed=2, noise=NOISE, engine="batch")
    assert _tvd_counts(reference, batched) < 0.02


def test_fusion_counter_and_invariance():
    circuit = QSCaQR().sweep(bv_circuit(6))[-1].circuit
    stats = Stats()
    fused = run_batched_counts(circuit, 500, seed=7, stats=stats)
    unfused = run_batched_counts(circuit, 500, seed=7, fuse=False)
    assert fused == unfused
    assert stats.counters.get("fused_gates", 0) > 0


def test_parallel_matches_serial(two_workers):
    """Force the process pool on and pin its counts against the serial
    path — sharding and seeding are independent of the worker count."""
    circuit = dynamic_circuit()
    stats = Stats()
    parallel = run_batched_counts(
        circuit, 2000, seed=9, noise=NOISE, shard_size=512, parallel=True,
        stats=stats,
    )
    serial = run_batched_counts(
        circuit, 2000, seed=9, noise=NOISE, shard_size=512, parallel=False
    )
    assert parallel == serial
    assert stats.counters.get("parallel_batches", 0) == 1
    assert stats.counters.get("batch_shards") == 4


def test_shard_remainder():
    circuit = dynamic_circuit()
    stats = Stats()
    counts = run_batched_counts(
        circuit, 1000, seed=1, shard_size=300, stats=stats
    )
    assert sum(counts.values()) == 1000
    assert stats.counters.get("batch_shards") == 4  # 300+300+300+100


def test_rejects_relaxation():
    relaxing = NoiseModel(relaxation_enabled=True, t1={0: 1e4}, t2={0: 1e4})
    with pytest.raises(SimulationError, match="relaxation"):
        run_batched_counts(dynamic_circuit(), 10, seed=0, noise=relaxing)


def test_requires_clbits():
    circuit = QuantumCircuit(1, 0)
    circuit.h(0)
    with pytest.raises(SimulationError):
        run_batched_counts(circuit, 10, seed=0)
