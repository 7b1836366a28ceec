"""Trajectory statevector simulator with dynamic-circuit support.

Executes mid-circuit measurement, reset, and classically conditioned gates
— the operations qubit reuse is built from.  Supports optional noise
(stochastic Pauli errors, readout flips, and T1/T2 relaxation driven by a
per-qubit wire clock), in which case every shot is an independent quantum
trajectory.

:func:`run_counts` fronts three engines (see ``docs/SIMULATOR.md``):

* ``"reference"`` — the original per-shot trajectory loop in this module,
  kept bit-for-bit stable for fixed seeds;
* ``"branchtree"`` — :mod:`repro.sim.branchtree`, which evolves each
  distinct measurement history once (noiseless dynamic circuits);
* ``"batch"`` — :mod:`repro.sim.batch`, which vectorises shots as a
  leading batch axis (noisy runs without T1/T2 relaxation).

``engine="auto"`` (the default) routes to the fastest engine that matches
the reference semantics for the given circuit and noise model.

Bit-ordering conventions (documented, deliberate):

* basis index bit of qubit ``q`` is the ``q``-th *most significant* bit of
  the ``2**n`` statevector index;
* counts keys list classical bit 0 leftmost: key ``"01"`` means clbit 0
  read 0 and clbit 1 read 1.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit import gates
from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.exceptions import SimulationError
from repro.sim.noise import NoiseModel
from repro.stats import Stats

__all__ = [
    "Statevector",
    "run_counts",
    "final_statevector",
    "ENGINES",
    "classify_instruction",
    "condition_blocks",
    "OP_SKIP",
    "OP_DELAY",
    "OP_MEASURE",
    "OP_RESET",
    "OP_UNITARY",
]

# the engines run_counts can route to; "auto" picks per circuit/noise
ENGINES = ("auto", "reference", "branchtree", "batch")

_PAULIS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": gates.gate_matrix("x"),
    "Y": gates.gate_matrix("y"),
    "Z": gates.gate_matrix("z"),
}
_PAULI_1Q = ["X", "Y", "Z"]
_PAULI_2Q = [
    a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"
]

# -- shared instruction dispatch ------------------------------------------------
#
# Every interpreter over circuit.data (the trajectory loop, the terminal
# sampler, final_statevector, and the branch-tree / batch engines) must
# agree on what each instruction *is* and on when a classical condition
# blocks it.  Centralising both decisions here keeps the interpreters from
# drifting (e.g. one skipping delays while another treats them as gates).

OP_SKIP = "skip"  # directives: barrier — ordering only, no simulation effect
OP_DELAY = "delay"  # idle time: advances the wire clock, no state change
OP_MEASURE = "measure"
OP_RESET = "reset"
OP_UNITARY = "unitary"


def classify_instruction(instruction: Instruction) -> str:
    """Map an instruction onto the simulator's operation kinds."""
    if instruction.is_directive():
        return OP_SKIP
    name = instruction.name
    if name == "measure":
        return OP_MEASURE
    if name == "reset":
        return OP_RESET
    if name == "delay":
        return OP_DELAY
    return OP_UNITARY


def condition_blocks(instruction: Instruction, clbits: Sequence[int]) -> bool:
    """True when *instruction*'s classical condition forbids executing it."""
    condition = instruction.condition
    if condition is None:
        return False
    clbit, value = condition
    return clbits[clbit] != value


class Statevector:
    """A mutable *n*-qubit pure state."""

    def __init__(self, num_qubits: int):
        if num_qubits < 0 or num_qubits > 26:
            raise SimulationError(f"cannot simulate {num_qubits} qubits")
        self.num_qubits = num_qubits
        self.amplitudes = np.zeros(2**num_qubits, dtype=np.complex128)
        self.amplitudes[0] = 1.0

    # -- linear algebra ---------------------------------------------------------

    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a ``2^k x 2^k`` unitary to the given qubits (gate order)."""
        k = len(qubits)
        if matrix.shape != (2**k, 2**k):
            raise SimulationError("matrix size does not match qubit count")
        n = self.num_qubits
        tensor = self.amplitudes.reshape([2] * n)
        axes = list(qubits)
        tensor = np.moveaxis(tensor, axes, range(k))
        shaped = tensor.reshape(2**k, -1)
        shaped = matrix @ shaped
        tensor = shaped.reshape([2] * n)
        tensor = np.moveaxis(tensor, range(k), axes)
        self.amplitudes = np.ascontiguousarray(tensor).reshape(2**n)

    def probability_of_one(self, qubit: int) -> float:
        """P(measuring |1>) on *qubit*."""
        tensor = self.amplitudes.reshape([2] * self.num_qubits)
        slice_one = np.moveaxis(tensor, qubit, 0)[1]
        return float(np.sum(np.abs(slice_one) ** 2))

    def collapse(self, qubit: int, outcome: int) -> None:
        """Project *qubit* onto *outcome* and renormalise."""
        tensor = self.amplitudes.reshape([2] * self.num_qubits)
        moved = np.moveaxis(tensor, qubit, 0)
        moved[1 - outcome] = 0.0
        self.amplitudes = np.ascontiguousarray(
            np.moveaxis(moved, 0, qubit)
        ).reshape(2**self.num_qubits)
        norm = np.linalg.norm(self.amplitudes)
        if norm < 1e-12:
            raise SimulationError("state collapsed to zero vector")
        self.amplitudes /= norm

    def measure(self, qubit: int, rng: random.Random) -> int:
        """Sample a computational-basis outcome and collapse."""
        p1 = self.probability_of_one(qubit)
        outcome = 1 if rng.random() < p1 else 0
        self.collapse(qubit, outcome)
        return outcome

    def reset(self, qubit: int, rng: random.Random) -> None:
        """Measure-and-discard, then force the wire to |0>."""
        outcome = self.measure(qubit, rng)
        if outcome == 1:
            self.apply_matrix(_PAULIS["X"], (qubit,))

    def apply_kraus(
        self, kraus: Sequence[np.ndarray], qubit: int, rng: random.Random
    ) -> None:
        """Sample one single-qubit Kraus branch and renormalise."""
        draw = rng.random()
        cumulative = 0.0
        for index, operator in enumerate(kraus):
            candidate = self._candidate(operator, qubit)
            weight = float(np.sum(np.abs(candidate) ** 2))
            cumulative += weight
            if draw < cumulative or index == len(kraus) - 1:
                norm = math.sqrt(weight) if weight > 1e-15 else 1.0
                self.amplitudes = candidate / norm
                return

    def _candidate(self, operator: np.ndarray, qubit: int) -> np.ndarray:
        tensor = self.amplitudes.reshape([2] * self.num_qubits)
        tensor = np.moveaxis(tensor, qubit, 0)
        shaped = tensor.reshape(2, -1)
        shaped = operator @ shaped
        tensor = shaped.reshape([2] * self.num_qubits)
        tensor = np.moveaxis(tensor, 0, qubit)
        return np.ascontiguousarray(tensor).reshape(2**self.num_qubits)

    def probabilities(self) -> np.ndarray:
        """The full ``2^n`` probability vector."""
        return np.abs(self.amplitudes) ** 2


def _relax(
    state: Statevector,
    qubit: int,
    elapsed_dt: float,
    t1_dt: float,
    t2_dt: float,
    rng: random.Random,
) -> None:
    """Thermal relaxation over *elapsed_dt* as amplitude damping + dephasing."""
    if elapsed_dt <= 0:
        return
    if math.isfinite(t1_dt) and t1_dt > 0:
        gamma = 1.0 - math.exp(-elapsed_dt / t1_dt)
        if gamma > 0:
            k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=np.complex128)
            k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=np.complex128)
            state.apply_kraus([k0, k1], qubit, rng)
    if math.isfinite(t2_dt) and t2_dt > 0:
        # pure-dephasing rate beyond what T1 already causes
        rate = max(1.0 / t2_dt - 0.5 / t1_dt if math.isfinite(t1_dt) else 1.0 / t2_dt, 0.0)
        p_flip = 0.5 * (1.0 - math.exp(-elapsed_dt * rate))
        if rng.random() < p_flip:
            state.apply_matrix(_PAULIS["Z"], (qubit,))


def _apply_pauli_error(
    state: Statevector,
    qubits: Tuple[int, ...],
    probability: float,
    rng: random.Random,
) -> None:
    """Depolarizing-style stochastic Pauli error on 1 or 2 qubits."""
    if probability <= 0 or rng.random() >= probability:
        return
    if len(qubits) == 1:
        label = rng.choice(_PAULI_1Q)
        state.apply_matrix(_PAULIS[label], qubits)
    else:
        label = rng.choice(_PAULI_2Q)
        for pauli, qubit in zip(label, qubits):
            if pauli != "I":
                state.apply_matrix(_PAULIS[pauli], (qubit,))


def _run_trajectory(
    circuit: QuantumCircuit,
    noise: Optional[NoiseModel],
    rng: random.Random,
) -> List[int]:
    """One shot: returns final classical bits."""
    state = Statevector(circuit.num_qubits)
    clbits = [0] * circuit.num_clbits
    clock: Dict[int, float] = {q: 0.0 for q in range(circuit.num_qubits)}
    wall: Dict[int, float] = dict(clock)

    def _advance(qubits: Tuple[int, ...], duration: float) -> None:
        start = max((wall[q] for q in qubits), default=0.0)
        for q in qubits:
            if noise is not None and noise.relaxation_enabled:
                # relax over the idle gap plus this instruction's own window
                elapsed = (start + duration) - wall[q]
                _relax(state, q, elapsed, noise.t1_dt(q), noise.t2_dt(q), rng)
            wall[q] = start + duration

    for instruction in circuit.data:
        kind = classify_instruction(instruction)
        if kind == OP_SKIP:
            continue
        duration = float(instruction.duration_dt())
        if condition_blocks(instruction, clbits):
            continue
        if kind == OP_MEASURE:
            qubit = instruction.qubits[0]
            _advance(instruction.qubits, duration)
            outcome = state.measure(qubit, rng)
            if noise is not None:
                flip = noise.readout_error(qubit)
                if flip > 0 and rng.random() < flip:
                    outcome = 1 - outcome
            clbits[instruction.clbits[0]] = outcome
            continue
        if kind == OP_RESET:
            _advance(instruction.qubits, duration)
            state.reset(instruction.qubits[0], rng)
            continue
        if kind == OP_DELAY:
            _advance(instruction.qubits, float(instruction.params[0]))
            continue
        matrix = gates.gate_matrix(instruction.name, instruction.params)
        _advance(instruction.qubits, duration)
        state.apply_matrix(matrix, instruction.qubits)
        if noise is not None:
            _apply_pauli_error(
                state,
                instruction.qubits,
                noise.gate_error(instruction.name, instruction.qubits),
                rng,
            )
    if noise is not None and noise.relaxation_enabled:
        # relax remaining qubits up to the global end of circuit
        horizon = max(wall.values(), default=0.0)
        for q in range(circuit.num_qubits):
            _relax(state, q, horizon - wall[q], noise.t1_dt(q), noise.t2_dt(q), rng)
    return clbits


def _fast_path_allowed(circuit: QuantumCircuit, noise: Optional[NoiseModel]) -> bool:
    if noise is not None:
        return False
    if circuit.has_dynamic_operations():
        return False
    # each clbit must be written at most once
    written = set()
    for instruction in circuit.data:
        for c in instruction.clbits:
            if c in written:
                return False
            written.add(c)
    return True


def _sample_terminal(
    circuit: QuantumCircuit, shots: int, rng: random.Random
) -> Counter:
    """Noiseless fast path: evolve once, sample the terminal distribution.

    Sampling uses cumulative probabilities + ``np.searchsorted`` rather
    than ``random.choices`` over ``range(2**n)`` — materialising that range
    is 67M entries at the 26-qubit cap.  The draws and the bisection match
    ``random.choices`` exactly (same accumulate/bisect-right arithmetic),
    so seeded results are unchanged.
    """
    state = Statevector(circuit.num_qubits)
    measurements: List[Tuple[int, int]] = []
    for instruction in circuit.data:
        kind = classify_instruction(instruction)
        if kind in (OP_SKIP, OP_DELAY):
            continue
        if kind == OP_MEASURE:
            measurements.append((instruction.qubits[0], instruction.clbits[0]))
            continue
        state.apply_matrix(
            gates.gate_matrix(instruction.name, instruction.params),
            instruction.qubits,
        )
    probabilities = state.probabilities()
    cumulative = np.cumsum(probabilities)
    total = cumulative[-1] + 0.0
    draws = np.array([rng.random() for _ in range(shots)], dtype=np.float64)
    indices = np.minimum(
        np.searchsorted(cumulative, draws * total, side="right"),
        len(cumulative) - 1,
    )
    counts: Counter = Counter()
    n = circuit.num_qubits
    key_cache: Dict[int, str] = {}
    for index in indices:
        index = int(index)
        key = key_cache.get(index)
        if key is None:
            clbits = [0] * circuit.num_clbits
            for qubit, clbit in measurements:
                clbits[clbit] = (index >> (n - 1 - qubit)) & 1
            key = "".join(map(str, clbits))
            key_cache[index] = key
        counts[key] += 1
    return counts


def _resolve_engine(
    circuit: QuantumCircuit, noise: Optional[NoiseModel], engine: str
) -> str:
    """Pick the concrete engine for ``engine="auto"`` (validated elsewhere).

    Routing rules (each engine matches the reference semantics on its
    domain — see ``docs/SIMULATOR.md``):

    * no dynamic operations, no noise → the reference terminal sampler
      (one evolution, direct distribution sampling — already optimal);
    * noiseless (or trivially-noisy) dynamic circuit → branch tree;
    * noise without T1/T2 relaxation → batched trajectories;
    * relaxation enabled → reference loop (the per-shot wire clock is
      outcome-dependent and does not vectorise).
    """
    if engine != "auto":
        return engine
    if _fast_path_allowed(circuit, noise):
        return "reference"
    if noise is None or noise.is_trivial():
        return "branchtree"
    if not noise.relaxation_enabled:
        return "batch"
    return "reference"


def run_counts(
    circuit: QuantumCircuit,
    shots: int = 1024,
    seed: Optional[int] = None,
    noise: Optional[NoiseModel] = None,
    engine: str = "auto",
    stats: Optional[Stats] = None,
) -> Counter:
    """Execute *circuit* for *shots* and return classical-bit counts.

    Keys are classical bitstrings with clbit 0 leftmost.

    Args:
        engine: one of :data:`ENGINES`.  ``"auto"`` (default) picks the
            fastest engine whose semantics match the reference for this
            circuit/noise combination; ``"reference"`` forces the original
            per-shot trajectory loop (bit-for-bit stable for fixed seeds);
            ``"branchtree"`` requires a noiseless (or trivially-noisy) run
            and produces seeded counts identical to the reference;
            ``"batch"`` requires a noise model without T1/T2 relaxation.
        stats: optional :class:`~repro.stats.Stats` sink for engine
            counters and per-phase timers.
    """
    if shots <= 0:
        raise SimulationError("shots must be positive")
    if circuit.num_clbits == 0:
        raise SimulationError("circuit has no classical bits to sample")
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    resolved = _resolve_engine(circuit, noise, engine)
    if resolved == "branchtree":
        if noise is not None and not noise.is_trivial():
            raise SimulationError(
                "the branch-tree engine is noiseless; use engine='batch' "
                "or engine='reference' for noisy runs"
            )
        from repro.sim.branchtree import run_branch_counts

        return run_branch_counts(circuit, shots, seed=seed, stats=stats)
    if resolved == "batch":
        if noise is not None and noise.relaxation_enabled:
            raise SimulationError(
                "the batch engine does not support T1/T2 relaxation; use "
                "engine='reference'"
            )
        from repro.sim.batch import run_batched_counts

        return run_batched_counts(
            circuit, shots, seed=seed, noise=noise, stats=stats
        )
    # reference: the original path, bit-for-bit
    rng = random.Random(seed)
    if _fast_path_allowed(circuit, noise):
        if stats is not None:
            stats.count("terminal_shots", shots)
        return _sample_terminal(circuit, shots, rng)
    if stats is not None:
        stats.count("reference_shots", shots)
    counts: Counter = Counter()
    for _ in range(shots):
        clbits = _run_trajectory(circuit, noise, rng)
        counts["".join(map(str, clbits))] += 1
    return counts


def final_statevector(circuit: QuantumCircuit, seed: Optional[int] = None) -> np.ndarray:
    """Noiseless final statevector (measurements collapse, sampled by *seed*)."""
    rng = random.Random(seed)
    state = Statevector(circuit.num_qubits)
    clbits = [0] * max(circuit.num_clbits, 1)
    for instruction in circuit.data:
        kind = classify_instruction(instruction)
        if kind in (OP_SKIP, OP_DELAY):
            continue
        if condition_blocks(instruction, clbits):
            continue
        if kind == OP_MEASURE:
            clbits[instruction.clbits[0]] = state.measure(instruction.qubits[0], rng)
        elif kind == OP_RESET:
            state.reset(instruction.qubits[0], rng)
        else:
            state.apply_matrix(
                gates.gate_matrix(instruction.name, instruction.params),
                instruction.qubits,
            )
    return state.amplitudes
