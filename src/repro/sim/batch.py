"""Batched trajectory engine: shots as a leading batch axis.

The reference loop evolves one statevector per shot in pure Python.  This
engine keeps all shots of a shard in a single ``(shots, 2**n)`` complex
array and drives every step through vectorised numpy:

* gate application is one broadcast ``np.matmul`` over the batch axis;
* measurement probabilities, collapse, and renormalisation are computed
  for the whole batch at once;
* stochastic Pauli errors and readout flips are sampled per shot with a
  seeded :class:`numpy.random.Generator`, then applied to the hit subset
  grouped by sampled label;
* a fusion pre-pass folds runs of unconditioned single-qubit gates into
  one matrix per run (their depolarising-style Pauli channels commute
  with any single-qubit unitary, so the folded block keeps each original
  gate's error channel and the output distribution is unchanged).

Shots are split into fixed-size shards (bounded by a per-shard memory
cap); above a workload threshold the shards fan out over a process pool
(:mod:`repro.parallel`).  Sharding and per-shard seeding are independent
of the worker count, so parallel and serial runs return identical counts.

Determinism contract:

* **Noiseless** (``noise`` absent or trivial) with *unconditioned*
  measurements/resets: the engine pre-draws the per-shot uniforms from
  the same seeded ``random.Random`` in the same shot-major order the
  reference loop would consume them, so seeded counts match the
  reference bit-for-bit.
* **Noisy** (Pauli/readout errors): trajectories are sampled with numpy
  generators instead of ``random.Random``, so seeded counts are
  deterministic but not draw-for-draw identical to the reference — the
  distributions agree (pinned by TVD tests).
* **T1/T2 relaxation is unsupported** — the relaxation wire clock is
  outcome-dependent and does not vectorise; :func:`run_batched_counts`
  raises so callers fall back to the reference loop.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit import gates
from repro.circuit.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.parallel import default_workers, fans_out, pooled_map
from repro.sim.noise import NoiseModel
from repro.sim.statevector import (
    _PAULI_1Q,
    _PAULI_2Q,
    _PAULIS,
    _fast_path_allowed,
    _sample_terminal,
    OP_DELAY,
    OP_MEASURE,
    OP_RESET,
    OP_SKIP,
    OP_UNITARY,
    classify_instruction,
)
from repro.stats import Stats

__all__ = [
    "run_batched_counts",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_PARALLEL_THRESHOLD",
]

DEFAULT_SHARD_SIZE = 1024
# shots * 2**n * ops below this run in-process (pool spawn ~0.5 s/worker)
DEFAULT_PARALLEL_THRESHOLD = 64_000_000
# per-shard amplitude-array cap; shards shrink below shard_size past it
DEFAULT_MAX_SHARD_BYTES = 1 << 28

_AMPLITUDE_BYTES = 16  # complex128


# -- compilation ---------------------------------------------------------------
#
# Compiled ops are plain tuples (picklable for the process pool):
#   ("unitary", matrix, qubits, condition)
#   ("pauli",   qubits, probability, condition)   stochastic Pauli channel
#   ("measure", qubit, clbit, readout_flip, condition)
#   ("reset",   qubit, condition)
# condition is None or (clbit, value), exactly as on Instruction.


def _compile(
    circuit: QuantumCircuit, noise: Optional[NoiseModel], fuse: bool
) -> Tuple[List[tuple], int]:
    """Lower circuit.data to the op tuples above; returns (ops, fused_gates).

    With *fuse*, runs of unconditioned single-qubit unitaries fold into a
    single matrix per qubit; each folded gate's Pauli-error channel is
    emitted after the fused block (valid because the uniform-XYZ channel
    commutes with single-qubit unitaries).  Barriers and delays vanish —
    without relaxation neither affects the state or the classical bits.
    """
    ops: List[tuple] = []
    pending: Dict[int, list] = {}  # qubit -> [folded matrix, [error probs]]
    fused = 0

    def flush(qubit: int) -> None:
        entry = pending.pop(qubit, None)
        if entry is None:
            return
        ops.append(("unitary", entry[0], (qubit,), None))
        for probability in entry[1]:
            ops.append(("pauli", (qubit,), probability, None))

    for instruction in circuit.data:
        kind = classify_instruction(instruction)
        if kind in (OP_SKIP, OP_DELAY):
            continue
        condition = instruction.condition
        if kind == OP_UNITARY:
            matrix = gates.gate_matrix(instruction.name, instruction.params)
            error = (
                noise.gate_error(instruction.name, instruction.qubits)
                if noise is not None
                else 0.0
            )
            if fuse and condition is None and len(instruction.qubits) == 1:
                qubit = instruction.qubits[0]
                entry = pending.get(qubit)
                if entry is None:
                    pending[qubit] = [matrix, [error] if error > 0 else []]
                else:
                    entry[0] = matrix @ entry[0]
                    if error > 0:
                        entry[1].append(error)
                    fused += 1
                continue
            for qubit in instruction.qubits:
                flush(qubit)
            ops.append(("unitary", matrix, instruction.qubits, condition))
            if error > 0:
                ops.append(("pauli", instruction.qubits, error, condition))
        elif kind == OP_MEASURE:
            qubit = instruction.qubits[0]
            flush(qubit)
            flip = noise.readout_error(qubit) if noise is not None else 0.0
            ops.append(
                ("measure", qubit, instruction.clbits[0], flip, condition)
            )
        elif kind == OP_RESET:
            qubit = instruction.qubits[0]
            flush(qubit)
            ops.append(("reset", qubit, condition))
    for qubit in sorted(pending):
        flush(qubit)
    return ops, fused


def _exact_replay_ok(
    circuit: QuantumCircuit, noise: Optional[NoiseModel]
) -> bool:
    """True when seeded counts can match the reference loop bit-for-bit:
    no stochastic noise, and every measure/reset unconditioned (so every
    shot consumes the same number of uniforms in the same program order)."""
    if noise is not None and not noise.is_trivial():
        return False
    for instruction in circuit.data:
        if classify_instruction(instruction) in (OP_MEASURE, OP_RESET):
            if instruction.condition is not None:
                return False
    return True


# -- vectorised primitives -----------------------------------------------------


def _apply_matrix_batch(
    amps: np.ndarray, matrix: np.ndarray, qubits: Tuple[int, ...], n: int
) -> np.ndarray:
    """Apply a ``2^k x 2^k`` unitary to every shot of ``(S, 2^n)`` *amps*."""
    batch = amps.shape[0]
    k = len(qubits)
    tensor = amps.reshape([batch] + [2] * n)
    axes = [qubit + 1 for qubit in qubits]
    tensor = np.moveaxis(tensor, axes, range(1, k + 1))
    shaped = tensor.reshape(batch, 1 << k, -1)
    shaped = np.matmul(matrix, shaped)
    tensor = shaped.reshape([batch] + [2] * n)
    tensor = np.moveaxis(tensor, range(1, k + 1), axes)
    return np.ascontiguousarray(tensor).reshape(batch, 1 << n)


def _probability_of_one(amps: np.ndarray, qubit: int) -> np.ndarray:
    """Per-shot P(|1>) on *qubit* (qubit q = q-th most significant bit)."""
    view = amps.reshape(amps.shape[0], 1 << qubit, 2, -1)
    return (np.abs(view[:, :, 1, :]) ** 2).sum(axis=(1, 2))


def _collapse_batch(
    amps: np.ndarray, qubit: int, outcomes: np.ndarray
) -> None:
    """Project each shot onto its outcome and renormalise, in place."""
    view = amps.reshape(amps.shape[0], 1 << qubit, 2, -1)
    ones = np.nonzero(outcomes)[0]
    zeros = np.nonzero(outcomes == 0)[0]
    if ones.size:
        view[ones, :, 0, :] = 0.0
    if zeros.size:
        view[zeros, :, 1, :] = 0.0
    norms = np.sqrt((np.abs(amps) ** 2).sum(axis=1))
    if np.any(norms < 1e-12):
        raise SimulationError("state collapsed to zero vector")
    amps /= norms[:, None]


def _apply_pauli_batch(
    amps: np.ndarray,
    rows: np.ndarray,
    qubits: Tuple[int, ...],
    probability: float,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """Sample the stochastic Pauli channel for *rows*, apply to the hits."""
    hits = rows[rng.random(rows.size) < probability]
    if hits.size == 0:
        return amps
    if len(qubits) == 1:
        labels = rng.integers(0, len(_PAULI_1Q), size=hits.size)
        for index, name in enumerate(_PAULI_1Q):
            selected = hits[labels == index]
            if selected.size:
                amps[selected] = _apply_matrix_batch(
                    amps[selected], _PAULIS[name], qubits, n
                )
    else:
        labels = rng.integers(0, len(_PAULI_2Q), size=hits.size)
        for index, label in enumerate(_PAULI_2Q):
            selected = hits[labels == index]
            if selected.size == 0:
                continue
            for pauli, qubit in zip(label, qubits):
                if pauli != "I":
                    amps[selected] = _apply_matrix_batch(
                        amps[selected], _PAULIS[pauli], (qubit,), n
                    )
    return amps


# -- shard execution -----------------------------------------------------------


def _execute_shard(
    ops: List[tuple],
    num_qubits: int,
    num_clbits: int,
    shard_shots: int,
    seed_seq: Optional[np.random.SeedSequence],
    draws: Optional[np.ndarray],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Run one shard; returns (counts, stats counters).

    Exactly one of *seed_seq* (noisy / distributional mode) and *draws*
    (exact-replay mode: this shard's rows of the pre-drawn uniform
    matrix) is provided.
    """
    n = num_qubits
    rng = np.random.default_rng(seed_seq) if seed_seq is not None else None
    amps = np.zeros((shard_shots, 1 << n), dtype=np.complex128)
    amps[:, 0] = 1.0
    clbits = np.zeros((shard_shots, num_clbits), dtype=np.int8)
    all_rows = np.arange(shard_shots)
    draw_col = 0
    for op in ops:
        kind = op[0]
        condition = op[-1]
        if condition is None:
            rows = all_rows
        else:
            rows = np.nonzero(clbits[:, condition[0]] == condition[1])[0]
            if rows.size == 0:
                continue
        if kind == "unitary":
            _, matrix, qubits, _ = op
            if rows is all_rows:
                amps = _apply_matrix_batch(amps, matrix, qubits, n)
            else:
                amps[rows] = _apply_matrix_batch(amps[rows], matrix, qubits, n)
        elif kind == "pauli":
            _, qubits, probability, _ = op
            amps = _apply_pauli_batch(amps, rows, qubits, probability, rng, n)
        elif kind == "measure":
            _, qubit, clbit, flip, _ = op
            sub = amps if rows is all_rows else amps[rows]
            p1 = _probability_of_one(sub, qubit)
            if draws is not None:
                uniforms = draws[:, draw_col]
                draw_col += 1
            else:
                uniforms = rng.random(rows.size)
            outcomes = (uniforms < p1).astype(np.int8)
            _collapse_batch(sub, qubit, outcomes)
            if rows is not all_rows:
                amps[rows] = sub
            if flip > 0:
                flips = rng.random(rows.size) < flip
                outcomes = outcomes ^ flips.astype(np.int8)
            clbits[rows, clbit] = outcomes
        elif kind == "reset":
            _, qubit, _ = op
            sub = amps if rows is all_rows else amps[rows]
            p1 = _probability_of_one(sub, qubit)
            if draws is not None:
                uniforms = draws[:, draw_col]
                draw_col += 1
            else:
                uniforms = rng.random(rows.size)
            outcomes = (uniforms < p1).astype(np.int8)
            _collapse_batch(sub, qubit, outcomes)
            ones = np.nonzero(outcomes)[0]
            if ones.size:
                view = sub.reshape(sub.shape[0], 1 << qubit, 2, -1)
                view[ones, :, 0, :] = view[ones, :, 1, :]
                view[ones, :, 1, :] = 0.0
            if rows is not all_rows:
                amps[rows] = sub
    counts: Dict[str, int] = {}
    if num_clbits:
        keys, tallies = np.unique(clbits, axis=0, return_counts=True)
        for row, tally in zip(keys, tallies):
            counts["".join(map(str, row))] = int(tally)
    else:
        counts[""] = shard_shots
    counters = {
        "batch_shards": 1,
        "batch_shots": shard_shots,
    }
    return counts, counters


def _run_shard_worker(payload: tuple) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Module-level wrapper so the process pool can pickle the call."""
    return _execute_shard(*payload)


# -- entry point ---------------------------------------------------------------


def run_batched_counts(
    circuit: QuantumCircuit,
    shots: int,
    seed: Optional[int] = None,
    noise: Optional[NoiseModel] = None,
    stats: Optional[Stats] = None,
    fuse: bool = True,
    parallel: Optional[bool] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
    max_shard_bytes: int = DEFAULT_MAX_SHARD_BYTES,
) -> Counter:
    """Counts via the batched engine (see the module docstring).

    *parallel* is the :func:`repro.parallel.fans_out` tri-state of the
    shard map; by default it pools at :data:`DEFAULT_PARALLEL_THRESHOLD`.

    Raises :class:`~repro.exceptions.SimulationError` when the noise
    model enables T1/T2 relaxation — use the reference engine there.
    """
    if shots <= 0:
        raise SimulationError("shots must be positive")
    if circuit.num_clbits == 0:
        raise SimulationError("circuit has no classical bits to sample")
    if noise is not None and noise.relaxation_enabled:
        raise SimulationError(
            "the batch engine does not support T1/T2 relaxation; use "
            "engine='reference'"
        )
    stats = stats if stats is not None else Stats()
    effective_noise = None if noise is None or noise.is_trivial() else noise
    if _fast_path_allowed(circuit, effective_noise):
        # static noiseless circuit: the terminal sampler (evolve once,
        # sample the final distribution) is already optimal, and using it
        # keeps engine="batch" bit-identical to the reference here too
        stats.count("terminal_shots", shots)
        return _sample_terminal(circuit, shots, random.Random(seed))
    with stats.timed("compile"):
        ops, fused = _compile(circuit, noise, fuse)
    if fused:
        stats.count("fused_gates", fused)
    exact = _exact_replay_ok(circuit, noise)

    n = circuit.num_qubits
    rows_cap = max(1, max_shard_bytes // (_AMPLITUDE_BYTES << n))
    rows_per_shard = max(1, min(shard_size, rows_cap))
    starts = list(range(0, shots, rows_per_shard))
    sizes = [min(rows_per_shard, shots - start) for start in starts]
    stats.set_value(
        "batch_amplitude_bytes", float(max(sizes) * (_AMPLITUDE_BYTES << n))
    )

    if exact:
        # same generator, same shot-major draw order as the reference loop
        num_draws = sum(op[0] in ("measure", "reset") for op in ops)
        base = random.Random(seed)
        matrix = np.array(
            [
                [base.random() for _ in range(num_draws)]
                for _ in range(shots)
            ],
            dtype=np.float64,
        ).reshape(shots, num_draws)
        payloads = [
            (ops, n, circuit.num_clbits, size, None, matrix[start : start + size])
            for start, size in zip(starts, sizes)
        ]
    else:
        sequences = np.random.SeedSequence(seed).spawn(len(starts))
        payloads = [
            (ops, n, circuit.num_clbits, size, sequence, None)
            for size, sequence in zip(sizes, sequences)
        ]

    workload = shots * (1 << n) * max(len(ops), 1)
    workers = default_workers()
    counts: Counter = Counter()
    with stats.timed("execute"):
        if fans_out(
            parallel,
            len(payloads),
            workers,
            workload=workload,
            threshold=DEFAULT_PARALLEL_THRESHOLD,
        ):
            stats.count("parallel_batches")
            results = pooled_map(_run_shard_worker, payloads, workers)
        else:
            stats.count("serial_batches")
            results = [_execute_shard(*payload) for payload in payloads]
    for shard_counts, counters in results:
        counts.update(shard_counts)
        for name, value in counters.items():
            stats.count(name, value)
    return counts
