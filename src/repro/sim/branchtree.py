"""Branch-tree engine for noiseless dynamic circuits.

The reference trajectory loop re-evolves the whole statevector from
``|0…0⟩`` for every shot, even though a noiseless dynamic circuit only
branches at mid-circuit measurements and resets — and reuse circuits have
*few* live measurement outcomes (DeCross et al., arXiv:2210.08039; Fang et
al., arXiv:2310.11021).  This engine evolves the deterministic unitary
prefix once, forks at each measurement/reset into the outcomes' exact Born
probabilities, and memoises shared suffix states, so the expensive
statevector work is paid once per *branch* instead of once per *shot*.

Key properties:

* **Bit-exact vs. the reference.**  Shots are replayed through the tree
  with the same seeded ``random.Random``: each visited branch node
  consumes exactly one uniform draw and compares it against the same
  ``P(1)`` the reference would compute, so seeded noiseless counts are
  identical to ``run_counts(engine="reference")`` — the shot allocation
  over leaves is the same multinomial split, realised draw-by-draw.
* **Lazy growth.**  A branch is only expanded (one statevector collapse +
  evolution to the next branch point) when a shot actually lands on it;
  dead outcomes cost nothing.
* **Suffix sharing.**  Nodes are memoised by ``(instruction index,
  live classical-condition bits, state fingerprint)``: measurement
  histories that converge to the same quantum state — e.g. both outcomes
  of a reuse reset — share one subtree.
* **Bounded memory.**  Tree growth stops at a node/byte cap; shots that
  would expand past it fall back to direct evolution from the capped
  node's cached state (still bit-exact).  Sub-``prune_threshold`` branches
  can optionally be pruned, with the dropped probability mass accumulated
  in the stats sink's ``values["dropped_mass"]`` and logged.
"""

from __future__ import annotations

import logging
import random
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuit import gates
from repro.circuit.circuit import QuantumCircuit
from repro.exceptions import SimulationError
from repro.sim.statevector import (
    OP_DELAY,
    OP_MEASURE,
    OP_RESET,
    OP_SKIP,
    Statevector,
    _fast_path_allowed,
    _sample_terminal,
    classify_instruction,
    condition_blocks,
)
from repro.stats import Stats

__all__ = ["BranchTreeSimulator", "run_branch_counts", "DEFAULT_MAX_NODES"]

logger = logging.getLogger(__name__)

# growth caps: past either, shots fall back to direct per-shot evolution
DEFAULT_MAX_NODES = 4096
DEFAULT_MAX_STATE_BYTES = 256 * 1024 * 1024

# amplitudes are rounded to this many decimals before fingerprinting, so
# float jitter from different collapse paths still lands on one cache key
_DIGEST_DECIMALS = 12

_TERMINAL = "terminal"


class _BranchNode:
    """One suspension point: a measure/reset about to execute, or the end.

    Branch nodes keep the *pre-collapse* statevector so either child can
    be materialised later; ``rel_bits`` holds the classical bits that any
    downstream condition may still read (the suffix-cache key component).
    """

    __slots__ = ("kind", "op_index", "qubit", "clbit", "p1", "state", "rel_bits", "children")

    def __init__(self, kind, op_index, qubit=None, clbit=None, p1=0.0, state=None, rel_bits=()):
        self.kind = kind  # OP_MEASURE | OP_RESET | _TERMINAL
        self.op_index = op_index
        self.qubit = qubit
        self.clbit = clbit
        self.p1 = p1
        self.state = state
        self.rel_bits = rel_bits  # sorted tuple of (clbit, value)
        self.children: List[Optional["_BranchNode"]] = [None, None]


def _live_condition_reads(circuit: QuantumCircuit) -> List[frozenset]:
    """``live[i]``: clbits a condition at index >= i may read before a write.

    Standard backwards liveness over the instruction list: a measurement
    writing a clbit kills its upstream liveness, a condition reading one
    creates it.  Two measurement histories agreeing on ``live[i]`` evolve
    identically from instruction ``i`` onward (given equal quantum state).
    """
    live: List[frozenset] = [frozenset()] * (len(circuit.data) + 1)
    current: frozenset = frozenset()
    for index in range(len(circuit.data) - 1, -1, -1):
        instruction = circuit.data[index]
        current = current - set(instruction.clbits)
        if instruction.condition is not None:
            current = current | {instruction.condition[0]}
        live[index] = current
    return live


class BranchTreeSimulator:
    """Lazy branch tree over one noiseless dynamic circuit.

    Build once, then :meth:`sample` any number of shot batches; the tree
    (and its suffix cache) persists across calls.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_state_bytes: int = DEFAULT_MAX_STATE_BYTES,
        prune_threshold: float = 0.0,
        stats: Optional[Stats] = None,
    ):
        if not 0.0 <= prune_threshold < 0.5:
            raise SimulationError("prune_threshold must be in [0, 0.5)")
        self.circuit = circuit
        self.max_nodes = max_nodes
        self.max_state_bytes = max_state_bytes
        self.prune_threshold = prune_threshold
        self.stats = stats if stats is not None else Stats()
        self.dropped_mass = 0.0
        self._live = _live_condition_reads(circuit)
        self._suffix_cache: Dict[Tuple, _BranchNode] = {}
        self._nodes = 0
        self._state_bytes = 0
        self._pruned_nodes = set()
        with self.stats.timed("prefix"):
            initial = Statevector(circuit.num_qubits)
            root_bits = {c: 0 for c in self._live[0]}
            self.root = self._advance(initial, root_bits, 0)

    # -- tree growth -------------------------------------------------------

    def _advance(self, state: Statevector, bits: Dict[int, int], start: int) -> _BranchNode:
        """Evolve *state* from instruction *start* to the next branch point.

        Returns the (possibly cached) node for that branch point, or the
        shared terminal node when the circuit ends first.  ``bits`` maps
        every clbit a future condition may read to its current value.
        """
        data = self.circuit.data
        for index in range(start, len(data)):
            instruction = data[index]
            kind = classify_instruction(instruction)
            if kind in (OP_SKIP, OP_DELAY):
                continue
            if instruction.condition is not None:
                clbit, value = instruction.condition
                if bits.get(clbit, 0) != value:
                    continue
            if kind in (OP_MEASURE, OP_RESET):
                return self._branch_node(state, bits, index, instruction, kind)
            state.apply_matrix(
                gates.gate_matrix(instruction.name, instruction.params),
                instruction.qubits,
            )
        return _BranchNode(_TERMINAL, len(data))

    def _branch_node(self, state, bits, index, instruction, kind) -> _BranchNode:
        rel = tuple(sorted((c, bits.get(c, 0)) for c in self._live[index]))
        digest = (np.round(state.amplitudes, _DIGEST_DECIMALS) + 0.0).tobytes()
        key = (index, rel, digest)
        cached = self._suffix_cache.get(key)
        if cached is not None:
            self.stats.count("suffix_cache_hits")
            return cached
        self.stats.count("suffix_cache_misses")
        node = _BranchNode(
            kind,
            index,
            qubit=instruction.qubits[0],
            clbit=instruction.clbits[0] if kind == OP_MEASURE else None,
            p1=state.probability_of_one(instruction.qubits[0]),
            state=state,
            rel_bits=rel,
        )
        self._suffix_cache[key] = node
        self._nodes += 1
        self._state_bytes += state.amplitudes.nbytes
        self.stats.count("branches_expanded")
        return node

    def _expand(self, node: _BranchNode, outcome: int) -> Optional[_BranchNode]:
        """Materialise *node*'s child for *outcome*; None when capped."""
        if self._nodes >= self.max_nodes or self._state_bytes >= self.max_state_bytes:
            return None
        with self.stats.timed("expand"):
            state = Statevector.__new__(Statevector)
            state.num_qubits = node.state.num_qubits
            state.amplitudes = node.state.amplitudes.copy()
            state.collapse(node.qubit, outcome)
            if node.kind == OP_RESET and outcome == 1:
                state.apply_matrix(gates.gate_matrix("x"), (node.qubit,))
            bits = dict(node.rel_bits)
            if node.kind == OP_MEASURE:
                bits[node.clbit] = outcome
            child = self._advance(state, bits, node.op_index + 1)
        node.children[outcome] = child
        return child

    # -- sampling ----------------------------------------------------------

    def sample(self, shots: int, rng: random.Random) -> Counter:
        """Draw *shots* trajectories through the (lazily grown) tree.

        Consumes one ``rng.random()`` per executed measurement/reset per
        shot, in program order — exactly the reference loop's draws — so
        seeded counts are bit-identical (with pruning off).
        """
        counts: Counter = Counter()
        num_clbits = self.circuit.num_clbits
        prune = self.prune_threshold
        with self.stats.timed("walk"):
            for _ in range(shots):
                node = self.root
                clbits = [0] * num_clbits
                path_prob = 1.0
                while node.kind != _TERMINAL:
                    outcome = 1 if rng.random() < node.p1 else 0
                    if prune > 0.0:
                        outcome, path_prob = self._pruned_outcome(
                            node, outcome, path_prob
                        )
                    child = node.children[outcome]
                    if child is None:
                        child = self._expand(node, outcome)
                    if node.kind == OP_MEASURE:
                        clbits[node.clbit] = outcome
                    if child is None:  # tree capped: finish directly
                        clbits = self._finish_shot(node, outcome, clbits, rng)
                        break
                    node = child
                counts["".join(map(str, clbits))] += 1
        self.stats.set_value("tree_nodes", float(self._nodes))
        if self.dropped_mass > 0.0:
            self.stats.set_value("dropped_mass", self.dropped_mass)
        return counts

    def _pruned_outcome(self, node, outcome, path_prob) -> Tuple[int, float]:
        """Redirect draws off sub-threshold branches, logging their mass."""
        branch_prob = node.p1 if outcome == 1 else 1.0 - node.p1
        if branch_prob < self.prune_threshold:
            if id(node) not in self._pruned_nodes:
                self._pruned_nodes.add(id(node))
                self.dropped_mass += path_prob * branch_prob
                logger.info(
                    "branch tree pruned outcome %d at instruction %d "
                    "(branch probability %.3g, dropped mass now %.3g)",
                    outcome,
                    node.op_index,
                    branch_prob,
                    self.dropped_mass,
                )
            outcome = 1 - outcome
            branch_prob = 1.0 - branch_prob
        return outcome, path_prob * branch_prob

    def _finish_shot(self, node, outcome, clbits, rng) -> List[int]:
        """Per-shot fallback past the node cap: evolve directly to the end.

        Draws from *rng* exactly as the reference loop would, preserving
        bit-exact seeded counts even when the tree stops growing.
        """
        self.stats.count("cap_fallback_shots")
        state = Statevector.__new__(Statevector)
        state.num_qubits = node.state.num_qubits
        state.amplitudes = node.state.amplitudes.copy()
        state.collapse(node.qubit, outcome)
        if node.kind == OP_RESET and outcome == 1:
            state.apply_matrix(gates.gate_matrix("x"), (node.qubit,))
        data = self.circuit.data
        for index in range(node.op_index + 1, len(data)):
            instruction = data[index]
            kind = classify_instruction(instruction)
            if kind in (OP_SKIP, OP_DELAY):
                continue
            if condition_blocks(instruction, clbits):
                continue
            if kind == OP_MEASURE:
                clbits[instruction.clbits[0]] = state.measure(
                    instruction.qubits[0], rng
                )
            elif kind == OP_RESET:
                state.reset(instruction.qubits[0], rng)
            else:
                state.apply_matrix(
                    gates.gate_matrix(instruction.name, instruction.params),
                    instruction.qubits,
                )
        return clbits


def run_branch_counts(
    circuit: QuantumCircuit,
    shots: int,
    seed: Optional[int] = None,
    stats: Optional[Stats] = None,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_state_bytes: int = DEFAULT_MAX_STATE_BYTES,
    prune_threshold: float = 0.0,
) -> Counter:
    """Noiseless counts via the branch tree (see the module docstring).

    With ``prune_threshold=0`` (the default) the seeded result is
    bit-identical to ``run_counts(circuit, shots, seed,
    engine="reference")`` for any dynamic circuit.
    """
    if shots <= 0:
        raise SimulationError("shots must be positive")
    if circuit.num_clbits == 0:
        raise SimulationError("circuit has no classical bits to sample")
    if _fast_path_allowed(circuit, None):
        # static circuit: the reference engine would sample the terminal
        # distribution (one draw per shot) rather than run the trajectory
        # loop; delegate so seeded counts stay bit-identical to it
        local_stats = stats if stats is not None else Stats()
        local_stats.count("terminal_shots", shots)
        return _sample_terminal(circuit, shots, random.Random(seed))
    simulator = BranchTreeSimulator(
        circuit,
        max_nodes=max_nodes,
        max_state_bytes=max_state_bytes,
        prune_threshold=prune_threshold,
        stats=stats,
    )
    simulator.stats.count("tree_shots", shots)
    return simulator.sample(shots, random.Random(seed))
