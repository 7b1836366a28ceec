"""Gate-level reuse windows: per-qubit liveness and chain compatibility.

The greedy QS/SR engines and the exact oracle all reason about reuse at
whole-qubit-lifetime granularity: a qubit is "done" only after its last
gate, and candidate pairs are re-derived from a materialised circuit at
every step.  Rovara/Burgholzer/Wille ("Qubit Reuse Beyond Reorder and
Reset", arXiv:2511.22712) and Fang et al. ("Dynamic quantum circuit
compilation", arXiv:2310.11021) recast the problem in terms of *windows*:
the interval of schedule layers during which a qubit actually carries
state.  A qubit whose window closes mid-circuit frees its wire for any
qubit whose window has not yet opened — and that interval view both
exposes *why* a pair is compatible and gives a cheap sound prune that
skips the dependency-matrix scan for most pairs.

This module is the analysis half of the chain subsystem
(:mod:`repro.core.chains` is the search half):

* :class:`ReuseWindow` — one qubit's liveness record: birth/death ASAP
  layers, instruction span, whether it dies *mid-circuit* (before the
  final layer), and whether its last op is a terminal measurement (which
  :func:`~repro.core.transform.apply_reuse_pair` reuses instead of
  inserting a fresh one — the lever the dual-register cost model pulls).
* :class:`WindowAnalysis` — computes every window from the dependency
  DAG, answers the pair-level compatibility question with the interval
  prune in front of the reachability test, and owns the **chain-state
  kernel**: both CaQR validity conditions lifted to whole *chains* of
  merged windows, with per-state reach rows kept as bitsets and updated
  per merge.  The beam (:mod:`repro.core.chains`) and the exact
  branch-and-bound (:mod:`repro.core.exact`) search the same abstract
  wire states through it, without materialising circuits.

A chain adjacency ``(a, b)`` is a measure/reset barrier: every op of the
wire up to ``a`` precedes it and every op from ``b`` on follows it, so
"some op on qubit *y*'s wire precedes some op on *x*'s" holds iff an
original dependency does, or *y* enters a barrier whose (transitive)
successor barrier exits into *x*.

Windows are *measure/reset-aware*: a terminal measurement belongs to the
window (death layer includes it), resets and mid-circuit measurements
are counted per window, and the terminal-measure flag feeds the
trapped-ion cost model where measure/reset time dominates everything
else.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.core.conditions import ReusePair
from repro.core.matching import max_bipartite_matching_size
from repro.dag.dagcircuit import DAGCircuit
from repro.dag.reachability import qubit_dependency_matrix
from repro.exceptions import ReuseError

__all__ = ["ReuseWindow", "WindowAnalysis", "Chain", "State", "Reach"]

#: One physical wire's occupancy: the ordered original qubits sharing it.
Chain = Tuple[int, ...]
#: An abstract merge state: one chain per live wire.
State = Tuple[Chain, ...]
#: Per original qubit, the bitset of qubits some op on its wire precedes.
Reach = Tuple[int, ...]


@dataclass(frozen=True)
class ReuseWindow:
    """Liveness interval of one qubit.

    Attributes:
        qubit: the wire index in the analysed circuit.
        first_index: position in ``circuit.data`` of the qubit's first
            instruction (``-1`` for an idle wire).
        last_index: position of its last instruction (``-1`` if idle).
        birth_layer: ASAP schedule layer of the first instruction.
        death_layer: ASAP layer of the last instruction — the layer the
            wire becomes free for a not-yet-born window.
        num_ops: instructions touching the qubit.
        mid_circuit_ops: measure/reset instructions *before* the last
            instruction (pre-existing dynamic operations on the window).
        terminal_measure: the last instruction is an unconditioned
            ``measure`` on exactly this qubit — a reuse of this window
            as a *source* inserts no new measurement.
        total_layers: ASAP depth of the whole circuit, so the record is
            self-contained for mid-circuit classification.
    """

    qubit: int
    first_index: int
    last_index: int
    birth_layer: int
    death_layer: int
    num_ops: int
    mid_circuit_ops: int
    terminal_measure: bool
    total_layers: int

    @property
    def used(self) -> bool:
        """Whether any instruction touches this wire."""
        return self.num_ops > 0

    @property
    def dies_mid_circuit(self) -> bool:
        """The window closes strictly before the circuit's final layer.

        This is the gate-level refinement the whole subsystem is built
        on: such a wire is idle for ``total_layers - 1 - death_layer``
        layers, room another qubit's window can occupy.
        """
        return self.used and self.death_layer < self.total_layers - 1

    @property
    def span_layers(self) -> int:
        """Layers the window occupies (0 for an idle wire)."""
        return self.death_layer - self.birth_layer + 1 if self.used else 0

    @property
    def tail_slack(self) -> int:
        """Idle layers between this window's death and circuit end."""
        if not self.used:
            return self.total_layers
        return self.total_layers - 1 - self.death_layer


class WindowAnalysis:
    """Window liveness plus pair- and chain-level compatibility.

    One analysis is computed per circuit and shared by every query: the
    interaction sets (Condition 1), the qubit dependency matrix
    (Condition 2), the per-qubit windows, and the structural symmetry
    classes used to intern chain states.
    """

    def __init__(self, circuit: QuantumCircuit):
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        dag = DAGCircuit.from_circuit(circuit)
        self._interacts: Dict[int, Set[int]] = {
            q: set() for q in range(circuit.num_qubits)
        }
        for instruction in circuit.data:
            if len(instruction.qubits) < 2:
                continue
            for a in instruction.qubits:
                for b in instruction.qubits:
                    if a != b:
                        self._interacts[a].add(b)
        self._dep = qubit_dependency_matrix(dag)
        self._used: Set[int] = set(circuit.used_qubits())
        self._imask = [
            sum(1 << b for b in self._interacts[q]) for q in range(self.num_qubits)
        ]
        self._dep_rows = [0] * self.num_qubits
        for (a, b), depends in self._dep.items():
            if depends:
                self._dep_rows[a] |= 1 << b
        self._unused_mask = sum(
            1 << q for q in range(self.num_qubits) if q not in self._used
        )
        self.windows: List[ReuseWindow] = self._build_windows(circuit, dag)
        self._class_of = self._symmetry_classes(circuit)

    # -- liveness ---------------------------------------------------------------

    @staticmethod
    def _build_windows(
        circuit: QuantumCircuit, dag: DAGCircuit
    ) -> List[ReuseWindow]:
        node_layer: Dict[int, int] = {}
        total_layers = 0
        for layer_index, layer in enumerate(dag.layers()):
            total_layers = layer_index + 1
            for node_id in layer:
                node_layer[node_id] = layer_index
        indices = circuit.qubit_instruction_indices()
        windows: List[ReuseWindow] = []
        for q in range(circuit.num_qubits):
            data_indices = indices[q]
            nodes = dag.nodes_on_qubit(q)
            if not data_indices:
                windows.append(
                    ReuseWindow(
                        qubit=q,
                        first_index=-1,
                        last_index=-1,
                        birth_layer=-1,
                        death_layer=-1,
                        num_ops=0,
                        mid_circuit_ops=0,
                        terminal_measure=False,
                        total_layers=total_layers,
                    )
                )
                continue
            layers_of_q = [node_layer[n] for n in nodes]
            last = dag.nodes[nodes[-1]].instruction
            terminal_measure = (
                last is not None
                and last.name == "measure"
                and last.qubits == (q,)
                and last.condition is None
            )
            mid_circuit_ops = sum(
                1
                for n in nodes[:-1]
                if dag.nodes[n].instruction is not None
                and dag.nodes[n].instruction.name in ("measure", "reset")
            )
            windows.append(
                ReuseWindow(
                    qubit=q,
                    first_index=data_indices[0],
                    last_index=data_indices[-1],
                    birth_layer=min(layers_of_q),
                    death_layer=max(layers_of_q),
                    num_ops=len(data_indices),
                    mid_circuit_ops=mid_circuit_ops,
                    terminal_measure=terminal_measure,
                    total_layers=total_layers,
                )
            )
        return windows

    def window(self, qubit: int) -> ReuseWindow:
        """The liveness window of *qubit*."""
        if not 0 <= qubit < self.num_qubits:
            raise ReuseError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit circuit"
            )
        return self.windows[qubit]

    def mid_circuit_windows(self) -> List[ReuseWindow]:
        """Windows that die before the circuit's final layer, by death."""
        dying = [w for w in self.windows if w.dies_mid_circuit]
        return sorted(dying, key=lambda w: (w.death_layer, w.qubit))

    # -- pair-level compatibility ------------------------------------------------

    def _d0(self, a: int, b: int) -> bool:
        return self._dep.get((a, b), False)

    def compatible(self, source: int, target: int) -> bool:
        """Can *target*'s window replay on *source*'s wire after it dies?

        This is exactly the paper's pair validity (Conditions 1 and 2)
        expressed in window terms, with the reachability scan pruned by
        the liveness intervals: when the target window is born strictly
        after the source window dies (``birth_layer > death_layer``), no
        target op can precede a source op — an ASAP layer number is the
        length of the longest dependency chain into the op, so a
        dependency ``t -> s`` forces ``layer(t) < layer(s)``.  Only
        overlapping windows pay for the dependency-matrix lookup.
        """
        if source == target:
            return False
        sw, tw = self.windows[source], self.windows[target]
        if not sw.used or not tw.used:
            return False
        if target in self._interacts[source]:  # Condition 1
            return False
        if tw.birth_layer > sw.death_layer:  # interval prune
            return True
        return not self._d0(target, source)  # Condition 2

    def compatible_pairs(self) -> List[ReusePair]:
        """Every compatible ``(dying -> born)`` window pair."""
        out: List[ReusePair] = []
        for source in range(self.num_qubits):
            for target in range(self.num_qubits):
                if source != target and self.compatible(source, target):
                    out.append(ReusePair(source, target))
        return out

    def matching_bound(self) -> int:
        """Max merges any plan can perform, via Kuhn matching.

        ``num_qubits - matching_bound()`` is a lower bound on the width
        any legal sequence of reuse pairs can reach (merging only ever
        shrinks the compatibility relation).
        """
        rows = [0] * self.num_qubits
        for source in range(self.num_qubits):
            for target in range(self.num_qubits):
                if source != target and self.compatible(source, target):
                    rows[source] |= 1 << target
        return max_bipartite_matching_size(rows, self.num_qubits)

    # -- chain states ---------------------------------------------------------------
    #
    # A state is a tuple of chains plus its reach rows: ``reach[q]`` is the
    # bitset of original qubits some op on *q*'s wire precedes, through the
    # state's measure/reset barriers.  Rows are built once at the root from
    # the dependency matrix and updated per merge (:meth:`merge_reach`);
    # the beam (:mod:`repro.core.chains`) and the branch-and-bound
    # (:mod:`repro.core.exact`) both search with this one kernel.

    def initial_state(self) -> State:
        """The untouched state: every wire holds its own qubit."""
        return tuple((q,) for q in range(self.num_qubits))

    def initial_reach(self) -> Reach:
        """Reach rows of :meth:`initial_state`: the dependency matrix."""
        return tuple(self._dep_rows)

    @staticmethod
    def merge_reach(reach: Reach, wires: State, u: int, v: int) -> Reach:
        """Reach rows after merge ``(u -> v)`` of *wires*.

        The merge adds one barrier ``a -> b`` (*u*'s tail retires, *v*'s
        head starts), so every row that reaches ``a`` (or is ``a``'s)
        gains ``b`` and ``b``'s row.  The update is exact because the
        merge is valid: ``b`` never reaches ``a`` (Condition 2), so no
        new path crosses the new barrier twice.
        """
        a, b = wires[u][-1], wires[v][0]
        a_bit = 1 << a
        gain = reach[b] | (1 << b)
        return tuple(
            row | gain if q == a or row & a_bit else row
            for q, row in enumerate(reach)
        )

    def chain_merges(
        self, wires: State, reach: Reach
    ) -> Tuple[List[Tuple[int, int]], List[int]]:
        """All valid merges ``(source wire, target wire)`` in *wires*,
        plus per-source target bitmasks for the matching bound.

        Condition 1 lifts member-wise (no member of the source chain may
        share a gate with a member of the target chain); Condition 2
        lifts through the reach rows (no op on the target chain may
        precede an op on the source chain).
        """
        unused, imask = self._unused_mask, self._imask
        masks: List[int] = []
        imasks: List[int] = []
        rmasks: List[int] = []
        active: List[int] = []
        for index, chain in enumerate(wires):
            mask = interacts = reaches = 0
            for q in chain:
                mask |= 1 << q
                interacts |= imask[q]
                reaches |= reach[q]
            masks.append(mask)
            imasks.append(interacts)
            rmasks.append(reaches)
            if not mask & unused:
                active.append(index)
        options: List[Tuple[int, int]] = []
        rows = [0] * len(wires)
        for u in active:
            source_mask, source_interacts = masks[u], imasks[u]
            for v in active:
                if u == v:
                    continue
                if source_interacts & masks[v]:  # Condition 1
                    continue
                if rmasks[v] & source_mask:  # Condition 2
                    continue
                options.append((u, v))
                rows[u] |= 1 << v
        return options, rows

    @staticmethod
    def merge(wires: State, u: int, v: int) -> State:
        """Apply merge ``(u -> v)``: wire *v* is removed, its chain
        appended to *u*'s, matching the qubit map of
        :func:`~repro.core.transform.apply_reuse_pair`."""
        merged = wires[u] + wires[v]
        out = [chain for index, chain in enumerate(wires) if index != v]
        out[u - (1 if u > v else 0)] = merged
        return tuple(out)

    @staticmethod
    def chain_floor(wires: State, rows: List[int]) -> int:
        """Optimistic width floor reachable from *wires*, given the
        target bitmasks :meth:`chain_merges` returned for it: applying a
        merge only ever shrinks the valid-merge relation, so a maximum
        matching over it bounds the merges any descendant can make."""
        return len(wires) - max_bipartite_matching_size(rows, len(wires))

    # -- state interning -----------------------------------------------------------

    def _symmetry_classes(self, circuit: QuantumCircuit) -> Dict[int, int]:
        """Partition qubits into interchangeable structural classes.

        Qubits *q* and *r* land in one class when transposing them fixes
        the interaction sets and the dependency matrix — then the swap is
        an automorphism of the whole validity structure, and any
        class-respecting relabelling of a search state yields an
        isomorphic state with an isomorphic subtree.  Op counts are
        folded into the signature so depth tie-breaks stay meaningful
        across identified states.
        """
        ops = Counter(q for ins in circuit.data for q in ins.qubits)
        qubits = list(range(circuit.num_qubits))

        def swappable(q: int, r: int) -> bool:
            return (
                ops[q] == ops[r]
                and (q in self._used) == (r in self._used)
                and self._interacts[q] - {r} == self._interacts[r] - {q}
                and self._d0(q, r) == self._d0(r, q)
                and all(
                    self._d0(q, s) == self._d0(r, s)
                    and self._d0(s, q) == self._d0(s, r)
                    for s in qubits
                    if s != q and s != r
                )
            )

        class_of: Dict[int, int] = {}
        representatives: List[int] = []
        for q in qubits:
            for index, rep in enumerate(representatives):
                if swappable(q, rep):
                    class_of[q] = index
                    break
            else:
                class_of[q] = len(representatives)
                representatives.append(q)
        return class_of

    def canonical(self, wires: State) -> bytes:
        """State key modulo wire order and symmetric-qubit identity.

        The multiset of chains, each qubit replaced by its symmetry class,
        as its sorted ``(class chain, count)`` items written length, then
        classes, then count into one ``array("I")``: the length prefixes
        make the bytes injective, and they are a fraction of the size of
        the equivalent frozenset, which the search keeps one of per seen
        state.
        """
        counts = Counter(
            tuple(self._class_of[q] for q in chain) for chain in wires
        )
        words = array("I")
        for chain, count in sorted(counts.items()):
            words.append(len(chain))
            words.extend(chain)
            words.append(count)
        return words.tobytes()
