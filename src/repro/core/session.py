"""Incremental reuse-pair evaluation session (the QS-CaQR hot path).

The brute-force greedy loop rebuilds the dependency DAG, re-derives the
descendants bitsets, and re-runs the reuse-potential lookahead from
scratch for every candidate on every reduction step — O(steps × pairs × n)
closures.  :class:`ReuseSession` owns *one* DAG and *one* bitset cache for
the whole sweep and keeps them consistent under
:func:`~repro.core.transform.apply_reuse_pair`:

* applying a pair splices the measure/reset nodes into the session DAG and
  patches only the ancestor masks
  (:func:`repro.dag.reachability.update_masks_for_node`);
* candidate costs come from :func:`repro.core.evaluate.batch_pair_costs`
  over the session DAG (one ASAP/tail decomposition per step);
* the reuse-potential lookahead simulates a candidate's merge directly on
  the bitsets — the transformed circuit's Condition-1/2 relation is
  derived in O(labels²) word operations per candidate, with no trial
  circuit, DAG copy, or closure recomputation.

Wire bookkeeping happens in *label* space: labels are the qubit indices of
the materialised circuit at the current step (the numbering the paper's
one-pair-at-a-time loop uses), so the session reports the exact same pair
coordinates as the from-scratch path — the differential harness in
``tests/property/test_equivalence_diff.py`` pins that equivalence.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.core.conditions import ReusePair
from repro.core.matching import max_bipartite_matching_size
from repro.core.transform import REUSE_LABEL, apply_reuse_pair
from repro.dag.dagcircuit import DAGCircuit, _wires
from repro.dag.reachability import descendants_bitsets, update_masks_for_node
from repro.exceptions import ReuseError
from repro.stats import Stats

__all__ = ["ReuseSession", "POTENTIAL_WORKLOAD_THRESHOLD"]

# below (candidates x labels^2) the lookahead stays in-process
POTENTIAL_WORKLOAD_THRESHOLD = 200_000


class _WireGroup:
    """One physical wire of the evolving circuit: the original qubits
    merged onto it, their DAG nodes in wire order, and Condition-1 state."""

    __slots__ = ("gid", "rep", "nodes", "interacts")

    def __init__(self, gid: int, rep: int, nodes: List[int]):
        self.gid = gid
        self.rep = rep  # representative original qubit (for synthetic ops)
        self.nodes = nodes
        self.interacts: Set[int] = set()


def _derive_np_state(state: dict) -> dict:
    """Precompute the per-step overlap matrices the bitset kernel reads.

    The post-merge Condition-2 relation of every candidate factors
    through three label×label overlap relations of the step's bitset
    masks, so the word-level work is done once per step here and each
    candidate evaluation degrades to (n, n) boolean algebra:

    * ``op_overlap[x, y]``  — ``selfop[x] & reach_op[y]`` is non-zero
      (Condition 2 of the unmodified wires);
    * ``all_overlap[x, y]`` — ``selfop[x] & reach_all[y]`` is non-zero
      (whether wire *x* holds gates inside candidate-target *y*'s closure,
      i.e. whether the transferred closure ``tr`` reaches wire *x*'s ops);
    * ``grabs[a, y]``       — ``selfall[a] & reach_op[y]`` is non-zero
      (whether wire *y* reaches candidate-source *a* and therefore
      inherits ``tr`` after the merge).

    The prospective measure/reset bits (``next_id``/``next_id + 1``) never
    intersect any existing mask, and both always land in ``tr`` and in the
    merged source wire's self-mask, so their only effect — forcing
    Condition 2 between the merged wire and every wire that inherits
    ``tr`` — is folded into the closed-form update in
    :func:`_potential_for_candidate`.
    """
    n = state["n"]
    num_words = max(1, (state["next_id"] + 63) // 64)

    def _pack(masks: List[int]) -> np.ndarray:
        data = b"".join(m.to_bytes(num_words * 8, "little") for m in masks)
        return np.frombuffer(data, dtype="<u8").reshape(n, num_words)

    reach_op = _pack(state["reach_op"])
    reach_all = _pack(state["reach_all"])
    selfop = _pack(state["selfop"])
    selfall = _pack(state["selfall"])
    gids = state["gids"]
    interact = np.zeros((n, n), dtype=bool)
    for x, members in enumerate(state["interacts"]):
        if members:
            for y in range(n):
                if gids[y] in members:
                    interact[x, y] = True
    return {
        "n": n,
        "op_overlap": (selfop[:, None, :] & reach_op[None, :, :]).any(axis=2),
        "all_overlap": (selfop[:, None, :] & reach_all[None, :, :]).any(axis=2),
        "grabs": (selfall[:, None, :] & reach_op[None, :, :]).any(axis=2),
        "interact": interact,
        "used": np.array(state["used"], dtype=bool),
    }


def _potential_for_candidate(np_state: dict, pair: ReusePair) -> int:
    """Reuse-potential of the circuit after *pair*, from bitset state only.

    The candidate's merge is simulated on the precomputed overlap
    matrices: every wire that reaches the source wire inherits the target
    wire's closure plus the new measure/reset nodes, and the two wires'
    masks merge.  The post-merge Condition-1/2 relation is then rebuilt
    and its maximum bipartite matching sized (Kuhn).  The result equals
    the networkx matching bound of the materialised transformed circuit
    (``nx_potential`` in ``tests/oracles.py``; the size is unique).
    """
    a, b = pair.source, pair.target
    n = np_state["n"]
    op_overlap = np_state["op_overlap"]
    transfer_hits = np_state["all_overlap"][:, b]  # selfop[x] & reach_all[b]
    inherits = np_state["grabs"][a].copy()  # wires whose reach grows by tr
    inherits[a] = True
    # Condition 2 after the merge: the base relation, plus tr reaching any
    # wire that inherits it, plus the merged wire's combined rows/columns.
    cond2 = op_overlap | (transfer_hits[:, None] & inherits[None, :])
    cond2[:, a] |= op_overlap[:, b]
    cond2[a, :] = op_overlap[a, :] | op_overlap[b, :] | inherits
    # Condition 1 after the merge: the source wire owns both interact sets.
    merged = np_state["interact"][a] | np_state["interact"][b]
    cond1 = np_state["interact"].copy()
    cond1[a, :] = merged
    cond1[:, a] = merged
    used2 = np_state["used"].copy()
    used2[a] = True
    valid = used2[:, None] & used2[None, :] & ~cond1 & ~cond2
    np.fill_diagonal(valid, False)
    valid[b, :] = False
    valid[:, b] = False
    if not valid.any():
        return 0
    packed = np.packbits(valid, axis=1, bitorder="little")
    rows = [int.from_bytes(packed[x].tobytes(), "little") for x in range(n)]
    return max_bipartite_matching_size(rows, n)


def _potential_chunk_worker(payload):
    """Process-pool entry point: lookahead for one chunk of candidates."""
    state, pairs = payload
    np_state = _derive_np_state(state)
    return [_potential_for_candidate(np_state, pair) for pair in pairs]


class ReuseSession:
    """One DAG + bitset cache shared across a whole greedy reduction sweep.

    Args:
        circuit: the input logical circuit.
        reset_style: reuse reset idiom (``"cif"`` or ``"builtin"``).
        parallel: fan the reuse-potential lookahead out to a process pool
            when the per-step workload is large enough.
        parallel_threshold: minimum ``candidates × labels²`` workload
            before fanning out.
        max_workers: pool size (default ``os.cpu_count()`` capped at 8).
        stats: counter/timer sink (one is created when omitted).
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        reset_style: str = "cif",
        parallel: bool = False,
        parallel_threshold: int = POTENTIAL_WORKLOAD_THRESHOLD,
        max_workers: Optional[int] = None,
        stats: Optional[Stats] = None,
    ):
        if reset_style not in ("cif", "builtin"):
            raise ReuseError(f"unknown reset style {reset_style!r}")
        self.reset_style = reset_style
        self.parallel = parallel
        self.parallel_threshold = parallel_threshold
        self.max_workers = max_workers or min(os.cpu_count() or 1, 8)
        self.stats = stats if stats is not None else Stats()
        self.circuit = circuit
        self.dag = DAGCircuit.from_circuit(circuit)
        self.masks = descendants_bitsets(self.dag)
        self.generation = 0
        self.pairs: List[ReusePair] = []
        self._num_clbits = circuit.num_clbits
        self._executor = None
        self._state_cache: Optional[dict] = None
        self._np_state_cache: Optional[dict] = None
        self._potential_cache: Dict[ReusePair, int] = {}

        self._labels: List[_WireGroup] = [
            _WireGroup(q, q, self.dag.nodes_on_qubit(q))
            for q in range(circuit.num_qubits)
        ]
        for instruction in circuit.data:
            if len(instruction.qubits) < 2:
                continue
            for qa in instruction.qubits:
                for qb in instruction.qubits:
                    if qa != qb:
                        self._labels[qa].interacts.add(qb)
        # last writer/reader per classical bit, for the feed-forward wire
        self._clbit_last: Dict[int, int] = {}
        for node_id in self.dag.op_nodes(include_directives=True):
            for kind, wire in _wires(self.dag.nodes[node_id].instruction):
                if kind == "c":
                    self._clbit_last[wire] = node_id

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Shut down the lookahead process pool, if one was started."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "ReuseSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries ---------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self._labels)

    def nodes_by_label(self) -> Dict[int, List[int]]:
        """Current label -> DAG node ids on that wire (wire order)."""
        return {label: group.nodes for label, group in enumerate(self._labels)}

    def _has_terminal_measure(self, group: _WireGroup) -> bool:
        if not group.nodes:
            return False
        last = self.dag.nodes[group.nodes[-1]].instruction
        return (
            last is not None
            and last.name == "measure"
            and len(last.qubits) == 1
            and last.condition is None
        )

    def _state(self) -> dict:
        """Per-generation bitset aggregates over the wire groups."""
        if self._state_cache is not None:
            return self._state_cache
        masks = self.masks
        nodes = self.dag.nodes
        n = len(self._labels)
        reach_op = [0] * n
        reach_all = [0] * n
        selfop = [0] * n
        selfall = [0] * n
        used = [False] * n
        tmeasure = [False] * n
        for label, group in enumerate(self._labels):
            r_op = r_all = s_op = s_all = 0
            for node_id in group.nodes:
                bit = 1 << node_id
                closure = masks[node_id] | bit
                r_all |= closure
                s_all |= bit
                if not nodes[node_id].instruction.is_directive():
                    r_op |= closure
                    s_op |= bit
            reach_op[label] = r_op
            reach_all[label] = r_all
            selfop[label] = s_op
            selfall[label] = s_all
            used[label] = bool(group.nodes)
            tmeasure[label] = self._has_terminal_measure(group)
        self._np_state_cache = None
        self._state_cache = {
            "n": n,
            "reach_op": reach_op,
            "reach_all": reach_all,
            "selfop": selfop,
            "selfall": selfall,
            "gids": [group.gid for group in self._labels],
            "interacts": [set(group.interacts) for group in self._labels],
            "used": used,
            "tmeasure": tmeasure,
            "next_id": self.dag._next_id,
        }
        return self._state_cache

    def valid_pairs(self) -> List[ReusePair]:
        """Every valid reuse pair at the current step, in (source, target)
        label order — identical to ``ReuseAnalysis(circuit).valid_pairs()``
        on the materialised circuit."""
        state = self._state()
        used = [label for label in range(state["n"]) if state["used"][label]]
        gids = state["gids"]
        interacts = state["interacts"]
        reach_op = state["reach_op"]
        selfop = state["selfop"]
        pairs: List[ReusePair] = []
        for source in used:
            for target in used:
                if source == target:
                    continue
                if gids[target] in interacts[source]:
                    continue  # Condition 1
                if reach_op[target] & selfop[source]:
                    continue  # Condition 2
                pairs.append(ReusePair(source, target))
        return pairs

    # -- lookahead -------------------------------------------------------------

    def _np_state(self) -> dict:
        """Per-generation overlap matrices for the bitset lookahead kernel."""
        if self._np_state_cache is None:
            self._np_state_cache = _derive_np_state(self._state())
        return self._np_state_cache

    def _pool(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._executor

    def reuse_potentials(
        self, pairs: Sequence[ReusePair]
    ) -> Dict[ReusePair, int]:
        """Post-merge reuse-matching bound per candidate, memoised per step."""
        missing = [p for p in pairs if p not in self._potential_cache]
        hits = len(pairs) - len(missing)
        if hits:
            self.stats.count("cache_hits", hits)
        if missing:
            self.stats.count("lookahead_evaluations", len(missing))
            state = self._state()
            workload = len(missing) * state["n"] * state["n"]
            if (
                self.parallel
                and len(missing) >= 2 * self.max_workers
                and workload >= self.parallel_threshold
            ):
                self.stats.count("parallel_batches")
                chunk = max(1, -(-len(missing) // self.max_workers))
                payloads = [
                    (state, missing[i : i + chunk])
                    for i in range(0, len(missing), chunk)
                ]
                values: List[int] = []
                for part in self._pool().map(_potential_chunk_worker, payloads):
                    values.extend(part)
            else:
                self.stats.count("serial_batches")
                np_state = self._np_state()
                values = [
                    _potential_for_candidate(np_state, pair)
                    for pair in missing
                ]
            self._potential_cache.update(zip(missing, values))
        return {p: self._potential_cache[p] for p in pairs}

    # -- mutation --------------------------------------------------------------

    def apply(self, pair: ReusePair) -> None:
        """Apply ``(source -> target)`` (labels of the current step).

        Splices the measure/reset nodes into the session DAG, patches the
        descendants bitsets incrementally, merges the wire groups, and
        re-materialises the circuit through the exact transformation the
        from-scratch path uses.
        """
        source_group = self._labels[pair.source]
        target_group = self._labels[pair.target]
        source_nodes = list(source_group.nodes)
        target_nodes = list(target_group.nodes)

        # 1. locate or create the source's measurement
        if self._has_terminal_measure(source_group):
            measure_node = source_nodes[-1]
            clbit = self.dag.nodes[measure_node].instruction.clbits[0]
            measure_is_new = False
        else:
            clbit = self._num_clbits
            self._num_clbits += 1
            measure_instruction = Instruction(
                "measure",
                (source_group.rep,),
                clbits=(clbit,),
                label=REUSE_LABEL,
            )
            measure_node = self.dag.add_instruction_node(
                measure_instruction, tag=REUSE_LABEL
            )
            for node_id in source_nodes:
                self.dag.add_edge(node_id, measure_node)
            self.stats.count(
                "mask_updates",
                len(update_masks_for_node(self.dag, self.masks, measure_node)),
            )
            measure_is_new = True

        # 2. the reset: conditional X (or built-in reset)
        if self.reset_style == "cif":
            reset_instruction = Instruction(
                "x", (source_group.rep,), condition=(clbit, 1), label=REUSE_LABEL
            )
        else:
            reset_instruction = Instruction(
                "reset", (source_group.rep,), label=REUSE_LABEL
            )
        reset_node = self.dag.add_instruction_node(
            reset_instruction, tag=REUSE_LABEL
        )
        self.dag.add_edge(measure_node, reset_node)
        for node_id in source_nodes:
            if node_id != measure_node:
                self.dag.add_edge(node_id, reset_node)
        # feed-forward wire: the reset reads the measure's classical bit, so
        # it also follows whatever last touched that bit (the mask guard
        # keeps exotic clbit sharing from introducing a cycle: the reset's
        # prospective descendants are exactly the target wire's closure)
        last_on_clbit = self._clbit_last.get(clbit)
        if last_on_clbit is not None and last_on_clbit != measure_node:
            downstream = 0
            for node_id in target_nodes:
                downstream |= self.masks[node_id] | (1 << node_id)
            if not downstream >> last_on_clbit & 1:
                self.dag.add_edge(last_on_clbit, reset_node)
        # 3. the target's gates run after the reset
        for node_id in target_nodes:
            self.dag.add_edge(reset_node, node_id)
        self.stats.count(
            "mask_updates",
            len(update_masks_for_node(self.dag, self.masks, reset_node)),
        )
        if self.reset_style == "cif":
            self._clbit_last[clbit] = reset_node

        # 4. merge the wire groups: source ops, measure, reset, target ops
        if measure_is_new:
            source_group.nodes.append(measure_node)
        source_group.nodes.append(reset_node)
        source_group.nodes.extend(target_nodes)
        source_group.interacts |= target_group.interacts
        for group in self._labels:
            if group is source_group or group is target_group:
                continue
            if target_group.gid in group.interacts:
                group.interacts.discard(target_group.gid)
                group.interacts.add(source_group.gid)
        source_group.interacts.discard(source_group.gid)
        source_group.interacts.discard(target_group.gid)
        del self._labels[pair.target]

        # 5. re-materialise through the reference transformation
        self.circuit = apply_reuse_pair(
            self.circuit, pair, reset_style=self.reset_style, validate=False
        ).circuit
        self.pairs.append(pair)
        self.generation += 1
        self._state_cache = None
        self._np_state_cache = None
        self._potential_cache.clear()
        self.stats.count("steps")
