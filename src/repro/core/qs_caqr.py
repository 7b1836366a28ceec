"""QS-CaQR for regular (non-commuting) circuits — paper Section 3.2.1.

The driver greedily reduces qubit usage one wire at a time:

1. enumerate all valid reuse pairs (Conditions 1 & 2),
2. evaluate each pair by the critical path of the DAG with the dummy
   measurement node ``D`` inserted (Fig. 9),
3. apply the best pair (smallest resulting depth or duration),
4. repeat until the requested qubit budget is reached or no pair remains.

``sweep`` records every intermediate circuit so callers can explore the
full qubit-usage / depth tradeoff curve (Figs. 3, 13, 14).

The loop drives a :class:`~repro.core.session.ReuseSession` — one DAG +
descendants-bitset cache for the whole sweep, batched candidate costs
from :func:`~repro.core.evaluate.batch_pair_costs` (one ASAP/tail pass
per step), and a closure-free reuse-potential lookahead.  It picks
the same pair sequence as the paper-literal loop that re-analyses the
materialised circuit at every step, ``ReferenceQSCaQR`` in
``tests/oracles.py``, which ``tests/property/test_equivalence_diff.py``
pins it against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.core.conditions import ReusePair
from repro.core.evaluate import batch_pair_costs
from repro.core.session import ReuseSession
from repro.exceptions import ReuseError
from repro.stats import Stats
from repro.transpiler.scheduling import circuit_duration_dt

__all__ = ["QSCaQRResult", "QSCaQR"]


@dataclass
class QSCaQRResult:
    """One point of the qubit-saving sweep.

    Attributes:
        circuit: the transformed logical circuit.
        qubits: its width (qubit usage).
        depth: logical circuit depth.
        duration_dt: estimated logical duration with default gate times —
            computed lazily on first access unless the sweep's objective
            already priced it (``objective="duration"``).
        pairs: reuse pairs applied so far (indices are per-step wire labels).
        feasible: whether the requested budget was reached (``reduce_to``
            sets this; a sweep's entries are feasible by construction).
    """

    circuit: QuantumCircuit
    qubits: int
    depth: int
    pairs: List[ReusePair] = field(default_factory=list)
    feasible: bool = True
    duration_dt_cached: Optional[int] = field(default=None, repr=False)

    @property
    def duration_dt(self) -> int:
        if self.duration_dt_cached is None:
            self.duration_dt_cached = circuit_duration_dt(self.circuit)
        return self.duration_dt_cached


class QSCaQR:
    """Qubit-saving CaQR for regular applications.

    Args:
        objective: ``"depth"`` ranks candidate pairs by resulting circuit
            depth; ``"duration"`` by estimated duration in dt (which
            penalises the slow measurement the reuse inserts).
        reset_style: ``"cif"`` (measure + conditional X) or ``"builtin"``.
        lookahead_width: cap on how many of the cheapest candidates get the
            reuse-potential lookahead (None = all of them, exact for the
            paper's benchmark sizes).
        parallel: the :func:`repro.parallel.fans_out` tri-state for the
            reuse-potential lookahead; by default only large circuits fan
            out (see :data:`repro.core.session.POTENTIAL_WORKLOAD_THRESHOLD`).
            Candidate scoring is one in-process pass per step.

    The instance's :attr:`stats` (a
    :class:`~repro.stats.Stats`) accumulates evaluation
    counters and wall-time buckets across runs.
    """

    def __init__(
        self,
        objective: str = "depth",
        reset_style: str = "cif",
        lookahead_width: Optional[int] = None,
        parallel: Optional[bool] = None,
    ):
        if objective not in ("depth", "duration"):
            raise ReuseError(f"unknown objective {objective!r}")
        self.objective = objective
        self.reset_style = reset_style
        # None = evaluate the reuse-potential lookahead on every candidate
        # (exact for the paper's benchmark sizes); set an int to cap the
        # window on very wide circuits.
        self.lookahead_width = lookahead_width
        self.parallel = parallel
        self.stats = Stats()

    # -- single greedy step ---------------------------------------------------

    def _best_pair_session(self, session: ReuseSession) -> Optional[ReusePair]:
        """The cheapest valid pair that preserves maximal reuse potential.

        Candidates are ranked by the critical path of the DAG with the
        dummy node inserted (paper Fig. 9); among the ``lookahead_width``
        cheapest, the pair whose application leaves the largest remaining
        reuse-matching bound wins (cost breaks ties).  The bound — max
        bipartite matching over the post-merge valid-pair relation — is
        the lookahead that keeps a cheap pair from destroying future
        reuse (pairing BV's first data qubit with its *last* one breaks
        the chain that reaches the 2-qubit floor).
        """
        candidates = session.valid_pairs()
        if not candidates:
            return None
        self.stats.count("evaluations", len(candidates))
        with self.stats.timed("score"):
            scores = batch_pair_costs(
                session.dag,
                candidates,
                objective=self.objective,
                reset_style=self.reset_style,
                nodes_by_qubit=session.nodes_by_label(),
            )
        costs = dict(zip(candidates, scores))

        def _cost(pair: ReusePair):
            return (costs[pair], pair.source, pair.target)

        ranked = sorted(candidates, key=_cost)
        if self.lookahead_width is not None:
            ranked = ranked[: max(1, self.lookahead_width)]
        with self.stats.timed("lookahead"):
            potentials = session.reuse_potentials(ranked)
        best_pair: Optional[ReusePair] = None
        best_key = None
        for pair in ranked:
            key = (-potentials[pair], _cost(pair))
            if best_key is None or key < best_key:
                best_key = key
                best_pair = pair
        return best_pair

    def _point(
        self,
        circuit: QuantumCircuit,
        pairs: List[ReusePair],
        feasible: bool = True,
    ) -> QSCaQRResult:
        result = QSCaQRResult(
            circuit=circuit,
            qubits=circuit.num_qubits,
            depth=circuit.depth(),
            pairs=list(pairs),
            feasible=feasible,
        )
        # only the duration objective pays for scheduling at sweep time;
        # depth sweeps defer it to first access (see QSCaQRResult)
        if self.objective == "duration":
            result.duration_dt_cached = circuit_duration_dt(circuit)
        return result

    # -- engine plumbing --------------------------------------------------------

    def _session(self, circuit: QuantumCircuit) -> ReuseSession:
        return ReuseSession(
            circuit,
            reset_style=self.reset_style,
            parallel=self.parallel,
            stats=self.stats,
        )

    # -- public API -------------------------------------------------------------

    def sweep(self, circuit: QuantumCircuit, min_qubits: int = 1) -> List[QSCaQRResult]:
        """All achievable qubit counts, from the original width to the floor.

        Returns one result per width; the first entry is the untouched
        input, the last is the maximal-reuse circuit.
        """
        points = [self._point(circuit, [])]
        with self._session(circuit) as session:
            while session.num_qubits > min_qubits:
                pair = self._best_pair_session(session)
                if pair is None:
                    break
                with self.stats.timed("apply"):
                    session.apply(pair)
                points.append(self._point(session.circuit, session.pairs))
        return points

    def minimum_qubits(self, circuit: QuantumCircuit) -> int:
        """The smallest width greedy reuse reaches for *circuit*."""
        return self.sweep(circuit)[-1].qubits

    def reduce_to(self, circuit: QuantumCircuit, qubit_limit: int) -> QSCaQRResult:
        """Compile to at most *qubit_limit* qubits, if possible.

        Mirrors the paper's interface: the result's ``feasible`` flag is
        the "yes/no" answer; when feasible the circuit uses exactly
        ``min(qubit_limit, original width)`` qubits.
        """
        if qubit_limit < 1:
            raise ReuseError("qubit limit must be positive")
        if circuit.num_qubits <= qubit_limit:
            return self._point(circuit, [])
        with self._session(circuit) as session:
            while session.num_qubits > qubit_limit:
                pair = self._best_pair_session(session)
                if pair is None:
                    return self._point(session.circuit, session.pairs, feasible=False)
                with self.stats.timed("apply"):
                    session.apply(pair)
            return self._point(session.circuit, session.pairs)

