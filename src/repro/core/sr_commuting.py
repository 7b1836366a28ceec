"""SR-CaQR for commuting-gate applications (paper Section 3.3.2).

Commuting circuits have no intrinsic gate order, so the SR router cannot
tell which gates are safe to delay.  The paper's solution — implemented
here — is to *impose* a partial order first:

1. **Step 1**: run QS-CaQR-commuting to a sweet spot (the largest qubit
   saving whose scheduled depth stays within a tolerance of the no-reuse
   depth) and materialise the partial DAG those reuse pairs imply;
2. **Steps 2-4**: feed the materialised circuit to the SR-CaQR regular
   router, whose slack analysis reproduces the paper's delay rules: gates
   inside the reuse dependency chains and gates on high-degree qubits
   dominate the critical path (zero slack, never delayed), while
   low-degree qubits get delayed and inherit freed physical qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import networkx as nx

from repro.core.conditions import ReusePair
from repro.core.qs_commuting import QSCaQRCommuting, QSCommutingResult
from repro.core.sr_caqr import SRCaQR, SRCaQRResult
from repro.exceptions import ReuseError
from repro.hardware.backends import Backend
from repro.stats import Stats
from repro.workloads.qaoa import QAOA_DEFAULT_BETA, QAOA_DEFAULT_GAMMA

__all__ = ["SRCommutingResult", "SRCaQRCommuting", "find_sweet_spot"]


def find_sweet_spot(
    sweep: List[QSCommutingResult],
    depth_tolerance: float = 0.25,
    absolute_slack: int = 4,
) -> QSCommutingResult:
    """Largest qubit saving whose depth stays within *depth_tolerance*.

    Mirrors the paper's Fig. 3 observation: the tradeoff curve is
    heavy-tailed, so large savings are available at a small depth cost —
    the sweet spot is the deepest point still under
    ``(1 + tolerance) * base_depth + absolute_slack``.  The absolute term
    grants one measure/reset block of grace, which matters for small
    circuits where a single reuse dominates the relative overhead.
    """
    if not sweep:
        raise ReuseError("empty sweep")
    base_depth = sweep[0].depth
    budget = (1.0 + depth_tolerance) * base_depth + absolute_slack
    chosen = sweep[0]
    for point in sweep:
        if point.depth <= budget and point.qubits <= chosen.qubits:
            chosen = point
    return chosen


@dataclass
class SRCommutingResult:
    """SR-CaQR output for a commuting application."""

    result: SRCaQRResult
    qs_point: QSCommutingResult
    pairs: List[ReusePair]

    @property
    def circuit(self):
        return self.result.circuit

    @property
    def swap_count(self) -> int:
        return self.result.swap_count

    @property
    def qubits_used(self) -> int:
        return self.result.qubits_used

    @property
    def duration_dt(self) -> int:
        return self.result.duration_dt


class SRCaQRCommuting:
    """Swap-reduction CaQR for QAOA-style commuting circuits.

    Args:
        backend: target device.
        gamma / beta: QAOA angles (single round).
        depth_tolerance: sweet-spot depth budget over the no-reuse depth.
        noise_aware: forwarded to the SR router.
        parallel / max_workers: forwarded to the SR router (trial-grid
            fan-out; the routed circuit is identical either way).

    The underlying router's :class:`~repro.stats.Stats` sink is
    exposed as ``self.stats`` and accumulates across ``run`` calls.
    """

    def __init__(
        self,
        backend: Backend,
        gamma: float = QAOA_DEFAULT_GAMMA,
        beta: float = QAOA_DEFAULT_BETA,
        depth_tolerance: float = 0.25,
        noise_aware: bool = True,
        reset_style: str = "cif",
        parallel: Optional[bool] = None,
        max_workers: Optional[int] = None,
    ):
        self.backend = backend
        self.gamma = gamma
        self.beta = beta
        self.depth_tolerance = depth_tolerance
        self.noise_aware = noise_aware
        self.reset_style = reset_style
        self.router = SRCaQR(
            backend,
            noise_aware=noise_aware,
            reset_style=reset_style,
            parallel=parallel,
            max_workers=max_workers,
        )

    @property
    def stats(self) -> Stats:
        """The SR router's counter/timer sink (accumulates across runs)."""
        return self.router.stats

    def run(
        self,
        graph: nx.Graph,
        qubit_limit: Optional[int] = None,
        objective: str = "swaps",
        trials: int = 3,
        seed_base: Optional[int] = None,
    ) -> SRCommutingResult:
        """Compile the QAOA circuit for *graph* with reuse-aware routing.

        Args:
            graph: problem graph (vertices ``0..n-1``).
            qubit_limit: optional hard qubit budget; when given, QS step
                reduces to it exactly instead of using the sweet spot.
            objective: ``"swaps"`` picks the candidate reuse level with the
                fewest SWAPs (ties: duration); ``"esp"`` maximises the
                estimated success probability — the right metric when the
                compiled circuit feeds a fidelity-sensitive application
                such as the Figs. 15-16 convergence experiments.
            trials: hint-seed trials per SR candidate (forwarded to the
                router's candidate × seed grid).
            seed_base: anchor of the router's hint-seed stream (forwarded
                to :meth:`SRCaQR.run`; ``None`` keeps the default).
        """
        if objective not in ("swaps", "esp"):
            raise ReuseError(f"unknown SR objective {objective!r}")
        qs = QSCaQRCommuting(
            graph,
            gamma=self.gamma,
            beta=self.beta,
            reset_style=self.reset_style,
        )
        router = self.router
        if qubit_limit is not None:
            point = qs.reduce_to(qubit_limit)
            if not point.feasible:
                raise ReuseError(
                    f"cannot reach {qubit_limit} qubits "
                    f"(floor is {qs.minimum_qubits()})"
                )
            routed = router.run(point.circuit, trials=trials, seed_base=seed_base)
            return SRCommutingResult(result=routed, qs_point=point, pairs=point.pairs)

        # SWAP reduction is the primary goal (Section 3.3); the imposed
        # reuse dependence is a tool, not a quota.  Route a few candidate
        # reuse levels — no-reuse, the sweet spot, and the knee between —
        # and keep the fewest-SWAP compilation (qubit saving still falls
        # out whenever reuse wins).
        sweep = qs.sweep(min_qubits=qs.minimum_qubits())
        sweet = find_sweet_spot(sweep, self.depth_tolerance)
        candidates = {id(sweep[0]): sweep[0], id(sweet): sweet}
        mid_width = (sweep[0].qubits + sweet.qubits) // 2
        mid = min(sweep, key=lambda p: abs(p.qubits - mid_width))
        candidates[id(mid)] = mid

        def _key(candidate: SRCommutingResult):
            if objective == "esp":
                from repro.sim.metrics import estimated_success_probability

                return (
                    -estimated_success_probability(
                        candidate.circuit, self.backend.calibration
                    ),
                )
            return (candidate.swap_count, candidate.duration_dt)

        best: Optional[SRCommutingResult] = None
        best_key = None
        for point in candidates.values():
            routed = router.run(point.circuit, trials=trials, seed_base=seed_base)
            candidate = SRCommutingResult(
                result=routed, qs_point=point, pairs=point.pairs
            )
            key = _key(candidate)
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        assert best is not None
        return best
