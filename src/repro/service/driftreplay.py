"""Band-width validation: replay a calibration drift series through the cache.

The drift-banding contract (``docs/SERVICE.md``) has two halves:

1. **Banding lifts the hit rate** — snapshots that differ only by in-band
   drift must share cache entries, where exact digests would miss on
   every step.
2. **Banding never changes compile decisions** — a banded warm hit must
   serve the same circuit a fresh compile of the drifted snapshot would
   produce.

:func:`replay_drift` measures both: it walks a seeded
:class:`~repro.hardware.drift.DriftSimulator` series, sends every
snapshot through a *banded* :class:`~repro.service.CompileService` and an
*exact-digest* one, and compares the served circuit against the exact
lane's fresh compile step by step.  It also tracks routing-quality
decay: the analytic ESP of the served (possibly band-stale) circuit vs.
the freshly compiled one, both scored under the step's *true*
calibration — the price paid for serving a plan placed against an older
snapshot.

The CI smoke gate (``scripts/drift_replay.py``) and the nightly
benchmark (``benchmarks/bench_drift_replay.py``) assert on the
:class:`DriftReplayResult` this returns.  Uplift is Laplace-smoothed
(``(banded_hits + 1) / (exact_hits + 1)``) because the exact lane's hit
count on a drifting series is legitimately zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.circuit.circuit import QuantumCircuit
from repro.exceptions import ReproError, ServiceError
from repro.hardware.backends import Backend
from repro.hardware.drift import drift_series
from repro.service.fingerprint import circuit_digest, resolve_calib_bands
from repro.service.service import CompileRequest, CompileService

__all__ = ["DriftReplayResult", "replay_drift"]


@dataclass
class DriftReplayResult:
    """What one drift replay observed, step by step and in aggregate.

    Attributes:
        steps / calib_bands / volatility / seed: the replay configuration
            (bands as resolved).
        banded_hits / banded_misses: cache outcomes of the banded lane
            (an in-flight join would count as a hit; single-threaded
            replay never produces one).
        exact_hits / exact_misses: same for the exact-digest lane.
        decision_changes: steps where the banded lane served a circuit
            that differs from the exact lane's fresh compile of the same
            snapshot — the "banding changed a compile decision" count the
            smoke gate pins to zero.
        banded_shards / exact_shards: distinct cache shards (= fleet ring
            keys) the series touched per lane; banding keeps this small,
            which is what stops in-band drift re-homing fleet keys.
        esp_gaps: per-step ``esp(fresh) - esp(served)`` under the step's
            true calibration (empty when ESP is unavailable, e.g. no
            hardware mapping).  Zero whenever the decision matched.
    """

    steps: int
    calib_bands: Optional[int]
    volatility: float
    seed: int
    banded_hits: int = 0
    banded_misses: int = 0
    exact_hits: int = 0
    exact_misses: int = 0
    decision_changes: int = 0
    banded_shards: int = 0
    exact_shards: int = 0
    esp_gaps: List[float] = field(default_factory=list)

    @property
    def banded_hit_rate(self) -> float:
        total = self.banded_hits + self.banded_misses
        return self.banded_hits / total if total else 0.0

    @property
    def exact_hit_rate(self) -> float:
        total = self.exact_hits + self.exact_misses
        return self.exact_hits / total if total else 0.0

    @property
    def hit_uplift(self) -> float:
        """Laplace-smoothed banded/exact hit uplift (exact is usually 0)."""
        return (self.banded_hits + 1) / (self.exact_hits + 1)

    @property
    def mean_esp_gap(self) -> float:
        return sum(self.esp_gaps) / len(self.esp_gaps) if self.esp_gaps else 0.0

    @property
    def max_esp_gap(self) -> float:
        return max(self.esp_gaps) if self.esp_gaps else 0.0

    def summary(self) -> str:
        """One-line report for CLI / benchmark output."""
        return (
            f"steps={self.steps} bands={self.calib_bands or 0} "
            f"banded_hits={self.banded_hits}/{self.banded_hits + self.banded_misses} "
            f"exact_hits={self.exact_hits}/{self.exact_hits + self.exact_misses} "
            f"uplift={self.hit_uplift:.1f}x "
            f"decision_changes={self.decision_changes} "
            f"shards banded={self.banded_shards} exact={self.exact_shards} "
            f"esp_gap mean={self.mean_esp_gap:.3g} max={self.max_esp_gap:.3g}"
        )


def _esp_or_none(circuit: QuantumCircuit, backend: Backend) -> Optional[float]:
    """Analytic ESP, or ``None`` when the calibration cannot score the
    circuit (a :class:`~repro.exceptions.ReproError`, e.g. a logical-level
    circuit).  Any other error is a bug and propagates."""
    from repro.sim.metrics import estimated_success_probability

    try:
        return estimated_success_probability(circuit, backend.calibration)
    except ReproError:
        return None


def replay_drift(
    circuit: QuantumCircuit,
    backend: Backend,
    steps: int = 12,
    volatility: float = 0.01,
    calib_bands: Optional[int] = 2,
    seed: int = 7,
    mode: str = "min_depth",
    qubit_limit: Optional[int] = None,
    compile_seed: int = 11,
) -> DriftReplayResult:
    """Replay a drift series through banded and exact compile caches.

    Both lanes run in-process with memory-only caches so the result is a
    pure function of the arguments.  The banded lane resolves
    *calib_bands* up front (``None`` defers to ``$CAQR_CALIB_BANDS``) and
    must end up with banding actually on — replaying banding-off against
    banding-off would vacuously pass the decision gate.
    """
    bands = resolve_calib_bands(calib_bands)
    if not bands:
        raise ServiceError("replay_drift needs calib_bands >= 1 for the banded lane")
    snapshots = drift_series(backend, steps, volatility=volatility, seed=seed)
    banded_lane = CompileService()
    exact_lane = CompileService()
    result = DriftReplayResult(
        steps=steps, calib_bands=bands, volatility=volatility, seed=seed
    )
    banded_shards = set()
    exact_shards = set()
    for snapshot in snapshots:
        def request(lane_bands: int) -> CompileRequest:
            return CompileRequest(
                target=circuit,
                backend=snapshot,
                mode=mode,
                qubit_limit=qubit_limit,
                seed=compile_seed,
                calib_bands=lane_bands,
            )

        banded_request = request(bands)
        exact_request = request(0)
        banded_shards.add(banded_request.shard())
        exact_shards.add(exact_request.shard())
        banded_report, _, banded_status = banded_lane.compile_classified(
            banded_request
        )
        exact_report, _, exact_status = exact_lane.compile_classified(
            exact_request
        )
        if banded_status == "miss":
            result.banded_misses += 1
        else:
            result.banded_hits += 1
        if exact_status == "miss":
            result.exact_misses += 1
        else:
            result.exact_hits += 1
        # the exact lane misses every drifted step, so its report is
        # always a fresh compile of *this* snapshot: the decision reference
        if circuit_digest(banded_report.circuit) != circuit_digest(
            exact_report.circuit
        ):
            result.decision_changes += 1
        served_esp = _esp_or_none(banded_report.circuit, snapshot)
        fresh_esp = _esp_or_none(exact_report.circuit, snapshot)
        if served_esp is not None and fresh_esp is not None:
            result.esp_gaps.append(fresh_esp - served_esp)
    result.banded_shards = len(banded_shards)
    result.exact_shards = len(exact_shards)
    return result
