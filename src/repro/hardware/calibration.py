"""Device calibration: per-link CNOT error/duration, per-qubit readout error,
single-qubit error, coherence times, and measurement/reset durations.

The paper exports real calibration data from IBM Mumbai; offline we generate
*synthetic* calibrations with realistic, seeded distributions so error
variability (which SR-CaQR exploits for placement) is present and
reproducible.  Typical IBM Falcon ranges used:

* CX error: 0.5 % – 3 % (log-normal-ish spread)
* CX duration: 250 – 550 ns (1,100 – 2,500 dt at 0.22 ns/dt)
* readout error: 1 % – 6 %
* 1Q (sx/x) error: 0.02 % – 0.1 %
* T1/T2: 50 – 200 µs
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.circuit import gates
from repro.exceptions import HardwareError
from repro.hardware.coupling import CouplingMap

__all__ = ["Calibration", "SealedMap", "synthetic_calibration"]

#: The calibration fields that are maps (sealed as :class:`SealedMap`).
MAP_FIELDS = ("cx_error", "cx_duration", "readout_error", "sq_error", "t1_dt", "t2_dt")


def _edge_key(a: int, b: int) -> FrozenSet[int]:
    return frozenset((a, b))


def sealed_error(what: str) -> HardwareError:
    """The error every write to a sealed hardware snapshot raises."""
    return HardwareError(
        f"{what} is sealed: it was encoded, so its digest is fixed; "
        "derive a new snapshot with dataclasses.replace instead"
    )


class SealedMap(dict):
    """A sealed calibration's map: reads as a ``dict``, refuses writes.

    ``copy()`` gives an editable plain ``dict``; pickling and ``copy``
    give a ``SealedMap`` again (pool workers receive sealed backends).
    """

    __slots__ = ()

    def _refuse(self, *args: Any, **kwargs: Any) -> None:
        raise sealed_error("calibration")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return SealedMap, (dict(self),)


@dataclass
class Calibration:
    """Error/timing data for one device snapshot.

    All durations are in ``dt`` (0.22 ns); all errors are probabilities.
    Edit it freely until :meth:`seal` (a backend's first encode) makes
    it read-only.
    """

    cx_error: Dict[FrozenSet[int], float] = field(default_factory=dict)
    cx_duration: Dict[FrozenSet[int], int] = field(default_factory=dict)
    readout_error: Dict[int, float] = field(default_factory=dict)
    sq_error: Dict[int, float] = field(default_factory=dict)
    t1_dt: Dict[int, float] = field(default_factory=dict)
    t2_dt: Dict[int, float] = field(default_factory=dict)
    measure_duration: int = gates.DEFAULT_DURATIONS["measure"]
    reset_duration: int = gates.DEFAULT_DURATIONS["reset"]
    sq_duration: int = gates.DEFAULT_DURATIONS["x"]

    _sealed = False

    def __setattr__(self, name: str, value: Any) -> None:
        if self._sealed:
            raise sealed_error("calibration")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if self._sealed:
            raise sealed_error("calibration")
        object.__delattr__(self, name)

    def seal(self) -> None:
        """Make this snapshot read-only: every map and scalar (idempotent)."""
        for name in MAP_FIELDS:
            value = getattr(self, name)
            if type(value) is not SealedMap:
                object.__setattr__(self, name, SealedMap(value))
        object.__setattr__(self, "_sealed", True)

    # -- accessors with validation -------------------------------------------

    def get_cx_error(self, a: int, b: int) -> float:
        try:
            return self.cx_error[_edge_key(a, b)]
        except KeyError:
            raise HardwareError(f"no CX calibration for link ({a}, {b})") from None

    def get_cx_duration(self, a: int, b: int) -> int:
        try:
            return self.cx_duration[_edge_key(a, b)]
        except KeyError:
            raise HardwareError(f"no CX calibration for link ({a}, {b})") from None

    def get_readout_error(self, qubit: int) -> float:
        try:
            return self.readout_error[qubit]
        except KeyError:
            raise HardwareError(f"no readout calibration for qubit {qubit}") from None

    def get_sq_error(self, qubit: int) -> float:
        return self.sq_error.get(qubit, 0.0)

    def get_t1(self, qubit: int) -> float:
        return self.t1_dt.get(qubit, float("inf"))

    def get_t2(self, qubit: int) -> float:
        return self.t2_dt.get(qubit, float("inf"))

    # -- derived quantities ----------------------------------------------------

    def instruction_duration(self, name: str, qubits: Tuple[int, ...]) -> int:
        """Duration in dt of gate *name* on the given physical qubits."""
        if name == "measure":
            return self.measure_duration
        if name == "reset":
            return self.reset_duration
        if name == "swap" and len(qubits) == 2 and _edge_key(*qubits) in self.cx_duration:
            return 3 * self.get_cx_duration(*qubits)
        if (
            gates.gate_spec(name).num_qubits == 2
            and len(qubits) == 2
            and _edge_key(*qubits) in self.cx_duration
        ):
            return self.get_cx_duration(*qubits)
        return gates.default_duration(name)

    def link_fidelity(self, a: int, b: int) -> float:
        return 1.0 - self.get_cx_error(a, b)

    def best_link(self) -> Tuple[int, int]:
        """The physical link with the lowest CX error."""
        if not self.cx_error:
            raise HardwareError("calibration has no CX data")
        edge = min(self.cx_error, key=self.cx_error.get)
        a, b = sorted(edge)
        return a, b


def synthetic_calibration(
    coupling: CouplingMap,
    seed: Optional[int] = 2023,
    cx_error_range: Tuple[float, float] = (0.005, 0.03),
    readout_error_range: Tuple[float, float] = (0.01, 0.06),
    sq_error_range: Tuple[float, float] = (0.0002, 0.001),
    cx_duration_range: Tuple[int, int] = (1100, 2500),
    t1_range_us: Tuple[float, float] = (50.0, 200.0),
    measure_duration: Optional[int] = None,
    reset_duration: Optional[int] = None,
    sq_duration: Optional[int] = None,
) -> Calibration:
    """Generate a realistic, seeded calibration for *coupling*.

    Errors are drawn uniformly in log-space so most links are good and a
    few are notably bad — matching the heavy-tailed variability real
    devices show and the paper's placement heuristics exploit.

    The duration overrides let non-superconducting profiles (the device
    registry's trapped-ion entries, where measurement and reset dominate
    the schedule) replace the Falcon-flavoured defaults.
    """
    import math

    rng = random.Random(seed)

    def _log_uniform(low: float, high: float) -> float:
        return math.exp(rng.uniform(math.log(low), math.log(high)))

    calibration = Calibration()
    if measure_duration is not None:
        calibration.measure_duration = int(measure_duration)
    if reset_duration is not None:
        calibration.reset_duration = int(reset_duration)
    if sq_duration is not None:
        calibration.sq_duration = int(sq_duration)
    for a, b in coupling.edges:
        key = _edge_key(a, b)
        calibration.cx_error[key] = _log_uniform(*cx_error_range)
        calibration.cx_duration[key] = int(rng.uniform(*cx_duration_range))
    us_to_dt = 1000.0 / gates.DT_NANOSECONDS  # 1 us in dt
    for q in range(coupling.num_qubits):
        calibration.readout_error[q] = _log_uniform(*readout_error_range)
        calibration.sq_error[q] = _log_uniform(*sq_error_range)
        t1 = rng.uniform(*t1_range_us)
        calibration.t1_dt[q] = t1 * us_to_dt
        calibration.t2_dt[q] = min(rng.uniform(0.5, 1.5) * t1, 2 * t1) * us_to_dt
    return calibration
