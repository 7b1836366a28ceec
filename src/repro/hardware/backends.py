"""Backend: a named coupling map + calibration + capability flags."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, TypeVar

from repro.exceptions import HardwareError
from repro.hardware.calibration import Calibration, sealed_error, synthetic_calibration
from repro.hardware.coupling import CouplingMap

__all__ = ["Backend", "generic_backend"]

T = TypeVar("T")


@dataclass
class Backend:
    """A compile/execution target.

    Attributes:
        name: device name.
        coupling: physical connectivity.
        calibration: error and timing data.
        supports_dynamic_circuits: whether mid-circuit measurement, reset,
            and classical feed-forward are available (the paper notes only
            some IBM machines support this).

    The first encode (:func:`repro.hardware.serialization.backend_snapshot`,
    behind every digest and request body) seals the backend, its coupling
    map and its calibration, and keeps the encodings: edit a backend
    before its first use, or derive a new one with
    ``dataclasses.replace``.
    """

    name: str
    coupling: CouplingMap
    calibration: Calibration
    supports_dynamic_circuits: bool = True

    _snapshot = None  # the encodings, kept from the first encode on

    def __setattr__(self, name: str, value: Any) -> None:
        if self._snapshot is not None:
            raise sealed_error(f"backend {self.name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        if self._snapshot is not None:
            raise sealed_error(f"backend {self.name!r}")
        object.__delattr__(self, name)

    def seal(self, encode: Callable[["Backend"], T]) -> T:
        """Seal this backend and return its encodings.

        The first call makes the backend, its coupling map and its
        calibration read-only, then computes ``encode(self)`` and keeps
        it; later calls return what it kept.
        """
        if self._snapshot is None:
            self.coupling.seal()
            self.calibration.seal()
            object.__setattr__(self, "_snapshot", encode(self))
        return self._snapshot

    def __post_init__(self) -> None:
        for a, b in self.coupling.edges:
            # every physical link must be calibrated
            self.calibration.get_cx_error(a, b)

    @property
    def num_qubits(self) -> int:
        return self.coupling.num_qubits

    def validate_circuit_width(self, num_qubits: int) -> None:
        """Raise when a circuit needs more qubits than the device has."""
        if num_qubits > self.num_qubits:
            raise HardwareError(
                f"circuit needs {num_qubits} qubits but {self.name} "
                f"has only {self.num_qubits}"
            )


def generic_backend(
    coupling: CouplingMap,
    name: str = "generic",
    seed: Optional[int] = 2023,
    supports_dynamic_circuits: bool = True,
) -> Backend:
    """Wrap a coupling map with a synthetic calibration."""
    return Backend(
        name=name,
        coupling=coupling,
        calibration=synthetic_calibration(coupling, seed=seed),
        supports_dynamic_circuits=supports_dynamic_circuits,
    )
