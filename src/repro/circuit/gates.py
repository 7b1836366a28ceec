"""Gate definitions: names, arities, parameter counts, matrices, durations.

The library uses a flat string-keyed gate registry rather than a class per
gate.  An :class:`~repro.circuit.instruction.Instruction` stores the gate
*name*; this module answers every question about what that name means:

* how many qubits / classical bits / parameters it takes,
* its unitary matrix (for simulation), and
* its default duration in ``dt`` (for scheduling when no calibration is
  available).

Durations follow the paper's setting: 1 ``dt`` is 0.22 ns on IBM Falcon
processors.  The paper reports that the built-in ``measure + reset``
combination takes 33,179 dt while the optimised ``measure + c_if(X)``
takes 16,467 dt (Section 2.1, Fig. 2); the defaults below reproduce those
two figures exactly:

* ``measure``: 15,908 dt
* ``reset`` (built-in, contains an implicit measurement pulse): 17,271 dt
* conditional ``x`` (feed-forward latency + X pulse): 559 dt

so ``measure + reset`` = 33,179 dt and ``measure + x.c_if`` = 16,467 dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CircuitError

__all__ = [
    "GateSpec",
    "GATES",
    "gate_spec",
    "gate_matrix",
    "default_duration",
    "is_unitary_gate",
    "is_two_qubit_gate",
    "is_directive",
    "DT_NANOSECONDS",
    "DEFAULT_DURATIONS",
    "CONDITIONAL_LATENCY_DT",
]

# One hardware cycle, in nanoseconds (IBM Falcon convention used in the paper).
DT_NANOSECONDS = 0.22

# Feed-forward latency added to a classically conditioned gate, in dt.
CONDITIONAL_LATENCY_DT = 399


def _m(rows: Sequence[Sequence[complex]]) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


_SQ2 = 1.0 / math.sqrt(2.0)

_I = _m([[1, 0], [0, 1]])
_X = _m([[0, 1], [1, 0]])
_Y = _m([[0, -1j], [1j, 0]])
_Z = _m([[1, 0], [0, -1]])
_H = _m([[_SQ2, _SQ2], [_SQ2, -_SQ2]])
_S = _m([[1, 0], [0, 1j]])
_SDG = _m([[1, 0], [0, -1j]])
_T = _m([[1, 0], [0, np.exp(1j * math.pi / 4)]])
_TDG = _m([[1, 0], [0, np.exp(-1j * math.pi / 4)]])
_SX = 0.5 * _m([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_SXDG = 0.5 * _m([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _m([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _m([[c, -s], [s, c]])


def _rz(theta: float) -> np.ndarray:
    return _m([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


def _p(lam: float) -> np.ndarray:
    return _m([[1, 0], [0, np.exp(1j * lam)]])


def _u(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _m(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ]
    )


def _controlled(u: np.ndarray) -> np.ndarray:
    """2-qubit controlled version of a 1-qubit unitary.

    Qubit ordering convention: qubit 0 of the instruction is the control and
    occupies the *most significant* position in the 2-qubit basis
    ``|q0 q1>`` = ``|control target>``.
    """
    out = np.eye(4, dtype=np.complex128)
    out[2:, 2:] = u
    return out


_CX = _controlled(_X)
_CY = _controlled(_Y)
_CZ = _controlled(_Z)
_SWAP = _m(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]
)


def _cp(lam: float) -> np.ndarray:
    return _controlled(_p(lam))


def _crz(theta: float) -> np.ndarray:
    return _controlled(_rz(theta))


def _rzz(theta: float) -> np.ndarray:
    e_m = np.exp(-1j * theta / 2)
    e_p = np.exp(1j * theta / 2)
    return np.diag([e_m, e_p, e_p, e_m]).astype(np.complex128)


def _ccx() -> np.ndarray:
    out = np.eye(8, dtype=np.complex128)
    out[6:, 6:] = _X
    return out


@dataclass(frozen=True)
class GateSpec:
    """Static description of a named gate.

    Attributes:
        name: canonical lower-case gate name.
        num_qubits: qubit arity.
        num_clbits: classical-bit arity (non-zero only for ``measure``).
        num_params: number of float parameters.
        matrix_fn: callable mapping params to a unitary, or ``None`` for
            non-unitary operations (measure, reset, barrier, delay).
        duration_dt: default duration in ``dt`` cycles.
        directive: ``True`` for ops that occupy no hardware time and impose
            ordering only (barrier).
    """

    name: str
    num_qubits: int
    num_clbits: int
    num_params: int
    matrix_fn: Optional[Callable[..., np.ndarray]]
    duration_dt: int
    directive: bool = False


# Default durations (in dt) for gates, loosely modelled on IBM Falcon
# calibrations.  rz is virtual (zero duration); two-qubit gates dominate.
DEFAULT_DURATIONS: Dict[str, int] = {
    "id": 160,
    "x": 160,
    "y": 160,
    "z": 0,
    "h": 160,
    "s": 0,
    "sdg": 0,
    "t": 0,
    "tdg": 0,
    "sx": 160,
    "sxdg": 160,
    "rx": 160,
    "ry": 160,
    "rz": 0,
    "p": 0,
    "u": 160,
    "cx": 1760,
    "cy": 1920,
    "cz": 1760,
    "cp": 1920,
    "crz": 1920,
    "rzz": 1920,
    "swap": 5280,  # three CX
    "ccx": 10560,  # six CX equivalent
    "measure": 15908,
    "reset": 17271,
    "barrier": 0,
    "delay": 0,
}


def _spec(
    name: str,
    num_qubits: int,
    num_params: int = 0,
    matrix_fn: Optional[Callable[..., np.ndarray]] = None,
    num_clbits: int = 0,
    directive: bool = False,
) -> GateSpec:
    return GateSpec(
        name=name,
        num_qubits=num_qubits,
        num_clbits=num_clbits,
        num_params=num_params,
        matrix_fn=matrix_fn,
        duration_dt=DEFAULT_DURATIONS[name],
        directive=directive,
    )


GATES: Dict[str, GateSpec] = {
    "id": _spec("id", 1, matrix_fn=lambda: _I),
    "x": _spec("x", 1, matrix_fn=lambda: _X),
    "y": _spec("y", 1, matrix_fn=lambda: _Y),
    "z": _spec("z", 1, matrix_fn=lambda: _Z),
    "h": _spec("h", 1, matrix_fn=lambda: _H),
    "s": _spec("s", 1, matrix_fn=lambda: _S),
    "sdg": _spec("sdg", 1, matrix_fn=lambda: _SDG),
    "t": _spec("t", 1, matrix_fn=lambda: _T),
    "tdg": _spec("tdg", 1, matrix_fn=lambda: _TDG),
    "sx": _spec("sx", 1, matrix_fn=lambda: _SX),
    "sxdg": _spec("sxdg", 1, matrix_fn=lambda: _SXDG),
    "rx": _spec("rx", 1, 1, _rx),
    "ry": _spec("ry", 1, 1, _ry),
    "rz": _spec("rz", 1, 1, _rz),
    "p": _spec("p", 1, 1, _p),
    "u": _spec("u", 1, 3, _u),
    "cx": _spec("cx", 2, matrix_fn=lambda: _CX),
    "cy": _spec("cy", 2, matrix_fn=lambda: _CY),
    "cz": _spec("cz", 2, matrix_fn=lambda: _CZ),
    "cp": _spec("cp", 2, 1, _cp),
    "crz": _spec("crz", 2, 1, _crz),
    "rzz": _spec("rzz", 2, 1, _rzz),
    "swap": _spec("swap", 2, matrix_fn=lambda: _SWAP),
    "ccx": _spec("ccx", 3, matrix_fn=_ccx),
    "measure": _spec("measure", 1, num_clbits=1),
    "reset": _spec("reset", 1),
    "barrier": _spec("barrier", 0, directive=True),
    "delay": _spec("delay", 1, num_params=1),
}

# Gates whose two-qubit interaction counts as an edge of the qubit
# interaction graph (everything 2-qubit and unitary).
TWO_QUBIT_GATES = frozenset(
    name for name, spec in GATES.items() if spec.num_qubits == 2 and spec.matrix_fn
)


def gate_spec(name: str) -> GateSpec:
    """Return the :class:`GateSpec` for *name*, raising for unknown gates."""
    try:
        return GATES[name]
    except KeyError:
        raise CircuitError(f"unknown gate: {name!r}") from None


@lru_cache(maxsize=256)
def _cached_matrix(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """Build (once) and freeze the matrix for a (gate, params) binding.

    The returned array is shared between every call site, so it is marked
    read-only — simulators and the transpiler only read or matmul it, and
    an accidental in-place mutation would otherwise poison the cache.
    """
    spec = gate_spec(name)
    if spec.matrix_fn is None:
        raise CircuitError(f"gate {name!r} has no unitary matrix")
    if len(params) != spec.num_params:
        raise CircuitError(
            f"gate {name!r} expects {spec.num_params} params, got {len(params)}"
        )
    matrix = spec.matrix_fn(*params)
    matrix.setflags(write=False)
    return matrix


def gate_matrix(name: str, params: Tuple[float, ...] = ()) -> np.ndarray:
    """Return the unitary matrix of gate *name* with *params* bound.

    Matrices are memoised per ``(name, params)`` and returned as
    read-only arrays — copy before mutating.

    Raises:
        CircuitError: if the gate is unknown, non-unitary, or the parameter
            count does not match.
    """
    try:
        return _cached_matrix(name, tuple(params))
    except TypeError:
        # unhashable params (never produced by Instruction, which stores
        # tuples) fall back to an uncached build
        spec = gate_spec(name)
        if spec.matrix_fn is None:
            raise CircuitError(f"gate {name!r} has no unitary matrix")
        if len(params) != spec.num_params:
            raise CircuitError(
                f"gate {name!r} expects {spec.num_params} params, got {len(params)}"
            )
        return spec.matrix_fn(*params)


def default_duration(name: str) -> int:
    """Default duration of gate *name* in dt cycles."""
    return gate_spec(name).duration_dt


def is_unitary_gate(name: str) -> bool:
    """True when *name* denotes a unitary gate (simulable as a matrix)."""
    return gate_spec(name).matrix_fn is not None


def is_two_qubit_gate(name: str) -> bool:
    """True when *name* is a unitary two-qubit gate."""
    return name in TWO_QUBIT_GATES


def is_directive(name: str) -> bool:
    """True for scheduling directives (barrier) that take no hardware time."""
    return gate_spec(name).directive
