"""A synthetic stand-in for the IBM Mumbai device used in the paper.

IBM Mumbai is a 27-qubit Falcon processor with heavy-hex connectivity and —
at the time of the paper — the one IBM machine supporting dynamic circuits.
The real calibration snapshot is not redistributable, so we generate a
seeded synthetic calibration over the exact Falcon-27 coupling graph.  The
distributions match published Falcon characteristics (see
:func:`repro.hardware.calibration.synthetic_calibration`), which preserves
the error *variability* that SR-CaQR's noise-aware placement exploits.
"""

from __future__ import annotations

from repro.hardware.backends import Backend
from repro.hardware.calibration import synthetic_calibration
from repro.hardware.topologies import falcon_27

__all__ = ["ibm_mumbai", "MUMBAI_SEED"]

# Fixed seed so every experiment in the repo sees the same "device day".
MUMBAI_SEED = 20230319


def ibm_mumbai() -> Backend:
    """The 27-qubit synthetic Mumbai backend with dynamic-circuit support."""
    coupling = falcon_27()
    return Backend(
        name="ibm_mumbai",
        coupling=coupling,
        calibration=synthetic_calibration(coupling, seed=MUMBAI_SEED),
        supports_dynamic_circuits=True,
    )
