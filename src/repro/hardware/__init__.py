"""Hardware models: coupling maps, topologies, calibration, backends."""

from repro.hardware.backends import Backend, generic_backend
from repro.hardware.calibration import Calibration, synthetic_calibration
from repro.hardware.coupling import CouplingMap
from repro.hardware.drift import DriftSimulator, drift_series
from repro.hardware.mumbai import MUMBAI_SEED, ibm_mumbai
from repro.hardware.serialization import (
    backend_from_json,
    backend_to_json,
    calibration_from_dict,
    calibration_to_dict,
)
from repro.hardware.topologies import (
    FALCON_27_EDGES,
    DeviceProfile,
    device_names,
    device_profile,
    eagle_127,
    falcon_27,
    full,
    get_device,
    grid,
    heavy_hex,
    heavy_hex_rows,
    line,
    osprey_433,
    register_device,
    ring,
    scaled_heavy_hex,
    star,
)

__all__ = [
    "Backend",
    "generic_backend",
    "Calibration",
    "synthetic_calibration",
    "CouplingMap",
    "DriftSimulator",
    "drift_series",
    "ibm_mumbai",
    "MUMBAI_SEED",
    "line",
    "ring",
    "grid",
    "star",
    "full",
    "heavy_hex",
    "heavy_hex_rows",
    "scaled_heavy_hex",
    "falcon_27",
    "FALCON_27_EDGES",
    "eagle_127",
    "osprey_433",
    "DeviceProfile",
    "register_device",
    "device_names",
    "device_profile",
    "get_device",
    "backend_to_json",
    "backend_from_json",
    "calibration_to_dict",
    "calibration_from_dict",
]
