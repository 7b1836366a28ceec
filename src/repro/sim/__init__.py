"""Simulation: statevector engines, noise models, fidelity metrics.

Three interchangeable counting engines sit behind :func:`run_counts`'s
``engine=`` knob (``docs/SIMULATOR.md``): the per-shot reference loop,
the branch-tree engine for noiseless dynamic circuits, and the batched
trajectory engine for noisy runs without relaxation.
"""

from repro.sim.metrics import (
    estimated_success_probability,
    hellinger_fidelity,
    normalize_counts,
    success_rate,
    total_variation_distance,
)
from repro.sim.density import DensityMatrix, exact_distribution
from repro.sim.device import compacted_with_noise, run_physical_counts
from repro.sim.noise import NoiseModel
from repro.sim.mitigation import confusion_matrix, inverse_confusion, mitigate_counts
from repro.sim.statevector import ENGINES, Statevector, final_statevector, run_counts
from repro.sim.verify import assert_equivalent, distributions_tvd, marginal_counts

__all__ = [
    "Statevector",
    "run_counts",
    "final_statevector",
    "ENGINES",
    "run_physical_counts",
    "compacted_with_noise",
    "DensityMatrix",
    "exact_distribution",
    "assert_equivalent",
    "distributions_tvd",
    "marginal_counts",
    "mitigate_counts",
    "confusion_matrix",
    "inverse_confusion",
    "NoiseModel",
    "normalize_counts",
    "total_variation_distance",
    "success_rate",
    "hellinger_fidelity",
    "estimated_success_probability",
]
