"""The compile service: cached and batched ``caqr_compile``.

Shows the production-facing workflow (the service-side sibling of
``examples/compile_and_inspect.py``):

1. compile the same circuit twice through the cache and watch the warm
   hit skip QS/SR entirely;
2. submit a batch with duplicate members and watch them fold onto one
   compilation, results in input order;
3. persist the cache to disk so a *new process* starts warm, and show
   that calibration drift invalidates the key.

Run:  python examples/service_cache.py
"""

import dataclasses
import tempfile
import time

from repro.hardware import ibm_mumbai
from repro.service import CompileRequest, CompileService
from repro.workloads import bv_circuit


def part1_warm_hits() -> None:
    print("=" * 68)
    print("1. Warm cache hits skip compilation")
    print("=" * 68)
    service = CompileService()
    circuit = bv_circuit(24)
    start = time.perf_counter()
    cold = service.compile(circuit)
    t_cold = time.perf_counter() - start
    start = time.perf_counter()
    warm = service.compile(circuit)
    t_warm = time.perf_counter() - start
    assert warm.circuit.data == cold.circuit.data
    print(f"cold: {t_cold * 1000:7.1f} ms   (from_cache={cold.from_cache})")
    print(f"warm: {t_warm * 1000:7.1f} ms   (from_cache={warm.from_cache})")
    print(f"speedup: {t_cold / t_warm:.0f}x — report is field-identical\n")


def part2_batch_dedup() -> None:
    print("=" * 68)
    print("2. Batches fold duplicates and keep input order")
    print("=" * 68)
    service = CompileService()
    widths = [10, 12, 10, 14, 12, 10]
    reports = service.compile_batch(
        [CompileRequest(bv_circuit(n)) for n in widths]
    )
    print("request widths: ", widths)
    print("report widths:  ", [r.circuit.num_qubits for r in reports])
    print("from_cache:     ", [r.from_cache for r in reports])
    stats = service.stats
    print(f"{stats.counters['batch_unique']} compiles served "
          f"{stats.counters['batch_requests']} requests "
          f"({stats.counters['dedup_folds']} folded)\n")


def part3_persistence_and_invalidation() -> None:
    print("=" * 68)
    print("3. Disk persistence + calibration-drift invalidation")
    print("=" * 68)
    backend = ibm_mumbai()
    circuit = bv_circuit(8)
    with tempfile.TemporaryDirectory() as cache_dir:
        CompileService(cache_dir=cache_dir).compile(
            circuit, backend=backend, mode="min_swap"
        )
        # a brand-new service (think: a new process) starts warm
        fresh = CompileService(cache_dir=cache_dir)
        report = fresh.compile(circuit, backend=backend, mode="min_swap")
        print(f"new service, same snapshot : from_cache={report.from_cache}")
        # drift one CX error: the backend digest — and the key — change.
        # A used backend is sealed, so drift is a new snapshot
        cx_error = backend.calibration.cx_error.copy()
        edge = next(iter(cx_error))
        cx_error[edge] *= 1.05
        drifted_backend = dataclasses.replace(
            backend,
            calibration=dataclasses.replace(backend.calibration, cx_error=cx_error),
        )
        drifted = fresh.compile(circuit, backend=drifted_backend, mode="min_swap")
        print(f"after calibration drift    : from_cache={drifted.from_cache}")
        print(f"stats: {fresh.stats.summary()}")


if __name__ == "__main__":
    part1_warm_hits()
    part2_batch_dedup()
    part3_persistence_and_invalidation()
