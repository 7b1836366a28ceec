"""Differential harness: warm-cache reports vs. cold compiles.

The compile cache's contract is that serving a fingerprint from the
store is *indistinguishable* from recompiling: every field of the
:class:`~repro.compile_api.CompileReport` — the instruction stream, the
metric sets, the benefit verdict, the router stats — must round-trip the
serialization codec exactly.  The harness drives ``CAQR_CACHE_SAMPLES``
random circuits (default 40, raise via the environment for nightly runs)
through a cold compile and a warm lookup and fails loudly on the first
field that drifts, printing the offending seed.
"""

import os

import pytest

from repro.circuit.random import random_circuit
from repro.compile_api import caqr_compile
from repro.hardware import ibm_mumbai
from repro.service import CompileService
from repro.workloads import bv_circuit, random_graph

CACHE_SAMPLES = int(os.environ.get("CAQR_CACHE_SAMPLES", "40"))

FIELDS = [
    "mode",
    "metrics",
    "baseline_metrics",
    "reuse_beneficial",
    "qubit_saving",
]
# route_stats/eval_stats/sim_stats counters and gauges are deterministic
# across cold runs; their *timers* are wall-clock, so they are only
# pinned warm-vs-primed (the warm entry must replay the exact run that
# populated the cache)

#: the per-domain stats riding on the report since schema v3
STATS_FIELDS = ["route_stats", "eval_stats", "sim_stats"]


def _assert_stats_field(report, cold, field, context):
    cold_stats = getattr(cold, field)
    got = getattr(report, field)
    if cold_stats is None:
        assert got is None, f"{context}: {field} appeared from nowhere"
        return
    assert got.counters == cold_stats.counters, (
        f"{context}: {field} counters drifted"
    )
    assert got.values == cold_stats.values, f"{context}: {field} gauges drifted"


def _sample_circuit(seed: int):
    """Mirror of the incremental-engine differential pool (3-6 qubits,
    mixed gate pools, with and without terminal measurements)."""
    num_qubits = 3 + seed % 4
    num_gates = 6 + (seed * 7) % 12
    return random_circuit(
        num_qubits,
        num_gates=num_gates,
        seed=seed,
        two_qubit_fraction=0.35 + 0.3 * ((seed // 4) % 2),
        measure=seed % 3 != 0,
    )


def _assert_warm_equals_cold(target, context, service=None, **knobs):
    service = service if service is not None else CompileService()
    cold = caqr_compile(target, **knobs)
    primed = service.compile(target, **knobs)
    warm = service.compile(target, **knobs)
    assert primed.from_cache is False, context
    assert warm.from_cache is True, context
    for report in (primed, warm):
        label = "primed" if report is primed else "warm"
        assert report.circuit.num_qubits == cold.circuit.num_qubits, (
            f"{context}: {label} circuit width drifted"
        )
        assert report.circuit.num_clbits == cold.circuit.num_clbits, (
            f"{context}: {label} clbit count drifted"
        )
        assert report.circuit.data == cold.circuit.data, (
            f"{context}: {label} instruction stream drifted"
        )
        for name in FIELDS:
            assert getattr(report, name) == getattr(cold, name), (
                f"{context}: {label} field {name!r} drifted"
            )
        for field in STATS_FIELDS:
            _assert_stats_field(report, cold, field, f"{context}: {label}")
    # the warm report replays the primed run exactly, timers included
    assert warm.route_stats == primed.route_stats, context
    assert warm.eval_stats == primed.eval_stats, context
    assert warm.sim_stats == primed.sim_stats, context


@pytest.mark.parametrize("seed", range(CACHE_SAMPLES))
def test_random_circuit_roundtrip(seed):
    mode = "max_reuse" if seed % 2 else "min_depth"
    _assert_warm_equals_cold(
        _sample_circuit(seed), f"seed={seed} mode={mode}", mode=mode
    )


@pytest.mark.parametrize("seed", range(0, CACHE_SAMPLES, 5))
def test_random_circuit_roundtrip_on_disk(seed, tmp_path):
    """Same contract through the persistent tier (a fresh service reads
    back what another instance wrote)."""
    circuit = _sample_circuit(seed)
    writer = CompileService(cache_dir=str(tmp_path))
    cold = caqr_compile(circuit)
    writer.compile(circuit)
    reader = CompileService(cache_dir=str(tmp_path))
    warm = reader.compile(circuit)
    assert warm.from_cache is True
    assert warm.circuit.data == cold.circuit.data, f"seed={seed}"
    for name in FIELDS:
        assert getattr(warm, name) == getattr(cold, name), (
            f"seed={seed}: field {name!r} drifted across processes"
        )


def test_bv_budget_roundtrip():
    _assert_warm_equals_cold(
        bv_circuit(8), "bv8 budget", mode="qubit_budget", qubit_limit=2
    )


def test_graph_target_roundtrip():
    _assert_warm_equals_cold(
        random_graph(8, 0.3, seed=11), "qaoa graph", mode="max_reuse"
    )


def test_min_swap_roundtrip():
    """Hardware-mapped reports (router stats attached) round-trip too."""
    _assert_warm_equals_cold(
        bv_circuit(6), "bv6 min_swap", backend=ibm_mumbai(), mode="min_swap"
    )


def _pinned_in_band_backend(wiggle):
    """A Mumbai snapshot whose banded values sit at band centres * wiggle.

    With ``calib_bands=2`` a band spans ~3.16x, so any wiggle below
    1.78x provably stays inside the band — the snapshots differ exactly,
    agree banded.
    """
    from repro.service import band_value

    backend = ibm_mumbai()
    calibration = backend.calibration
    for mapping in (
        calibration.cx_error,
        calibration.readout_error,
        calibration.sq_error,
        calibration.t1_dt,
        calibration.t2_dt,
    ):
        for key, value in mapping.items():
            centre = 10.0 ** ((band_value(value, 2) + 0.5) / 2)
            mapping[key] = centre * wiggle
    return backend


@pytest.mark.parametrize("seed", range(0, CACHE_SAMPLES, 10))
def test_banded_warm_hit_is_indistinguishable(seed):
    """A warm hit served across in-band calibration drift must be
    field-for-field identical to the report that populated the entry —
    banding may only ever *reuse* a decision, never alter one."""
    circuit = _sample_circuit(seed)
    service = CompileService()
    day_zero = _pinned_in_band_backend(1.0)
    drifted = _pinned_in_band_backend(1.0 + 0.02 * (1 + seed % 5))
    primed = service.compile(
        circuit, backend=day_zero, mode="min_swap", calib_bands=2
    )
    warm = service.compile(
        circuit, backend=drifted, mode="min_swap", calib_bands=2
    )
    assert primed.from_cache is False, f"seed={seed}"
    assert warm.from_cache is True, (
        f"seed={seed}: in-band drift must not miss under banding"
    )
    assert warm.circuit.data == primed.circuit.data, f"seed={seed}"
    for name in FIELDS:
        assert getattr(warm, name) == getattr(primed, name), (
            f"seed={seed}: banded warm field {name!r} drifted"
        )
    assert warm.route_stats == primed.route_stats, f"seed={seed}"
    assert warm.eval_stats == primed.eval_stats, f"seed={seed}"
    assert warm.sim_stats == primed.sim_stats, f"seed={seed}"
    # and the decision gate: a fresh compile of the drifted snapshot
    # produces the same instruction stream the banded hit served
    fresh = caqr_compile(circuit, backend=drifted, mode="min_swap")
    assert warm.circuit.data == fresh.circuit.data, (
        f"seed={seed}: banding changed a compile decision"
    )
    # exact digests miss on the same drift
    exact = CompileService()
    exact.compile(circuit, backend=day_zero, mode="min_swap", calib_bands=0)
    exact_report = exact.compile(
        circuit, backend=drifted, mode="min_swap", calib_bands=0
    )
    assert exact_report.from_cache is False, f"seed={seed}"


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(CACHE_SAMPLES, CACHE_SAMPLES + 20))
def test_random_circuit_roundtrip_extended(seed):
    """Nightly-only extension of the sample pool past the fast split."""
    _assert_warm_equals_cold(_sample_circuit(seed), f"seed={seed}")


# -- the networked service must be indistinguishable from the local one -------


def _assert_reports_match(remote, cold, context):
    assert remote.circuit.num_qubits == cold.circuit.num_qubits, context
    assert remote.circuit.num_clbits == cold.circuit.num_clbits, context
    assert remote.circuit.data == cold.circuit.data, (
        f"{context}: instruction stream drifted over the wire"
    )
    for name in FIELDS:
        assert getattr(remote, name) == getattr(cold, name), (
            f"{context}: field {name!r} drifted over the wire"
        )
    for field in STATS_FIELDS:
        _assert_stats_field(remote, cold, field, context)


@pytest.mark.parametrize("seed", range(0, CACHE_SAMPLES, 5))
def test_remote_equals_local(seed):
    """Every report field survives the wire protocol bit-for-bit."""
    from repro.service import RemoteCompileService, start_server_thread

    circuit = _sample_circuit(seed)
    mode = "max_reuse" if seed % 2 else "min_depth"
    handle = start_server_thread(service=CompileService())
    try:
        with RemoteCompileService(handle.url, timeout=120) as client:
            remote = client.compile(circuit, mode=mode)
            warm = client.compile(circuit, mode=mode)
        cold = caqr_compile(circuit, mode=mode)
        assert remote.from_cache is False, f"seed={seed}"
        assert warm.from_cache is True, f"seed={seed}"
        _assert_reports_match(remote, cold, f"seed={seed} mode={mode} (miss)")
        _assert_reports_match(warm, cold, f"seed={seed} mode={mode} (hit)")
    finally:
        handle.stop()


def test_remote_equals_local_with_backend():
    """Hardware-mapped reports (router stats attached) cross the wire too."""
    from repro.service import RemoteCompileService, start_server_thread

    circuit = bv_circuit(6)
    backend = ibm_mumbai()
    handle = start_server_thread(service=CompileService())
    try:
        with RemoteCompileService(handle.url, timeout=120) as client:
            remote = client.compile(circuit, backend=backend, mode="min_swap")
        cold = caqr_compile(circuit, backend=backend, mode="min_swap")
        _assert_reports_match(remote, cold, "bv6 min_swap over the wire")
    finally:
        handle.stop()


def test_two_clients_one_cold_compile():
    """Two clients hammering one server pay for exactly one compile per
    fingerprint — the cross-process dedup contract, asserted via /v1/stats."""
    import threading

    from repro.service import RemoteCompileService, start_server_thread
    from repro.service.service import CompileRequest

    handle = start_server_thread(service=CompileService())
    requests = [CompileRequest(target=_sample_circuit(seed)) for seed in range(3)]
    try:
        barrier = threading.Barrier(2)
        results = {}

        def hammer(name):
            client = RemoteCompileService(handle.url, timeout=120)
            barrier.wait(30)
            results[name] = [
                client.compile_classified(request) for request in requests
            ]
            client.close()

        threads = [
            threading.Thread(target=hammer, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        observer = RemoteCompileService(handle.url, timeout=30)
        counters = observer.stats()["stats"]["counters"]
        observer.close()
        assert counters["misses"] == len(requests), (
            "each fingerprint must be compiled exactly once across clients"
        )
        assert counters["requests"] >= 2 * len(requests)
        # both clients saw identical reports, whoever paid for them
        for (report_a, fp_a, _), (report_b, fp_b, _) in zip(
            results["a"], results["b"]
        ):
            assert fp_a == fp_b
            assert report_a.circuit.data == report_b.circuit.data
            assert report_a.metrics == report_b.metrics
    finally:
        handle.stop()
