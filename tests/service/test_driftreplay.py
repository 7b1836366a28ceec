"""Drift-replay harness + banded shard/ring-key placement under drift."""

import pytest

from repro.exceptions import HardwareError, ServiceError
from repro.hardware import drift_series, get_device, ibm_mumbai
from repro.service import (
    CompileRequest,
    HashRing,
    band_value,
    replay_drift,
    ring_key,
)
from repro.service.driftreplay import _esp_or_none
from repro.workloads import bv_circuit

# the validated smoke configuration (scripts/drift_replay.py)
STEPS = 8
VOLATILITY = 0.01
BANDS = 2
DRIFT_SEED = 7


class TestReplayDrift:
    def test_banded_lane_lifts_hits_without_changing_decisions(self):
        result = replay_drift(
            bv_circuit(4),
            ibm_mumbai(),
            steps=STEPS,
            volatility=VOLATILITY,
            calib_bands=BANDS,
            seed=DRIFT_SEED,
        )
        assert result.banded_hits > result.exact_hits
        assert result.hit_uplift >= 5.0
        assert result.decision_changes == 0
        assert result.banded_shards < result.exact_shards
        # the exact lane misses every drifted snapshot by construction
        assert result.exact_hits == 0
        assert result.exact_misses == STEPS

    def test_result_is_deterministic(self):
        kwargs = dict(
            steps=4, volatility=VOLATILITY, calib_bands=BANDS, seed=DRIFT_SEED
        )
        a = replay_drift(bv_circuit(4), ibm_mumbai(), **kwargs)
        b = replay_drift(bv_circuit(4), ibm_mumbai(), **kwargs)
        assert (a.banded_hits, a.exact_hits, a.decision_changes) == (
            b.banded_hits,
            b.exact_hits,
            b.decision_changes,
        )
        assert a.esp_gaps == b.esp_gaps

    def test_banding_off_is_rejected(self):
        with pytest.raises(ServiceError):
            replay_drift(bv_circuit(4), ibm_mumbai(), steps=2, calib_bands=0)

    def test_esp_bug_propagates(self, monkeypatch):
        """Only a ReproError means "no ESP"; any other error is a bug."""
        import repro.sim.metrics as metrics

        def broken(circuit, calibration):
            raise RuntimeError("esp bug")

        monkeypatch.setattr(metrics, "estimated_success_probability", broken)
        with pytest.raises(RuntimeError, match="esp bug"):
            _esp_or_none(bv_circuit(4), ibm_mumbai())

    def test_calibration_gap_reads_as_no_esp(self, monkeypatch):
        import repro.sim.metrics as metrics

        def uncalibrated(circuit, calibration):
            raise HardwareError("no CX calibration")

        monkeypatch.setattr(metrics, "estimated_success_probability", uncalibrated)
        assert _esp_or_none(bv_circuit(4), ibm_mumbai()) is None

    def test_summary_mentions_the_gates(self):
        result = replay_drift(
            bv_circuit(4),
            ibm_mumbai(),
            steps=3,
            volatility=VOLATILITY,
            calib_bands=BANDS,
            seed=DRIFT_SEED,
        )
        summary = result.summary()
        assert "uplift" in summary and "decision_changes" in summary


class TestBandedRingPlacement:
    """Gateway placement must not re-home in-band drifted snapshots.

    Regression for ``ring_key`` consuming the exact shard digest: before
    banding reached ``CompileRequest.shard()``, every calibration nudge
    produced a new shard and therefore a fresh consistent-hash owner,
    defeating the warm DiskCache on the member that held the entries.
    """

    def _request(self, backend, bands):
        return CompileRequest(
            target=bv_circuit(4), backend=backend, calib_bands=bands
        )

    @staticmethod
    def _in_band_snapshots(count):
        """Snapshots whose banded values provably never cross a boundary.

        Every banded calibration value is pinned to the centre of its
        log10 band, then wiggled by < 5 % per snapshot — with ``bands=2``
        a band spans ~3.16x, so a 1.78x excursion from the centre would
        be needed to escape.  (A random-walk series cannot promise this:
        any of the ~180 values may start arbitrarily close to a
        boundary.)
        """
        snapshots = []
        for index in range(count):
            snapshot = get_device("grid36")
            calibration = snapshot.calibration
            wiggle = 1.0 + 0.01 * index
            for mapping in (
                calibration.cx_error,
                calibration.readout_error,
                calibration.sq_error,
                calibration.t1_dt,
                calibration.t2_dt,
            ):
                for key, value in mapping.items():
                    band = band_value(value, BANDS)
                    centre = 10.0 ** ((band + 0.5) / BANDS)
                    mapping[key] = centre * wiggle
            snapshots.append(snapshot)
        return snapshots

    def test_in_band_drift_keeps_the_ring_owner(self):
        snapshots = self._in_band_snapshots(6)
        ring = HashRing([f"http://backend-{i}:80" for i in range(5)])
        banded_owners = set()
        exact_keys = set()
        for snapshot in snapshots:
            banded = self._request(snapshot, BANDS)
            exact = self._request(snapshot, 0)
            banded_owners.add(
                ring.owner(ring_key(banded.shard(), banded.fingerprint()))
            )
            exact_keys.add(ring_key(exact.shard(), exact.fingerprint()))
        # every in-band snapshot routes to the one member holding the
        # warm entries, while exact digests scatter a key per snapshot
        assert len(banded_owners) == 1
        assert len(exact_keys) == len(snapshots)

    def test_drifted_series_touches_fewer_owners_than_exact(self):
        snapshots = drift_series(
            get_device("grid36"), 6, volatility=0.005, seed=DRIFT_SEED
        )
        banded_keys = set()
        exact_keys = set()
        for snapshot in snapshots:
            banded = self._request(snapshot, BANDS)
            exact = self._request(snapshot, 0)
            banded_keys.add(ring_key(banded.shard(), banded.fingerprint()))
            exact_keys.add(ring_key(exact.shard(), exact.fingerprint()))
        assert len(banded_keys) < len(exact_keys)
        assert len(exact_keys) == len(snapshots)

    def test_band_width_feeds_the_placement_key(self):
        backend = get_device("grid36")
        a = self._request(backend, 2)
        b = self._request(backend, 4)
        assert a.shard() != b.shard()
