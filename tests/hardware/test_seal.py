"""A backend is sealed at its first encode, so its kept encodings never go stale."""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.exceptions import HardwareError
from repro.hardware import CouplingMap, generic_backend, ibm_mumbai, line
from repro.hardware.calibration import MAP_FIELDS, SealedMap
from repro.hardware.serialization import (
    backend_from_dict,
    backend_snapshot,
    backend_to_json,
)
from repro.service.fingerprint import backend_digest, banded_backend_digest

SCALAR_FIELDS = ("measure_duration", "reset_duration", "sq_duration")


def _sealed():
    backend = ibm_mumbai()
    backend_to_json(backend)
    return backend


class TestBeforeFirstEncode:
    def test_edits_are_legal_and_feed_the_digest(self):
        edited = ibm_mumbai()
        edge = next(iter(edited.calibration.cx_error))
        edited.calibration.cx_error[edge] *= 1.001
        edited.calibration.measure_duration += 1
        edited.name = "mumbai-edited"
        assert backend_digest(edited) != backend_digest(ibm_mumbai())

    def test_maps_stay_plain_dicts(self):
        calibration = ibm_mumbai().calibration
        for name in MAP_FIELDS:
            assert type(getattr(calibration, name)) is dict


class TestAfterFirstEncode:
    @pytest.mark.parametrize("name", MAP_FIELDS)
    def test_every_map_mutator_raises(self, name):
        mapping = getattr(_sealed().calibration, name)
        assert isinstance(mapping, SealedMap)
        key = next(iter(mapping))
        mutators = [
            lambda: mapping.__setitem__(key, 0.5),
            lambda: mapping.__delitem__(key),
            lambda: mapping.clear(),
            lambda: mapping.pop(key),
            lambda: mapping.popitem(),
            lambda: mapping.setdefault(key, 0.5),
            lambda: mapping.update({key: 0.5}),
            lambda: mapping.__ior__({key: 0.5}),
        ]
        before = dict(mapping)
        for mutate in mutators:
            with pytest.raises(HardwareError, match="sealed"):
                mutate()
        assert mapping == before

    @pytest.mark.parametrize("name", MAP_FIELDS + SCALAR_FIELDS)
    def test_every_calibration_field_refuses_assignment(self, name):
        calibration = _sealed().calibration
        with pytest.raises(HardwareError, match="sealed"):
            setattr(calibration, name, getattr(calibration, name))
        with pytest.raises(HardwareError, match="sealed"):
            delattr(calibration, name)

    @pytest.mark.parametrize(
        "name", ["name", "coupling", "calibration", "supports_dynamic_circuits"]
    )
    def test_every_backend_attribute_refuses_assignment(self, name):
        backend = _sealed()
        with pytest.raises(HardwareError, match="sealed"):
            setattr(backend, name, getattr(backend, name))

    def test_coupling_refuses_new_edges(self):
        backend = _sealed()
        with pytest.raises(HardwareError, match="sealed"):
            backend.coupling.add_edge(0, 26)

    def test_reads_are_unchanged(self):
        fresh, sealed = ibm_mumbai(), _sealed()
        assert sealed.calibration == fresh.calibration
        a, b = sealed.calibration.best_link()
        assert sealed.calibration.get_cx_error(a, b) == fresh.calibration.get_cx_error(a, b)

    def test_a_digest_seals_too(self):
        backend = ibm_mumbai()
        banded_backend_digest(backend, 2)
        with pytest.raises(HardwareError, match="sealed"):
            backend.calibration.readout_error[0] = 0.5

    def test_encodes_once(self):
        backend = ibm_mumbai()
        first = backend_snapshot(backend)
        assert backend_snapshot(backend) is first
        assert backend_to_json(backend) is first.text


class TestDerivedSnapshots:
    def test_replace_builds_an_editable_backend(self):
        sealed = _sealed()
        cx_error = sealed.calibration.cx_error.copy()
        assert type(cx_error) is dict
        edge = next(iter(cx_error))
        cx_error[edge] *= 1.05
        drifted = dataclasses.replace(
            sealed, calibration=dataclasses.replace(sealed.calibration, cx_error=cx_error)
        )
        drifted.name = "ibm_mumbai-drifted"
        assert backend_digest(drifted) != backend_digest(sealed)

    def test_backend_from_dict_round_trips(self):
        sealed = _sealed()
        restored = backend_from_dict(json.loads(backend_to_json(sealed)))
        assert backend_to_json(restored) == backend_to_json(sealed)
        assert backend_digest(restored) == backend_digest(sealed)

    def test_backend_from_dict_rejects_a_non_object(self):
        with pytest.raises(HardwareError, match="object"):
            backend_from_dict([1])


class TestPickle:
    @pytest.mark.parametrize("clone", [
        lambda b: pickle.loads(pickle.dumps(b)),
        copy.deepcopy,
        copy.copy,
    ])
    def test_sealed_backend_keeps_seal_and_digest(self, clone):
        backend = generic_backend(line(4))
        digest = backend_digest(backend)
        banded = banded_backend_digest(backend, 2)
        restored = clone(backend)
        assert backend_digest(restored) == digest
        assert banded_backend_digest(restored, 2) == banded
        assert backend_snapshot(restored) == backend_snapshot(backend)
        for name in MAP_FIELDS:
            assert type(getattr(restored.calibration, name)) is SealedMap
        with pytest.raises(HardwareError, match="sealed"):
            restored.calibration.cx_error[frozenset((0, 1))] = 0.5
        with pytest.raises(HardwareError, match="sealed"):
            restored.calibration.sq_duration = 1
        with pytest.raises(HardwareError, match="sealed"):
            restored.name = "other"
        with pytest.raises(HardwareError, match="sealed"):
            restored.coupling.add_edge(0, 3)

    def test_unsealed_backend_stays_editable(self):
        restored = pickle.loads(pickle.dumps(ibm_mumbai()))
        restored.calibration.cx_error[frozenset((0, 1))] = 0.5
        restored.name = "edited"

    def test_sealed_map_pickles_as_itself(self):
        mapping = SealedMap({1: 0.5})
        restored = pickle.loads(pickle.dumps(mapping))
        assert type(restored) is SealedMap and restored == {1: 0.5}


def test_unsealed_coupling_still_grows():
    coupling = CouplingMap(3, [(0, 1)])
    coupling.add_edge(1, 2)
    assert coupling.edges == [(0, 1), (1, 2)]
