"""The one request encoder: ``request_body`` splices each backend's kept
fragment into the envelope, so a backend is serialised once per process."""

import json

import pytest

import repro.hardware.serialization as serialization
from repro.hardware import generic_backend, ibm_mumbai, line
from repro.service import CompileService, RemoteCompileService, start_server_thread
from repro.service.net.wire import (
    batch_body,
    batch_from_wire,
    request_body,
    request_from_wire,
    request_to_wire,
)
from repro.service.service import CompileRequest
from repro.workloads import bv_circuit, random_graph


def _requests():
    return [
        CompileRequest(target=bv_circuit(5), backend=ibm_mumbai(), mode="min_swap"),
        CompileRequest(target=random_graph(8, 0.4, seed=3), backend=ibm_mumbai()),
        CompileRequest(target=bv_circuit(4), backend=None, seed=3, calib_bands=2),
        CompileRequest(target=random_graph(6, 0.5, seed=1), backend=None),
    ]


@pytest.mark.parametrize("index", range(4))
def test_body_decodes_to_the_envelope(index):
    request = _requests()[index]
    envelope = json.loads(request_body(request))
    assert envelope == request_to_wire(request)
    assert set(envelope) == {"schema", "target_kind", "target", "backend", "knobs"}
    if request.backend is None:
        assert envelope["backend"] is None
    else:
        assert envelope["backend"] == json.loads(
            serialization.backend_to_json(request.backend)
        )
    decoded = request_from_wire(envelope)
    assert decoded.fingerprint() == request.fingerprint()
    assert decoded.shard() == request.shard()


@pytest.mark.parametrize("index", range(4))
def test_two_encodes_are_byte_identical(index):
    request = _requests()[index]
    assert request_body(request) == request_body(request)


def test_equal_requests_on_distinct_backends_encode_alike():
    a = CompileRequest(target=bv_circuit(5), backend=ibm_mumbai())
    b = CompileRequest(target=bv_circuit(5), backend=ibm_mumbai())
    assert request_body(a) == request_body(b)


def test_batch_body_decodes_to_its_members():
    requests = _requests()
    for parallel in (True, False):
        members, decoded_parallel = batch_from_wire(
            json.loads(batch_body(requests, parallel))
        )
        assert decoded_parallel is parallel
        assert members == [request_to_wire(request) for request in requests]


def test_client_encodes_each_backend_once(monkeypatch):
    calls = []
    encode = serialization._encode
    monkeypatch.setattr(
        serialization, "_encode", lambda backend: calls.append(backend) or encode(backend)
    )
    mumbai, small = ibm_mumbai(), generic_backend(line(4))
    requests = [
        CompileRequest(target=bv_circuit(3 + n % 3), backend=mumbai, mode="min_swap")
        for n in range(45)
    ] + [CompileRequest(target=bv_circuit(3), backend=small) for _ in range(5)]
    handle = start_server_thread(service=CompileService())
    try:
        with RemoteCompileService(handle.url, timeout=120) as client:
            statuses = [client.compile_classified(r)[2] for r in requests]
    finally:
        handle.stop()
    assert statuses.count("miss") == 4
    # the server decodes its own backends; the client's two are encoded once each
    assert sum(backend is mumbai for backend in calls) == 1
    assert sum(backend is small for backend in calls) == 1
