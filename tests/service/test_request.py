"""``CompileRequest`` is the one place the compile knobs are written.

Every front-end (``caqr_compile``, the local, remote and portfolio
services, the wire codec) builds or forwards this one dataclass, so these
tests iterate its fields instead of naming them: a knob added later is
covered without touching this file.
"""

import dataclasses
import inspect
import os
import subprocess
import sys

import pytest

import repro

from repro.compile_api import caqr_compile
from repro.hardware import ibm_mumbai
from repro.hardware.serialization import backend_to_json
from repro.service import CompileRequest, PortfolioCompileService
from repro.service.fingerprint import circuit_digest, resolve_calib_bands
from repro.service.net.wire import request_from_wire, request_to_wire
from repro.workloads import bv_circuit

FIELDS = dataclasses.fields(CompileRequest)

#: A non-default value per field; changing a semantic field to it must
#: move the fingerprint.
CHANGED = {
    "target": bv_circuit(5),
    "backend": ibm_mumbai(),
    "mode": "max_reuse",
    "qubit_limit": 3,
    "reset_style": "builtin",
    "seed": 12,
    "auto_commuting": False,
    "parallel": False,
    "strategy": "chain",
    "objective": "depth",
    "portfolio_workers": 2,
    "calib_bands": 4,
}


def _comparable(name, value):
    if name == "target":
        return circuit_digest(value)
    if name == "backend":
        return None if value is None else backend_to_json(value)
    if name == "calib_bands":
        # the wire ships the sender's resolved band count
        return resolve_calib_bands(value)
    return value


def test_every_field_has_a_changed_value():
    assert sorted(CHANGED) == sorted(field.name for field in FIELDS)


@pytest.mark.parametrize("field", FIELDS, ids=lambda field: field.name)
def test_field_round_trips_the_wire(field):
    base = CompileRequest(target=bv_circuit(4))
    request = dataclasses.replace(base, **{field.name: CHANGED[field.name]})
    decoded = request_from_wire(request_to_wire(request))
    for other in FIELDS:
        assert _comparable(other.name, getattr(decoded, other.name)) == _comparable(
            other.name, getattr(request, other.name)
        ), other.name
    assert decoded.fingerprint() == request.fingerprint()


@pytest.mark.parametrize("field", FIELDS, ids=lambda field: field.name)
def test_semantic_fields_move_the_fingerprint(field):
    base = CompileRequest(target=bv_circuit(4))
    changed = dataclasses.replace(base, **{field.name: CHANGED[field.name]})
    # the engine knobs select how a compile runs, never what it returns
    if field.name in ("parallel", "portfolio_workers"):
        assert changed.fingerprint() == base.fingerprint()
    else:
        assert changed.fingerprint() != base.fingerprint()


def test_caqr_compile_signature_is_the_request():
    """``caqr_compile`` builds its request positionally: its parameters
    (``cache`` aside) must be the fields, in order, with the same defaults."""
    params = [
        param
        for name, param in inspect.signature(caqr_compile).parameters.items()
        if name != "cache"
    ]
    assert [param.name for param in params] == [field.name for field in FIELDS]
    for param, field in zip(params, FIELDS):
        if field.default is not dataclasses.MISSING:
            assert param.default == field.default, field.name


def test_knobs_are_every_field_but_target_and_backend():
    request = CompileRequest(target=bv_circuit(4), **{
        name: CHANGED[name] for name in ("mode", "seed", "calib_bands")
    })
    knobs = request.knobs()
    assert list(knobs) == [field.name for field in FIELDS][2:]
    assert CompileRequest(request.target, request.backend, **knobs) == request


def test_portfolio_race_request_keys_as_the_single_strategy_request(monkeypatch):
    """SR lanes seed from the race request's fingerprint: it is the plain
    request's, whatever portfolio knobs the caller set."""
    seen = []

    def record(self, specs, request, view):
        seen.append(request)
        raise RuntimeError("stop before the race")

    monkeypatch.setattr(PortfolioCompileService, "_run_all", record)
    backend = ibm_mumbai()
    with pytest.raises(RuntimeError):
        PortfolioCompileService().compile(
            bv_circuit(4), backend, mode="min_swap", seed=5,
            strategy="portfolio", objective="depth", portfolio_workers=2,
            calib_bands=3, parallel=False,
        )
    plain = CompileRequest(bv_circuit(4), backend, mode="min_swap", seed=5)
    assert seen[0].fingerprint() == plain.fingerprint()
    assert seen[0].parallel is False


def test_uncached_compile_loads_no_service_module():
    """The request lives in ``compile_api``: importing the package and
    running an uncached compile never import the service layer."""
    code = (
        "import sys, repro\n"
        "from repro.workloads import bv_circuit\n"
        "assert not [m for m in sys.modules if m.startswith('repro.service')]\n"
        "repro.caqr_compile(bv_circuit(4), mode='max_reuse', parallel=False)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.service')))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("calib_bands", [0, 4])
def test_warm_hit_encodes_the_backend_once(monkeypatch, calib_bands):
    """The fingerprint and the shard share one banded backend digest per
    request, so an in-process warm hit encodes the backend once."""
    from repro.service import CompileService, fingerprint

    service = CompileService()
    backend = ibm_mumbai()
    knobs = dict(mode="min_swap", parallel=False, calib_bands=calib_bands)
    service.compile(bv_circuit(5), backend, **knobs)
    calls = []
    encode = fingerprint.backend_to_json
    monkeypatch.setattr(
        fingerprint, "backend_to_json", lambda b: calls.append(b) or encode(b)
    )
    assert caqr_compile(bv_circuit(5), backend, cache=service, **knobs).from_cache
    assert len(calls) == 1
