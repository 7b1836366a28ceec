"""Golden cache keys: literal digests that pin every key by value.

The self-consistency tests in ``test_fingerprint.py`` only show that a
key is stable within one version of the code.  These literals show that
it is stable *across* versions: a change to how backends are encoded or
digested must leave every existing cache entry addressable.
"""

import networkx as nx
import pytest

from repro.compile_api import CompileRequest
from repro.hardware import generic_backend, ibm_mumbai, line
from repro.service.fingerprint import (
    CALIB_BANDS_ENV,
    backend_digest,
    banded_backend_digest,
)
from repro.workloads import bv_circuit

BV5_MUMBAI_EXACT = "bf11cedd103f6835b1e7e309c1116ec38898009bd5f951aab6de42ca56d6c07a"
BV5_MUMBAI_BANDS2 = "235fb9245fb87f5800eafdb7ff706b27536bba29f7d540cad34172d02f8750ab"
CYCLE6_MUMBAI = "d7f91d771bed43abc9876398aedba90415672c2faf896c73bbfc96217fe997f0"
BV3_LINE4 = "4aff47708db7506d98b4d7a7e0373e8861430d44ba599fd013e58c06dc2522bd"
MUMBAI_DIGEST = "cc0ca4d08ede797841de58d2b54f6a72c4c4306e9d4b1418c4f230553924ee36"
MUMBAI_BANDED2 = "5c37427477e08e44480c075da7123dc45d3ded2632d389b6788d6a60b7934a73"
LINE4_DIGEST = "86cd10a19f07b9fbc022522addeba2c45be64550d1c7c5ad55cc52eecd40319d"


@pytest.fixture(autouse=True)
def _no_env_bands(monkeypatch):
    monkeypatch.delenv(CALIB_BANDS_ENV, raising=False)


@pytest.mark.parametrize(
    "calib_bands, expected",
    [(None, BV5_MUMBAI_EXACT), (0, BV5_MUMBAI_EXACT), (2, BV5_MUMBAI_BANDS2)],
)
def test_bv5_on_mumbai(calib_bands, expected):
    request = CompileRequest(
        target=bv_circuit(5), backend=ibm_mumbai(), calib_bands=calib_bands
    )
    assert request.fingerprint() == expected
    # a second key from the same (now encoded) backend must not drift
    again = CompileRequest(
        target=bv_circuit(5), backend=request.backend, calib_bands=calib_bands
    )
    assert again.fingerprint() == expected


def test_graph_target_on_mumbai():
    request = CompileRequest(target=nx.cycle_graph(6), backend=ibm_mumbai())
    assert request.fingerprint() == CYCLE6_MUMBAI


def test_bv3_on_generic_line():
    request = CompileRequest(target=bv_circuit(3), backend=generic_backend(line(4)))
    assert request.fingerprint() == BV3_LINE4


def test_backend_digests():
    mumbai = ibm_mumbai()
    assert backend_digest(mumbai) == MUMBAI_DIGEST
    assert banded_backend_digest(mumbai, 2) == MUMBAI_BANDED2
    assert banded_backend_digest(mumbai, None) == MUMBAI_DIGEST
    assert backend_digest(generic_backend(line(4))) == LINE4_DIGEST
