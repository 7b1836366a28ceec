"""Golden pins for the benchmark's own compile jobs.

Every job of ``perfbench.inputs.compile_matrix_jobs(1)`` and
``search_race_jobs(1)`` is compiled on ``ibm_mumbai`` the way the
benchmark compiles it, but with ``parallel=False`` and a serial portfolio
race, and compared with ``tests/fixtures/bench_outputs.json``: the output
QASM's sha256, qubits, depth, SWAPs and ESP.  The job lists are imported
from ``perfbench/inputs.py``, so the pins follow the benchmark's inputs.

Regenerate the fixture (only for an intended output change) with::

    PYTHONPATH=src python tests/test_bench_outputs.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import inputs  # noqa: E402
from repro.circuit import to_qasm  # noqa: E402
from repro.compile_api import caqr_compile  # noqa: E402
from repro.hardware.mumbai import ibm_mumbai  # noqa: E402

FIXTURE = os.path.join(ROOT, "tests", "fixtures", "bench_outputs.json")
SEED = 1


def jobs():
    """``(workload, job)`` for every pinned benchmark compile."""
    for job in inputs.compile_matrix_jobs(SEED):
        yield "compile-matrix", job
    for job in inputs.search_race_jobs(SEED):
        yield "search-race", job


def _key(workload: str, job) -> str:
    return f"{workload}/{job.label}"


def run_job(job) -> dict:
    """The pinned fields of *job*'s report."""
    options = dict(job.options, parallel=False)
    if options.get("strategy") == "portfolio":
        options["portfolio_workers"] = 1
    report = caqr_compile(inputs.circuit(job.name), ibm_mumbai(), **options)
    esp = None if report.sim_stats is None else report.sim_stats.values.get("esp")
    return {
        "sha256": hashlib.sha256(to_qasm(report.circuit).encode()).hexdigest(),
        "qubits": report.metrics.qubits_used,
        "depth": report.metrics.depth,
        "swaps": report.metrics.swap_count,
        "esp": esp,
    }


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_job(golden):
    assert sorted(golden) == sorted(_key(*pair) for pair in jobs())


@pytest.mark.slow
@pytest.mark.parametrize("workload,job", list(jobs()), ids=lambda v: getattr(v, "label", v))
def test_job_matches_golden(golden, workload, job):
    assert run_job(job) == golden[_key(workload, job)]


if __name__ == "__main__":
    fixture = {_key(workload, job): run_job(job) for workload, job in jobs()}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(fixture, handle, indent=1, sort_keys=True)
        handle.write("\n")
