"""Unit tests for ``scripts/bench_ledger.py`` on synthetic perfbench outputs."""

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
_spec = importlib.util.spec_from_file_location(
    "bench_ledger", os.path.join(REPO_ROOT, "scripts", "bench_ledger.py")
)
bench_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ledger)


def _write_run(directory, seed, value, trace=0, digest="abc123", workload="search-race"):
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": 15,
        "trace": trace,
        "src_digest": digest,
        "git_sha": "f00d",
        "nproc": 2,
        "python": "3.11.7",
    }
    result = {
        "correct": True,
        "attempted": 7,
        "failed": 0,
        "metrics": {
            "compile_geomean_s": {"value": value, "unit": "s"},
            "qubits_sum": {"value": 61, "unit": "count"},
        },
    }
    path = directory / f"{workload}-{seed}-{trace}.txt"
    path.write_text(
        "worker chatter\nrun record: " + json.dumps(record) + "\n" + json.dumps(result) + "\n"
    )


def test_entry_has_record_and_quartiles(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    for seed, value in [(1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]:
        _write_run(runs, seed, value)
    _write_run(runs, 9, 100.0, trace=1)  # traced runs are skipped
    out = tmp_path / "results"
    assert bench_ledger.main([str(runs), "--label", "parent", "--out", str(out)]) == 0
    ledger = json.loads((out / "BENCH_search-race.json").read_text())
    assert len(ledger) == 1
    entry = ledger[0]
    assert entry["label"] == "parent"
    assert entry["record"] == {
        "git_sha": "f00d",
        "src_digest": "abc123",
        "nproc": 2,
        "python": "3.11.7",
        "seeds": [1, 2, 3, 4],
    }
    assert (entry["runs"], entry["attempted"], entry["failed"]) == (4, 28, 0)
    geomean = entry["metrics"]["compile_geomean_s"]
    assert geomean["unit"] == "s"
    assert geomean["median"] == 3.5
    assert geomean["q1"] == pytest.approx(2.25)
    assert geomean["q3"] == pytest.approx(4.75)
    assert entry["metrics"]["qubits_sum"]["median"] == 61


def _fold(tmp_path, out, digest, value, label, workloads=("search-race",)):
    runs = tmp_path / f"runs-{digest}-{value}-{label}"
    runs.mkdir()
    for workload in workloads:
        _write_run(runs, 1, value, digest=digest, workload=workload)
    return bench_ledger.main([str(runs), "--label", label, "--out", str(out)])


def test_entries_accumulate_per_digest(tmp_path):
    out = tmp_path / "results"
    for digest, value, label in [
        ("before", 3.0, "parent"), ("after", 2.0, "batch 1"), ("after", 1.0, "batch 2"),
    ]:
        assert _fold(tmp_path, out, digest, value, label) == 0
    ledger = json.loads((out / "BENCH_search-race.json").read_text())
    assert [(e["record"]["src_digest"], e["label"]) for e in ledger] == [
        ("before", "parent"), ("after", "batch 1"), ("after", "batch 2"),
    ]
    assert [e["metrics"]["compile_geomean_s"]["median"] for e in ledger] == [3.0, 2.0, 1.0]
    # the same (digest, label) again is refused
    with pytest.raises(SystemExit, match="already holds digest after labelled 'batch 1'"):
        _fold(tmp_path, out, "after", 0.5, "batch 1")


def test_rewriting_an_existing_key_fails_and_writes_nothing(tmp_path):
    out = tmp_path / "results"
    assert _fold(tmp_path, out, "abc", 2.0, "after") == 0
    before = {p.name: p.read_text() for p in out.iterdir()}
    # compile-matrix is new, search-race repeats a key: neither file is written
    with pytest.raises(SystemExit, match="already holds digest abc labelled 'after'"):
        _fold(tmp_path, out, "abc", 1.0, "after", ("compile-matrix", "search-race"))
    assert {p.name: p.read_text() for p in out.iterdir()} == before


def test_mixed_code_versions_are_refused(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    _write_run(runs, 1, 2.0, digest="one")
    _write_run(runs, 2, 2.0, digest="two")
    with pytest.raises(SystemExit, match="src_digest"):
        bench_ledger.main([str(runs), "--out", str(tmp_path / "results")])


def test_truncated_output_is_refused(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "broken.txt").write_text("{}\n")
    with pytest.raises(SystemExit, match="run record"):
        bench_ledger.main([str(runs), "--out", str(tmp_path / "results")])
