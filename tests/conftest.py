"""Shared fixtures."""

import pytest

import repro.parallel


@pytest.fixture
def two_workers(monkeypatch):
    """Pool width 2 wherever the test runs: the engines read their width
    from :func:`repro.parallel.default_workers`, i.e. the affinity mask."""
    monkeypatch.setattr(repro.parallel.os, "sched_getaffinity", lambda pid: {0, 1})
