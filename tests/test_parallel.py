"""Tests for the one process-pool layer (``repro.parallel``)."""

import ast
import inspect
import os
import signal
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

import repro.core.session as session
import repro.core.sr_caqr as sr_caqr
import repro.parallel as parallel
import repro.transpiler.sabre as sabre
from repro.circuit.random import random_circuit
from repro.compile_api import caqr_compile
from repro.core.qs_caqr import QSCaQR
from repro.core.session import ReuseSession
from repro.core.sr_caqr import SRCaQR
from repro.core.sr_commuting import SRCaQRCommuting
from repro.core.tradeoff import sweep_commuting, sweep_regular
from repro.hardware import ibm_mumbai
from repro.exceptions import ServiceError
from repro.parallel import WorkerPool, chunks, fans_out, pooled_map
from repro.sim.batch import run_batched_counts
from repro.stats import Stats
from repro.transpiler import sabre_layout, transpile
from repro.transpiler.basis import decompose_to_two_qubit
from repro.transpiler.sabre import RoutingProblem
from repro.workloads import bv_circuit

SRC = Path(__file__).resolve().parents[1] / "src"
PARALLEL_MODULE = SRC / "repro" / "parallel.py"


def _square(x):
    return x * x


def _square_chunk(payload):
    offset, chunk = payload
    return [x * x + offset for x in chunk]


def _pid(_):
    return os.getpid()


def _pools_inside(_):
    """Runs in a pool worker: would a forced fan-out pool here?"""
    return fans_out(True, 4, 2)


class TestFanOutRule:
    def test_false_never_pools(self):
        assert not fans_out(False, 100, 4, workload=10**9)

    def test_true_forces_the_pool(self):
        assert fans_out(True, 2, 1, chunked=True, workload=0, threshold=10**9)

    def test_one_item_stays_serial(self):
        assert not fans_out(True, 1, 4)
        assert not fans_out(None, 1, 4)

    def test_allow_needs_more_than_one_worker(self):
        assert not fans_out(None, 10, 1)
        assert fans_out(None, 2, 2)

    def test_chunked_floor_is_two_items_per_worker(self):
        assert not fans_out(None, 7, 4, chunked=True)
        assert fans_out(None, 8, 4, chunked=True)
        # per-item maps need only two items
        assert fans_out(None, 2, 4)

    def test_workload_threshold(self):
        assert not fans_out(None, 8, 2, chunked=True, workload=99, threshold=100)
        assert fans_out(None, 8, 2, chunked=True, workload=100, threshold=100)


def _no_pools(*args, **kwargs):
    raise AssertionError("a process pool was started")


class TestWidth:
    """The default width is the CPUs the calling thread may run on."""

    @pytest.fixture
    def pinned(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})

    def test_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
        assert parallel.default_workers() == 3

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(parallel.os, "sched_getaffinity")
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 3)
        assert parallel.default_workers() == 3

    def test_caps_at_eight(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(32)))
        assert parallel.default_workers() == 8

    def test_pinned_caller_gets_one_worker(self, pinned):
        assert parallel.default_workers() == 1

    def test_pinned_transpile_starts_no_pool(self, pinned, monkeypatch):
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pools)
        result = transpile(bv_circuit(16), ibm_mumbai())
        assert result.qubits_used >= 16

    def test_forced_fan_out_still_pools(self, pinned):
        assert fans_out(True, 4, parallel.default_workers())
        stats = Stats()
        sabre_layout(bv_circuit(6), ibm_mumbai().coupling, parallel=True, stats=stats)
        assert stats.counters["parallel_trials"] == 4

    def test_engines_read_the_width_when_built(self, monkeypatch):
        """Not at import: perfbench pins its timed pass to one core after
        importing the package, and its engines must see that core."""
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert ReuseSession(bv_circuit(4)).workers == 3

    @pytest.mark.parametrize(
        "target",
        [bv_circuit(6), nx.random_regular_graph(3, 8, seed=2)],
        ids=["bv6", "qaoa8"],
    )
    @pytest.mark.parametrize(
        "mode", ["min_depth", "min_swap", "max_reuse", "qubit_budget"]
    )
    def test_pinned_compile_starts_no_pool(self, pinned, monkeypatch, target, mode):
        """A caller pinned to one core, at its default ``parallel``, starts
        no pool in any mode, even with every workload floor at zero."""
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pools)
        monkeypatch.setattr(session, "POTENTIAL_WORKLOAD_THRESHOLD", 0)
        limit = 5 if mode == "qubit_budget" else None
        report = caqr_compile(target, ibm_mumbai(), mode=mode, qubit_limit=limit)
        assert report.metrics.qubits_used >= 2


class TestOrderedMaps:
    @pytest.mark.parametrize("count", [1, 2, 7, 8])
    def test_chunks_cover_the_items_in_order(self, count):
        items = list(range(count))
        parts = chunks(items, 2)
        assert len(parts) == min(2, count)
        assert [x for part in parts for x in part] == items

    @pytest.mark.parametrize("count", [1, 2, 7, 8])
    def test_pooled_map_equals_serial_map(self, count):
        items = list(range(count))
        assert pooled_map(_square, items, 2) == [_square(x) for x in items]

    @pytest.mark.parametrize("count", [1, 2, 7, 8])
    def test_owned_chunk_map_equals_serial_map(self, count):
        """Chunks on a kept pool, as the QS lookahead maps them."""
        items = list(range(count))
        pool = WorkerPool(2)
        try:
            payloads = [(3, chunk) for chunk in chunks(items, 2)]
            parts = pool.map(_square_chunk, payloads)
            assert [x for part in parts for x in part] == [x * x + 3 for x in items]
            assert pool._pool is not None
        finally:
            pool.shutdown()
        assert pool._pool is None


class TestNesting:
    def test_fan_out_inside_a_pool_worker_runs_serial(self):
        assert fans_out(True, 4, 2), "the test process is no pool worker"
        assert pooled_map(_pools_inside, [0, 1], 2) == [False, False]

    def test_worker_pool_workers_are_marked(self):
        pool = WorkerPool(1)
        try:
            assert pool.map(_pools_inside, [0]) == [False]
        finally:
            pool.shutdown()


class TestWorkerPool:
    def test_crash_respawn_drill(self):
        stats = Stats()
        pool = WorkerPool(1, stats=stats)
        try:
            assert pool.map(_square, [3]) == [9]
            with pytest.raises(ServiceError, match="worker pool died"):
                pool.map(os._exit, [17])
            assert stats.counters["worker_respawns"] == parallel.MAX_RESPAWNS + 1
            # the pool heals: the next map spawns fresh workers
            assert pool.map(_square, [4]) == [16]
            assert stats.counters["worker_pool_spawns"] == parallel.MAX_RESPAWNS + 2
        finally:
            pool.shutdown()

    def test_a_worker_killed_between_maps_does_not_break_the_next(self):
        stats = Stats()
        pool = WorkerPool(1, stats=stats)
        try:
            [pid] = pool.map(_pid, [0])
            executor = pool._pool
            os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not executor._broken:  # the executor notices the death
                assert time.monotonic() < deadline, "the pool never broke"
                time.sleep(0.01)
            # submitting to the broken pool fails at once: map respawns
            assert pool.map(_square, [5]) == [25]
            assert stats.counters["worker_respawns"] == 1
            assert stats.counters["worker_pool_spawns"] == 2
        finally:
            pool.shutdown()

    def test_results_come_back_in_input_order(self):
        stats = Stats()
        pool = WorkerPool(2, stats=stats)
        items = list(range(7))
        try:
            assert pool.map(_square, items) == [_square(x) for x in items]
            assert pool.map(_square, items[:3]) == [0, 1, 4]
            assert stats.counters["worker_pool_spawns"] == 1
            assert stats.counters["worker_tasks"] == 10
        finally:
            pool.shutdown()

    def test_task_error_propagates(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(TypeError):
                pool.map(_square, [1, "x"])
            assert pool.map(_square, [5]) == [25]
        finally:
            pool.shutdown()


class TestSerialCompileStartsNoPool:
    @pytest.mark.parametrize(
        "target, mode",
        [
            (bv_circuit(16), "min_depth"),
            (bv_circuit(16), "min_swap"),
            (nx.random_regular_graph(3, 16, seed=3), "min_swap"),
        ],
        ids=["bv16-min_depth", "bv16-min_swap", "qaoa16-min_swap"],
    )
    def test_parallel_false_starts_no_pool(self, monkeypatch, target, mode):
        """``parallel=False`` reaches every fan-out, the layout search's
        and the SR routers' QS sweeps included."""

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _no_pools)
        # small circuits would stay under the lookahead's threshold
        monkeypatch.setattr(session, "POTENTIAL_WORKLOAD_THRESHOLD", 0)
        report = caqr_compile(
            target, ibm_mumbai(), mode=mode, parallel=False, cache=None
        )
        assert report.metrics.qubits_used >= 2


class TestPerCallFloors:
    """The layout search and the SR trial grid start a per-call pool at
    ``parallel=None`` only at their workload floor; ``True`` still forces
    it, ``False`` never pools, and a pooled run equals the serial one."""

    @pytest.fixture
    def pools(self, monkeypatch, two_workers):
        started = []
        real = parallel.new_pool

        def _counting(workers):
            started.append(workers)
            return real(workers)

        monkeypatch.setattr(parallel, "new_pool", _counting)
        return started

    @staticmethod
    def _small():
        return bv_circuit(6)

    @staticmethod
    def _large():
        """136 routed two-qubit gates: 4 trials (or grid cells) reach both floors."""
        return random_circuit(8, 200, seed=3, two_qubit_fraction=0.7, measure=True)

    @staticmethod
    def _layout(circuit, parallel_flag):
        stats = Stats()
        layout = sabre_layout(
            circuit, ibm_mumbai().coupling, parallel=parallel_flag, stats=stats
        )
        return layout.as_dict(), stats.counters

    @staticmethod
    def _route(circuit, parallel_flag):
        router = SRCaQR(ibm_mumbai(), parallel=parallel_flag)
        return router.run(circuit, trials=4, qs_assist=False), router.stats.counters

    def test_the_circuits_straddle_the_floors(self):
        for circuit, above in ((self._small(), False), (self._large(), True)):
            routed = sum(RoutingProblem(circuit, ibm_mumbai().coupling).routes)
            assert (4 * routed >= sabre.LAYOUT_PARALLEL_THRESHOLD) is above
            gates = decompose_to_two_qubit(circuit).two_qubit_gate_count()
            assert (4 * gates >= sr_caqr.SR_GRID_PARALLEL_THRESHOLD) is above

    def test_below_floor_layout_search_starts_no_pool(self, pools):
        _, counters = self._layout(self._small(), None)
        assert pools == []
        assert counters["serial_trials"] == 4
        assert "parallel_trials" not in counters

    def test_below_floor_sr_grid_starts_no_pool(self, pools):
        _, counters = self._route(self._small(), None)
        assert pools == []
        assert "parallel_trials" not in counters

    def test_above_floor_layout_search_pools_and_matches_serial(self, pools):
        layout, counters = self._layout(self._large(), None)
        assert pools == [2]
        assert counters["parallel_trials"] == 4
        assert layout == self._layout(self._large(), False)[0]
        assert pools == [2]

    def test_above_floor_sr_grid_pools_and_matches_serial(self, pools):
        result, counters = self._route(self._large(), None)
        assert pools == [2]
        assert counters["parallel_trials"] == 4
        assert result == self._route(self._large(), False)[0]
        assert pools == [2]

    @pytest.mark.parametrize("run", ["_layout", "_route"])
    def test_the_floor_is_inclusive(self, pools, monkeypatch, run):
        """A workload exactly at the floor pools, one short of it does not."""
        circuit = self._small()
        if run == "_layout":
            module, name = sabre, "LAYOUT_PARALLEL_THRESHOLD"
            workload = 4 * sum(RoutingProblem(circuit, ibm_mumbai().coupling).routes)
        else:
            module, name = sr_caqr, "SR_GRID_PARALLEL_THRESHOLD"
            workload = 4 * decompose_to_two_qubit(circuit).two_qubit_gate_count()
        monkeypatch.setattr(module, name, workload + 1)
        getattr(self, run)(circuit, None)
        assert pools == []
        monkeypatch.setattr(module, name, workload)
        getattr(self, run)(circuit, None)
        assert pools == [2]

    @pytest.mark.parametrize("run", ["_layout", "_route"])
    def test_true_forces_and_false_never_pools(self, pools, run):
        _, counters = getattr(self, run)(self._small(), True)
        assert pools == [2]
        assert counters["parallel_trials"] == 4
        _, counters = getattr(self, run)(self._large(), False)
        assert pools == [2]
        assert "parallel_trials" not in counters


class TestOwnedPoolsClose:
    """A QS sweep's lookahead pool is shut down by the time the sweep
    returns, not when its session is garbage collected."""

    @pytest.fixture
    def executors(self, monkeypatch):
        started = []
        real = parallel.new_pool

        def _recording(workers):
            executor = real(workers)
            started.append(executor)
            return executor

        monkeypatch.setattr(parallel, "new_pool", _recording)
        return started

    def test_forced_sweep_regular_closes_its_lookahead_pool(
        self, executors, two_workers
    ):
        points = sweep_regular(bv_circuit(10), parallel=True)
        assert len(points) > 1
        assert executors, "the forced sweep started no pool"
        assert all(executor._shutdown_thread for executor in executors)


class TestOneMeaningOfParallel:
    """Every fan-out takes one ``parallel`` (``fans_out``'s tri-state,
    default ``None``); width and workload floors are not arguments."""

    ENGINES = [
        QSCaQR, ReuseSession, SRCaQR,
        SRCaQRCommuting, sweep_regular, sweep_commuting, run_batched_counts,
        sabre_layout, transpile,
    ]

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.__name__)
    def test_signature(self, engine):
        params = inspect.signature(engine).parameters
        assert "max_workers" not in params
        assert "parallel_threshold" not in params
        assert params["parallel"].default is None

    def test_sr_run_takes_the_routers_parallel(self):
        params = inspect.signature(SRCaQR.run).parameters
        assert "parallel" not in params
        assert "max_workers" not in params
        assert "parallel_threshold" not in params


def _names(tree):
    """Every identifier a module mentions: names, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.split(".")[-1]


class TestLayering:
    def _modules(self):
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            yield rel, set(_names(ast.parse(path.read_text(encoding="utf-8"))))

    def test_process_pools_come_from_two_modules(self):
        owners = {
            rel for rel, names in self._modules() if "ProcessPoolExecutor" in names
        }
        assert owners == {"repro/parallel.py"}

    def test_cpu_count_is_read_in_one_place(self):
        readers = {rel for rel, names in self._modules() if "cpu_count" in names}
        assert readers == {"repro/parallel.py"}

    def test_affinity_is_read_in_one_place(self):
        readers = {
            rel for rel, names in self._modules() if "sched_getaffinity" in names
        }
        assert readers == {"repro/parallel.py"}

    def test_pools_are_built_by_two_maps(self):
        """``new_pool`` is called only by the per-call ``pooled_map`` and
        the kept ``WorkerPool``: no third pool shape."""
        tree = ast.parse(PARALLEL_MODULE.read_text(encoding="utf-8"))
        users = {
            node.name
            for node in tree.body
            if getattr(node, "name", None) != "new_pool"
            and "new_pool" in set(_names(node))
        }
        assert users == {"pooled_map", "WorkerPool"}

    def test_parallel_imports_only_stdlib_and_exceptions(self):
        tree = ast.parse(PARALLEL_MODULE.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in repro.parallel"
                modules.add(node.module)
        assert modules, "no imports found: the guard is not reading the module"
        for module in modules:
            if module == "repro.exceptions":
                continue
            top = module.split(".")[0]
            assert top == "__future__" or top in sys.stdlib_module_names, (
                f"repro.parallel imports {module}; it may use only the "
                "standard library and repro.exceptions"
            )
