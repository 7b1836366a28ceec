"""The benchmark's inputs, generated from the workload seed.

The program under test receives only what these functions build: named
circuits with fixed compile options, and for the serve workloads a
seeded stream of hit and miss requests.  The seed picks the order of the
compile jobs, the hit-key order, the miss circuits and the hit/miss mix.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import networkx as nx

from repro.circuit.random import random_circuit
from repro.hardware.backends import generic_backend
from repro.hardware.mumbai import ibm_mumbai
from repro.hardware.topologies import line
from repro.service.service import CompileRequest
from repro.workloads.bv import bv_circuit
from repro.workloads.qaoa import qaoa_maxcut_circuit
from repro.workloads.registry import get_benchmark

MATRIX_CIRCUITS = ["bv16", "qaoa16-0.3", "multiply_13", "cc_13", "system_9"]
MATRIX_MODES = ["min_depth", "min_swap", "max_reuse", "qubit_budget"]
#: Feasible qubit_budget limits (the smallest reachable widths are
#: bv16 2, qaoa16-0.3 7, multiply_13 8, cc_13 2, system_9 3; a limit of
#: 4 raises ReuseError on qaoa16-0.3 and multiply_13).
QUBIT_BUDGETS = {"bv16": 4, "qaoa16-0.3": 8, "multiply_13": 9, "cc_13": 4, "system_9": 4}

CHAIN_CIRCUITS = ["bv16", "qaoa16-0.3", "qaoa-tree15"]
PORTFOLIO_CIRCUITS = ["bv16", "qaoa16-0.3"]
PORTFOLIO_OBJECTIVES = ["qubits", "depth"]

#: Hit keys: large mumbai-mapped reports, so decode and transport show;
#: system_9 is the one that routes with SWAPs.
SERVE_HIT_KEYS = [f"bv{width}" for width in range(5, 13)] + ["system_9"]
SERVE_MISS_SHARE = 0.10
#: Fleet hit keys: small reports, so decode stays cheap and the gateway
#: hop dominates; each calibration seed is its own shard (ring key).
#: BV routes without SWAPs on a line, so system_9 joins on one
#: calibration: the quality sums then guard the router too.
FLEET_HIT_KEYS = ["bv6", "bv8"]
FLEET_SWAP_KEY = "system_9"
FLEET_CALIBRATIONS = 6
FLEET_LINE_QUBITS = 10
FLEET_MISS_SHARE = 0.05
#: Each miss circuit is requested under both modes, so work the modes of
#: one circuit share (the baseline compile, for one) can show.
MISS_MODES = ["min_swap", "max_reuse"]
MISS_QUBITS = 6
MISS_GATES = 16


def circuit(name: str):
    """A named input circuit: ``bvN``, ``qaoa-tree15`` or a registry name."""
    if name.startswith("bv") and name[2:].isdigit():
        return bv_circuit(int(name[2:]))
    if name == "qaoa-tree15":
        return qaoa_maxcut_circuit(nx.balanced_tree(2, 3))
    return get_benchmark(name)


@dataclass
class Job:
    """One in-process compile: a named circuit and its ``caqr_compile`` options."""

    label: str
    name: str
    options: Dict[str, Any] = field(default_factory=dict)


#: The in-process cache key the compile workloads prime during set-up and
#: then hit, so that ``hit_*`` has a measured value on every workload.
#: One key: keys of different report sizes have different hit costs, and
#: a median that falls between two of them jumps run to run.
LOCAL_HIT_JOB = Job("bv8/min_swap", "bv8", {"mode": "min_swap"})


def compile_matrix_jobs(seed: int) -> List[Job]:
    jobs = []
    for name in MATRIX_CIRCUITS:
        for mode in MATRIX_MODES:
            options = {"mode": mode, "strategy": "auto"}
            if mode == "qubit_budget":
                options["qubit_limit"] = QUBIT_BUDGETS[name]
            jobs.append(Job(f"{name}/{mode}", name, options))
    random.Random(seed).shuffle(jobs)
    return jobs


def search_race_jobs(seed: int) -> List[Job]:
    """Chain and portfolio compiles in a fixed order.

    The portfolio re-orders its lanes by the win rate it has seen so far
    in the process, so each compile's time depends on the ones before
    it; a seeded order would turn the seed into run-to-run spread.  The
    seed still picks the warm-hit order.
    """
    del seed
    jobs = [Job(f"{name}/chain", name, {"strategy": "chain"}) for name in CHAIN_CIRCUITS]
    jobs += [
        Job(f"{name}/portfolio-{objective}", name,
            {"strategy": "portfolio", "objective": objective})
        for name in PORTFOLIO_CIRCUITS
        for objective in PORTFOLIO_OBJECTIVES
    ]
    return jobs


# -- serve workloads -------------------------------------------------------------


@dataclass
class Op:
    """One request of a serve workload and what it should be."""

    kind: str  # "hit" or "miss"
    request: CompileRequest
    source: Any  # the uncompiled circuit, for the output checks


class OpStream:
    """Seeded, thread-safe stream of hit and miss requests.

    The stream is a pure function of its seed: the *n*-th request is the
    same whichever client thread takes it.  It comes in blocks that hold
    exactly one miss circuit (under every miss mode) at a seeded place
    among seeded hits, so the miss share is exact: a miss costs tens of
    hits, and a share that varied by chance would move the throughput
    from seed to seed.  Each miss circuit goes to one of *miss_backends*,
    chosen by the seed.
    """

    def __init__(self, seed: int, hits: List[Op], miss_share: float,
                 miss_backends: List[Any]):
        self._rng = random.Random(seed)
        self._seed = seed
        self._hits = hits
        self._block_size = round(len(MISS_MODES) / miss_share)
        self.miss_backends = miss_backends
        self._pending: List[Op] = []
        self._groups = 0
        self._lock = threading.Lock()

    def miss_group(self, backend=None) -> List[Op]:
        """A fresh miss circuit on *backend* (else a seeded pick), once per miss mode."""
        index = self._groups
        self._groups += 1
        source = random_circuit(
            MISS_QUBITS,
            MISS_GATES,
            seed=self._seed * 100_003 + index,
            two_qubit_fraction=0.4,
            measure=True,
        )
        source.name = f"miss{index}"
        if backend is None:
            backend = self._rng.choice(self.miss_backends)
        return [
            Op("miss", CompileRequest(target=source, backend=backend, mode=mode), source)
            for mode in MISS_MODES
        ]

    def next(self) -> Op:
        with self._lock:
            if not self._pending:
                hits = self._block_size - len(MISS_MODES)
                self._pending = [self._rng.choice(self._hits) for _ in range(hits)]
                at = self._rng.randrange(hits + 1)
                self._pending[at:at] = self.miss_group()
            return self._pending.pop(0)


def serve_mixed_inputs(seed: int) -> Tuple[List[Op], OpStream]:
    """Large mumbai-mapped hit keys plus small random misses."""
    backend = ibm_mumbai()
    hits = []
    for name in SERVE_HIT_KEYS:
        source = circuit(name)
        hits.append(Op("hit", CompileRequest(target=source, backend=backend, mode="min_swap"), source))
    return hits, OpStream(seed, hits, SERVE_MISS_SHARE, [backend])


def fleet_shard_inputs(seed: int) -> Tuple[List[Op], OpStream]:
    """Small hit keys over six line-backend calibrations, plus random misses."""
    backends = [
        generic_backend(line(FLEET_LINE_QUBITS), name=f"line{FLEET_LINE_QUBITS}-cal{k}",
                        seed=1000 + k)
        for k in range(FLEET_CALIBRATIONS)
    ]
    keys = [(name, backend) for backend in backends for name in FLEET_HIT_KEYS]
    keys.append((FLEET_SWAP_KEY, backends[0]))
    hits = []
    for name, backend in keys:
        source = circuit(name)
        request = CompileRequest(target=source, backend=backend, mode="min_swap")
        hits.append(Op("hit", request, source))
    return hits, OpStream(seed, hits, FLEET_MISS_SHARE, backends)


#: The workloads served over HTTP and their input builders.
SERVED_INPUTS = {"serve-mixed": serve_mixed_inputs, "fleet-shard": fleet_shard_inputs}


def greedy_width(source) -> int:
    """The greedy QS width of *source*: what the chain engine must beat."""
    from repro.core.qs_caqr import QSCaQR

    return QSCaQR().reduce_to(source, 1).qubits


def seeded_order(seed: int, items: List[Any]) -> List[Any]:
    """*items* in a seed-chosen order (used for the hit-key priming order)."""
    ordered = list(items)
    random.Random(seed ^ 0x5EED).shuffle(ordered)
    return ordered

