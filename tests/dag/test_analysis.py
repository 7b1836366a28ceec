"""Tests for DAG timing analysis (ASAP/ALAP, critical path, slack)."""

from repro.circuit import QuantumCircuit
from repro.dag import (
    DAGCircuit,
    alap_finish_times,
    asap_finish_times,
    critical_path_length,
    dag_depth,
    dag_duration,
    node_weight_duration,
    slack,
)


def diamond_circuit() -> QuantumCircuit:
    """q0 chain of 3 gates; q1 single gate joining late."""
    circuit = QuantumCircuit(2)
    circuit.h(0)       # n0
    circuit.x(0)       # n1
    circuit.h(1)       # n2 (off critical path)
    circuit.cx(0, 1)   # n3
    return circuit


class TestASAPALAP:
    def test_asap_levels(self):
        dag = DAGCircuit.from_circuit(diamond_circuit())
        asap = asap_finish_times(dag)
        assert asap[0] == 1
        assert asap[1] == 2
        assert asap[2] == 1
        assert asap[3] == 3

    def test_alap_levels(self):
        dag = DAGCircuit.from_circuit(diamond_circuit())
        alap = alap_finish_times(dag)
        assert alap[3] == 3
        assert alap[2] == 2  # h(1) can slide one level later

    def test_slack_identifies_critical_path(self):
        dag = DAGCircuit.from_circuit(diamond_circuit())
        s = slack(dag)
        assert s[0] == 0 and s[1] == 0 and s[3] == 0
        assert s[2] == 1

    def test_empty_dag(self):
        dag = DAGCircuit.from_circuit(QuantumCircuit(2))
        assert critical_path_length(dag) == 0


class TestCriticalPath:
    def test_depth_matches_circuit_depth(self):
        circuit = diamond_circuit()
        dag = DAGCircuit.from_circuit(circuit)
        assert dag_depth(dag) == circuit.depth() == 3

    def test_duration_weighting(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)        # 160 dt
        circuit.cx(0, 1)    # 1760 dt
        dag = DAGCircuit.from_circuit(circuit)
        assert dag_duration(dag) == 160 + 1760

    def test_virtual_node_weight_counts(self):
        dag = DAGCircuit.from_circuit(diamond_circuit())
        virtual = dag.add_virtual_node(weight=100, tag="reuse")
        dag.add_edge(1, virtual)
        dag.add_edge(virtual, 3)
        assert critical_path_length(dag, node_weight_duration) >= 100

    def test_directive_has_zero_weight(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier()
        circuit.h(1)
        dag = DAGCircuit.from_circuit(circuit)
        assert dag_depth(dag) == 2
