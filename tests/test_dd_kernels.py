"""Tests of the DD kernel overhaul: flyweight edges, memoized
trace/probability queries, and statistics stability."""

import numpy as np
import pytest

from repro.circuit.random_circuits import random_static_circuit
from repro.dd.circuits import circuit_to_unitary_dd
from repro.dd.nodes import M_ONE, M_ZERO, V_ONE, V_ZERO, VEdge
from repro.dd.package import DDPackage
from repro.exceptions import DDError

H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestFlyweightEdges:
    def test_zero_edges_are_singletons(self):
        package = DDPackage(2)
        assert package.zero_vector_edge() is V_ZERO
        assert package.zero_matrix_edge() is M_ZERO
        assert V_ZERO.is_zero and M_ZERO.is_zero
        assert V_ONE.is_terminal and M_ONE.is_terminal and not V_ONE.is_zero

    def test_normalizing_away_returns_the_zero_singleton(self):
        package = DDPackage(1)
        edge = package.make_vector_node(0, (VEdge(None, 1e-14), VEdge(None, -1e-13)))
        assert edge is V_ZERO

    def test_legacy_lookup_and_fast_path_share_one_key_space(self):
        # The kernels build signature keys inline; UniqueTable.lookup derives
        # them via ckey.  Both must intern identical structures to the SAME
        # node, including weights that need rounding and -0.0 collapsing —
        # this is the invariant that lets node identity stand in for
        # structural equality.
        from repro.dd.nodes import VNode

        package = DDPackage(1)
        for weights in [(0.6, 0.8), (1.0, 1.0 / 3.0), (1.0, -1e-14 + 1.0j)]:
            fast = package.make_vector_node(
                0, (VEdge(None, weights[0]), VEdge(None, weights[1]))
            )
            legacy = package._vector_table.lookup(
                0, fast.node.edges, lambda idx, e: VNode(idx, tuple(e))
            )
            assert legacy is fast.node

    def test_nodes_carry_their_signature_hash(self):
        package = DDPackage(1)
        first = package.make_vector_node(0, (VEdge(None, 1.0), VEdge(None, 0.5)))
        second = package.make_vector_node(0, (VEdge(None, 2.0), VEdge(None, 1.0)))
        # Same structure after normalization -> hash-consed to the same node,
        # whose ``hash`` slot was filled in at creation.
        assert first.node is second.node
        assert isinstance(first.node.hash, int)

    def test_gate_cache_statistics_unchanged_by_refactor(self):
        # Mirrors the PR 1 counting contract: 24 gate applications, 3 distinct
        # (gate, qubits) keys.
        from repro.circuit import QuantumCircuit

        circuit = QuantumCircuit(3, name="repeated")
        for _ in range(8):
            circuit.h(0)
            circuit.cx(0, 1)
            circuit.t(2)
        package = DDPackage(3)
        circuit_to_unitary_dd(package, circuit)
        statistics = package.statistics()
        assert statistics["gate_cache_misses"] == 3
        assert statistics["gate_cache_hits"] == 21
        assert statistics["gate_cache_entries"] == 3


class TestBasisStateValidation:
    def test_rejects_non_binary_bits(self):
        package = DDPackage(3)
        with pytest.raises(DDError, match="must be 0 or 1"):
            package.basis_state([0, 1, 2])

    def test_rejects_wrong_length(self):
        package = DDPackage(3)
        with pytest.raises(DDError, match="expected 3 bits"):
            package.basis_state([0, 1])

    def test_accepts_valid_bits(self):
        package = DDPackage(3)
        vector = package.vector_to_numpy(package.basis_state([1, 1, 0]))
        assert vector[0b011] == pytest.approx(1.0)


class TestMemoizedQueries:
    def test_trace_of_identity_is_linear_not_exponential(self):
        # Without the per-node memo this recursion is 2**64 calls.
        package = DDPackage(64)
        assert package.trace(package.identity()) == pytest.approx(2.0**64)

    def test_trace_matches_numpy(self):
        circuit = random_static_circuit(3, 5, seed=11)
        package = DDPackage(3)
        unitary = circuit_to_unitary_dd(package, circuit)
        assert package.trace(unitary) == pytest.approx(
            np.trace(package.matrix_to_numpy(unitary)), abs=1e-8
        )

    def test_probability_of_one_is_linear_on_shared_diagrams(self):
        # A uniform superposition over 48 qubits shares one node per level;
        # without the memo the recursion visits 2**47 paths.
        num_qubits = 48
        package = DDPackage(num_qubits)
        chain = package.operator_chain({qubit: H2 for qubit in range(num_qubits)})
        state = package.multiply_matrix_vector(chain, package.zero_state())
        assert package.probability_of_one(state, 0) == pytest.approx(0.5)
        assert package.probability_of_one(state, num_qubits - 1) == pytest.approx(0.5)
