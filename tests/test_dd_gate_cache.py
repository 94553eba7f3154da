"""Tests for the per-package gate-DD memoization layer."""

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    qft_dynamic,
    qft_static_benchmark,
    teleportation_dynamic,
    teleportation_static,
)
from repro.circuit import QuantumCircuit
from repro.core import check_equivalence
from repro.dd.circuits import circuit_to_unitary_dd, instruction_to_dd
from repro.dd.package import DDPackage


def _repeated_gate_circuit(repetitions: int = 8) -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="repeated")
    for _ in range(repetitions):
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.t(2)
    return circuit


class TestGateCacheStatistics:
    def test_hits_on_repeated_gate_circuits(self):
        package = DDPackage(3)
        circuit_to_unitary_dd(package, _repeated_gate_circuit(8))
        statistics = package.statistics()
        # 24 gate applications but only 3 distinct (gate, qubits) keys.
        assert statistics["gate_cache_misses"] == 3
        assert statistics["gate_cache_hits"] == 21
        assert statistics["gate_cache_entries"] == 3
        assert statistics["gate_cache_hit_ratio"] == pytest.approx(21 / 24)

    def test_no_counting_when_disabled(self):
        package = DDPackage(3, gate_cache=False)
        circuit_to_unitary_dd(package, _repeated_gate_circuit(8))
        statistics = package.statistics()
        assert statistics["gate_cache_hits"] == 0
        assert statistics["gate_cache_misses"] == 0
        assert statistics["gate_cache_entries"] == 0

    def test_statistics_surface_through_equivalence_check(self):
        result = check_equivalence(
            bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011")
        )
        statistics = result.details["dd_statistics"]
        assert "gate_cache_hits" in statistics
        assert "gate_cache_misses" in statistics
        assert statistics["gate_cache_misses"] > 0

    def test_clear_caches_drops_gate_cache(self):
        package = DDPackage(3)
        circuit_to_unitary_dd(package, _repeated_gate_circuit(4))
        assert package.statistics()["gate_cache_entries"] > 0
        package.clear_caches()
        assert package.statistics()["gate_cache_entries"] == 0


class TestGateCacheSemantics:
    def test_repeated_instruction_reuses_the_same_edge(self):
        package = DDPackage(2)
        circuit = QuantumCircuit(2)
        first = circuit.cx(0, 1)
        second = circuit.cx(0, 1)
        edge_one = instruction_to_dd(package, first)
        edge_two = instruction_to_dd(package, second)
        assert edge_one is edge_two

    def test_distinct_qubits_do_not_collide(self):
        package = DDPackage(3)
        circuit = QuantumCircuit(3)
        a = circuit.cx(0, 1)
        b = circuit.cx(1, 2)
        edge_a = instruction_to_dd(package, a)
        edge_b = instruction_to_dd(package, b)
        assert package.statistics()["gate_cache_misses"] == 2
        assert edge_a is not edge_b

    def test_distinct_parameters_do_not_collide(self):
        package = DDPackage(1)
        circuit = QuantumCircuit(1)
        a = circuit.rz(0.25, 0)
        b = circuit.rz(0.50, 0)
        instruction_to_dd(package, a)
        instruction_to_dd(package, b)
        assert package.statistics()["gate_cache_misses"] == 2
        assert package.statistics()["gate_cache_hits"] == 0

    def test_identity_chain_is_memoized(self):
        package = DDPackage(4)
        assert package.identity() is package.identity()
        assert package.statistics()["chain_cache_entries"] >= 1


class TestCachedVsUncachedVerdicts:
    PAIRS = [
        ("bv", lambda: (bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011"))),
        ("teleport", lambda: (teleportation_static(), teleportation_dynamic())),
        ("qft", lambda: (qft_static_benchmark(4), qft_dynamic(4))),
        ("bv-broken", lambda: (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111"))),
    ]

    @pytest.mark.parametrize("label,make", PAIRS, ids=[p[0] for p in PAIRS])
    @pytest.mark.parametrize("method", ["alternating", "construction"])
    def test_identical_criteria_with_and_without_cache(self, label, make, method):
        first, second = make()
        cached = check_equivalence(first, second, method=method, gate_cache=True)
        uncached = check_equivalence(first, second, method=method, gate_cache=False)
        assert cached.criterion is uncached.criterion

    @pytest.mark.parametrize("strategy", ["naive", "one_to_one", "proportional", "lookahead"])
    def test_identical_criteria_across_strategies(self, strategy):
        first, second = qft_static_benchmark(4), qft_dynamic(4)
        cached = check_equivalence(first, second, strategy=strategy, gate_cache=True)
        uncached = check_equivalence(first, second, strategy=strategy, gate_cache=False)
        assert cached.criterion is uncached.criterion
        assert cached.criterion.value == "equivalent"

    def test_cached_run_reports_hits_on_repetitive_pair(self):
        # The lookahead strategy re-evaluates discarded candidates, so even
        # a pair without repeated gates produces cache hits.
        first, second = qft_static_benchmark(4), qft_dynamic(4)
        result = check_equivalence(first, second, strategy="lookahead", gate_cache=True)
        assert result.details["dd_statistics"]["gate_cache_hits"] > 0
