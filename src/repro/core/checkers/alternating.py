"""The alternating (QCEC-style) equivalence checker.

Keeps the product ``E = U * U'^dagger`` close to the identity by interleaving
gate applications from both circuits according to
``Configuration.strategy`` (``naive``, ``one_to_one``, ``proportional``,
``lookahead``); see :mod:`repro.core.strategies`.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.checkers.base import (
    Checker,
    CheckerOutcome,
    criterion_from_matrix,
    criterion_from_scalar,
    gate_lists,
    inverse_instruction,
    register,
)
from repro.core.strategies import LEFT, alternating_schedule
from repro.dd.circuits import instruction_to_dd
from repro.dd.package import DDPackage
from repro.simulators.unitary import embed_gate_matrix

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = ["AlternatingChecker"]


class AlternatingChecker(Checker):
    """Prove or refute equivalence via the alternating scheme."""

    name: ClassVar[str] = "alternating"
    role: ClassVar[str] = "prover"
    uses_strategy: ClassVar[bool] = True

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Generator[int | None, None, CheckerOutcome]:
        if configuration.backend == "dd":
            return (yield from self._dd_steps(first, second, configuration))
        return (yield from self._dense_steps(first, second, configuration))

    def _dd_steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        config: "Configuration",
    ) -> Generator[int, None, CheckerOutcome]:
        """One step per gate application, yielding the product's node count."""
        num_qubits = first.num_qubits
        package = DDPackage(num_qubits, gate_cache=config.gate_cache)
        left, right = gate_lists(first, second)
        product = package.identity()
        max_nodes = package.count_nodes(product)
        left_index = 0
        right_index = 0

        def apply_left(current):
            nonlocal left_index
            gate_dd = instruction_to_dd(package, left[left_index])
            left_index += 1
            return package.multiply_matrices(gate_dd, current)

        def apply_right(current):
            nonlocal right_index
            gate_dd = instruction_to_dd(package, inverse_instruction(right[right_index]))
            right_index += 1
            return package.multiply_matrices(current, gate_dd)

        if config.strategy == "lookahead":
            while left_index < len(left) or right_index < len(right):
                if left_index >= len(left):
                    product = apply_right(product)
                elif right_index >= len(right):
                    product = apply_left(product)
                else:
                    saved_left, saved_right = left_index, right_index
                    candidate_left = apply_left(product)
                    left_after = left_index
                    left_index = saved_left
                    candidate_right = apply_right(product)
                    right_after = right_index
                    if package.count_nodes(candidate_left) <= package.count_nodes(candidate_right):
                        product = candidate_left
                        left_index, right_index = left_after, saved_right
                    else:
                        product = candidate_right
                        left_index, right_index = saved_left, right_after
                nodes = package.count_nodes(product)
                max_nodes = max(max_nodes, nodes)
                yield nodes
        else:
            for token in alternating_schedule(len(left), len(right), config.strategy):
                product = apply_left(product) if token == LEFT else apply_right(product)
                nodes = package.count_nodes(product)
                max_nodes = max(max_nodes, nodes)
                yield nodes

        scalar = package.identity_scalar(product, config.tolerance)
        details = {
            "max_nodes": max_nodes,
            "final_nodes": package.count_nodes(product),
            "num_gates_first": len(left),
            "num_gates_second": len(right),
            "dd_statistics": package.statistics(),
        }
        return CheckerOutcome(criterion_from_scalar(scalar, config.tolerance), details)

    def _dense_steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        config: "Configuration",
    ) -> Generator[None, None, CheckerOutcome]:
        num_qubits = first.num_qubits
        dim = 1 << num_qubits
        left, right = gate_lists(first, second)
        product = np.eye(dim, dtype=complex)

        left_matrices = (_dense_gate(inst, num_qubits) for inst in left)
        right_matrices = (
            _dense_gate(inverse_instruction(inst), num_qubits) for inst in right
        )
        for token in alternating_schedule(len(left), len(right), _dense_strategy(config)):
            if token == LEFT:
                product = next(left_matrices) @ product
            else:
                product = product @ next(right_matrices)
            yield

        details = {"num_gates_first": len(left), "num_gates_second": len(right)}
        return CheckerOutcome(criterion_from_matrix(product, config.tolerance), details)


def _dense_strategy(config: "Configuration") -> str:
    # Lookahead is a DD-size heuristic; on the dense backend it degenerates
    # to the proportional schedule.
    if config.strategy == "lookahead":
        return "proportional"
    return config.strategy


def _dense_gate(instruction, num_qubits: int) -> np.ndarray:
    gate = instruction.operation
    if gate.num_qubits == 0:
        return complex(gate.matrix[0, 0]) * np.eye(1 << num_qubits, dtype=complex)
    return embed_gate_matrix(gate.matrix, instruction.qubits, num_qubits)


register(AlternatingChecker)
