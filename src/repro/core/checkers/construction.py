"""The construction equivalence checker.

Builds both system matrices in full — as decision diagrams or dense numpy
arrays — and compares them.  Conceptually the simplest prover, and the most
memory-hungry: the alternating scheme exists precisely to avoid materializing
both unitaries.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.core.checkers.base import (
    Checker,
    CheckerOutcome,
    criterion_from_scalar,
    exact_comparison_tolerance,
    register,
)
from repro.core.results import EquivalenceCriterion
from repro.dd.circuits import unitary_dd_steps
from repro.dd.package import DDPackage
from repro.simulators.unitary import process_fidelity, unitary_steps

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = ["ConstructionChecker"]


class ConstructionChecker(Checker):
    """Prove or refute equivalence by building both unitaries outright."""

    name: ClassVar[str] = "construction"
    role: ClassVar[str] = "prover"

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Generator[int | None, None, CheckerOutcome]:
        """One step per gate of either build, yielding the DD's node count."""
        config = configuration
        if config.backend == "dd":
            package = DDPackage(first.num_qubits, gate_cache=config.gate_cache)
            unitaries = []
            for circuit in (first, second.remove_final_measurements().inverse()):
                for unitary in unitary_dd_steps(package, circuit):
                    yield package.count_nodes(unitary)
                unitaries.append(unitary)
            unitary_first, unitary_second_inverse = unitaries
            product = package.multiply_matrices(unitary_first, unitary_second_inverse)
            scalar = package.identity_scalar(product, config.tolerance)
            details = {
                "nodes_first": package.count_nodes(unitary_first),
                "nodes_second": package.count_nodes(unitary_second_inverse),
                "final_nodes": package.count_nodes(product),
                "dd_statistics": package.statistics(),
            }
            return CheckerOutcome(criterion_from_scalar(scalar, config.tolerance), details)

        unitaries = []
        for circuit in (first, second):
            for unitary in unitary_steps(circuit):
                yield
            unitaries.append(unitary)
        unitary_first, unitary_second = unitaries
        fidelity = process_fidelity(unitary_first, unitary_second)
        details = {"process_fidelity": fidelity}
        if fidelity > 1.0 - config.tolerance:
            phase_free = np.allclose(
                unitary_first,
                unitary_second,
                atol=exact_comparison_tolerance(config.tolerance),
            )
            criterion = (
                EquivalenceCriterion.EQUIVALENT
                if phase_free
                else EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE
            )
            return CheckerOutcome(criterion, details)
        return CheckerOutcome(EquivalenceCriterion.NOT_EQUIVALENT, details)


register(ConstructionChecker)
