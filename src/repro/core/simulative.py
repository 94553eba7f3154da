"""Simulative (random-stimuli) equivalence checking.

Instead of comparing the full system matrices, both circuits are simulated on
a number of randomly chosen input states and the fidelity of the resulting
states is compared.  A single mismatch proves non-equivalence; agreeing on all
stimuli yields the verdict ``PROBABLY_EQUIVALENT``.  This mirrors the
simulation-based checks of QCEC and complements the functional schemes for
circuits whose ``U * U'^dagger`` diagram would grow too large.
"""

from __future__ import annotations

import math
import random
from collections.abc import Generator

from repro.circuit.circuit import QuantumCircuit
from repro.dd.package import DDPackage
from repro.exceptions import EquivalenceCheckingError
from repro.simulators.dd_simulator import DDSimulator, DDState
from repro.simulators.statevector import StatevectorSimulator
from repro.utils.steps import drive

__all__ = ["run_simulative_check", "simulation_steps"]


def _random_basis_stimulus(num_qubits: int, rng: random.Random) -> str:
    return "".join(rng.choice("01") for _ in range(num_qubits))


def _random_product_circuit(num_qubits: int, rng: random.Random) -> QuantumCircuit:
    """A layer of random single-qubit rotations preparing a product state."""
    preparation = QuantumCircuit(num_qubits, name="stimulus")
    for qubit in range(num_qubits):
        preparation.ry(rng.uniform(0.0, math.pi), qubit)
        preparation.rz(rng.uniform(0.0, 2.0 * math.pi), qubit)
    return preparation


def run_simulative_check(
    first: QuantumCircuit, second: QuantumCircuit, **options
) -> tuple[bool, dict]:
    """Compare two unitary circuits on random stimuli.

    Returns ``(no_counterexample_found, details)``; ``details`` records the
    minimum fidelity observed and, for a failing run, the offending stimulus.
    ``options`` are the keyword arguments of :func:`simulation_steps`.
    """
    return drive(simulation_steps(first, second, **options))


def simulation_steps(
    first: QuantumCircuit,
    second: QuantumCircuit,
    *,
    backend: str = "dd",
    num_simulations: int = 16,
    stimuli_type: str = "product",
    tolerance: float = 1e-7,
    seed: int | None = None,
    gate_cache: bool = True,
) -> Generator[int | None, None, tuple[bool, dict]]:
    """:func:`run_simulative_check` as a step generator, one step per stimulus.

    Each passing stimulus yields the node count of the two output states
    (None on the dense backend); a mismatch returns without yielding.
    """
    if first.num_qubits != second.num_qubits:
        raise EquivalenceCheckingError(
            f"circuits act on different numbers of qubits "
            f"({first.num_qubits} vs {second.num_qubits})"
        )
    if first.is_dynamic or second.is_dynamic:
        raise EquivalenceCheckingError(
            "the simulative check requires unitary circuits; transform dynamic circuits first"
        )
    rng = random.Random(seed)
    num_qubits = first.num_qubits
    min_fidelity = 1.0
    details: dict = {"num_simulations": num_simulations, "stimuli_type": stimuli_type}
    # One shared package across all stimuli: the circuits' gate DDs are built
    # once and then served from the gate cache on every subsequent run.
    package = DDPackage(num_qubits, gate_cache=gate_cache) if backend == "dd" else None

    for run in range(num_simulations):
        if stimuli_type == "basis":
            stimulus = _random_basis_stimulus(num_qubits, rng)
            circuit_one = first
            circuit_two = second
            initial = stimulus
        elif stimuli_type == "product":
            preparation = _random_product_circuit(num_qubits, rng)
            circuit_one = preparation.compose(first.remove_final_measurements())
            circuit_two = preparation.compose(second.remove_final_measurements())
            initial = None
        else:
            raise EquivalenceCheckingError(f"unknown stimuli type {stimuli_type!r}")

        if backend == "dd":
            state_one = DDSimulator().run(circuit_one, initial, package=package)
            # Share the package so that fidelities can be computed directly.
            state_two = DDSimulator().run(circuit_two, _rebuild_in_package(state_one, initial, num_qubits), package=state_one.package)
            fidelity = state_one.fidelity(state_two)
            nodes = state_one.num_nodes + state_two.num_nodes
        elif backend == "dense":
            state_one = StatevectorSimulator().run(circuit_one, initial)
            state_two = StatevectorSimulator().run(circuit_two, initial)
            fidelity = state_one.fidelity(state_two)
            nodes = None
        else:
            raise EquivalenceCheckingError(f"unknown backend {backend!r}")

        min_fidelity = min(min_fidelity, fidelity)
        if fidelity < 1.0 - tolerance:
            details["min_fidelity"] = min_fidelity
            details["failed_run"] = run
            if stimuli_type == "basis":
                details["counterexample"] = stimulus
            return False, details
        yield nodes

    details["min_fidelity"] = min_fidelity
    return True, details


def _rebuild_in_package(reference: DDState, initial, num_qubits: int):
    """Build the same initial state inside the package of ``reference``."""
    if initial is None:
        return DDState.zero_state(num_qubits, reference.package)
    if isinstance(initial, str):
        return DDState.from_bitstring(initial, reference.package)
    return DDState.basis_state(num_qubits, int(initial), reference.package)
