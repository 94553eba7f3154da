"""The simulative (random-stimuli) equivalence checker.

The portfolio's *falsifier*: a single mismatching stimulus proves
non-equivalence, but a pass only yields ``PROBABLY_EQUIVALENT``.  The default
lineup lets it join once the prover's product outgrows ``2**n`` nodes.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, ClassVar

from repro.core.checkers.base import Checker, CheckerOutcome, register
from repro.core.results import EquivalenceCriterion
from repro.core.simulative import simulation_steps

if TYPE_CHECKING:  # pragma: no cover
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = ["SimulationChecker"]


class SimulationChecker(Checker):
    """Refute equivalence fast by comparing the circuits on random stimuli."""

    name: ClassVar[str] = "simulation"
    role: ClassVar[str] = "falsifier"

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Generator[int | None, None, CheckerOutcome]:
        config = configuration
        passed, details = yield from simulation_steps(
            first,
            second,
            backend=config.backend,
            num_simulations=config.num_simulations,
            stimuli_type=config.stimuli_type,
            tolerance=config.tolerance,
            seed=config.seed,
            gate_cache=config.gate_cache,
        )
        criterion = (
            EquivalenceCriterion.PROBABLY_EQUIVALENT
            if passed
            else EquivalenceCriterion.NOT_EQUIVALENT
        )
        return CheckerOutcome(criterion, details)


register(SimulationChecker)
