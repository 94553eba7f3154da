"""Checker abstraction and registry of the pluggable checker subsystem.

Historically every equivalence-checking strategy lived as a private method on
``EquivalenceChecker`` and was dispatched by string comparison.  This module
replaces that hub with first-class :class:`Checker` objects:

* each strategy is a :class:`Checker` subclass in its own module
  (:mod:`~repro.core.checkers.alternating`,
  :mod:`~repro.core.checkers.construction`,
  :mod:`~repro.core.checkers.simulation`,
  :mod:`~repro.core.checkers.distribution`);
* checkers are looked up *by name* through the :func:`register` /
  :func:`resolve` registry, so third-party checkers plug in without touching
  the core — ``register`` a subclass and its name becomes valid in
  ``Configuration.method`` and ``Configuration.portfolio``;
* class-level metadata (:attr:`Checker.role`, :attr:`Checker.scheme_two`)
  lets the portfolio scheduler reason about a checker without running it.

A checker receives the two circuits plus the active
:class:`~repro.core.configuration.Configuration` and produces a
:class:`CheckerOutcome` through the step protocol of :class:`Checker`;
wrapping into the public
:class:`~repro.core.results.EquivalenceCheckResult` (timings, method name,
backend) is done by the calling layer.
"""

from __future__ import annotations

from abc import ABC
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

import numpy as np

from repro.circuit.gates import Gate
from repro.circuit.operations import Instruction
from repro.core.results import EquivalenceCriterion
from repro.exceptions import EquivalenceCheckingError
from repro.utils.steps import drive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (configuration
    # validates names against this registry, so it must not be imported here
    # at runtime)
    from repro.circuit.circuit import QuantumCircuit
    from repro.core.configuration import Configuration

__all__ = [
    "Checker",
    "CheckerOutcome",
    "available_checkers",
    "criterion_from_matrix",
    "criterion_from_scalar",
    "exact_comparison_tolerance",
    "gate_lists",
    "inverse_instruction",
    "is_registered",
    "register",
    "resolve",
    "unregister",
]


@dataclass
class CheckerOutcome:
    """What a checker found: a criterion plus free-form diagnostics."""

    criterion: EquivalenceCriterion
    details: dict = field(default_factory=dict)


class Checker(ABC):
    """One equivalence-checking strategy, run as a step generator.

    :meth:`steps` is a generator: it yields after every unit of work (one
    gate application, one stimulus, one instruction) and returns the
    :class:`CheckerOutcome`.  Each yield reports the live node count of the
    checker's decision diagram, or None when it holds none (dense backends,
    the rewrite prover).  The portfolio manager steps several checkers in
    one thread: it checks budgets between steps, lets the next checker join
    when a prover's diagram outgrows ``2**n`` nodes, and closes a generator
    whose verdict is no longer needed.  :meth:`check` runs the steps to
    completion.

    Subclasses set the class attributes and implement :meth:`steps` — or,
    for a strategy that cannot pause, just :meth:`check`, which then runs as
    a single step that no budget can cut short (an overrun only turns it
    into a ``timeout`` once it returns).  Calling :func:`register` on the
    subclass makes it resolvable by name everywhere a checker name is
    accepted (``Configuration.method``, ``Configuration.portfolio``, the
    CLI, the scheduler).

    Attributes
    ----------
    name:
        Registry name of the strategy (e.g. ``"alternating"``).
    role:
        ``"prover"`` — can deliver a definitive *positive* verdict
        (``EQUIVALENT`` / ``EQUIVALENT_UP_TO_GLOBAL_PHASE``) — or
        ``"falsifier"`` — decides only ``NOT_EQUIVALENT`` definitively and is
        otherwise indicative (``PROBABLY_EQUIVALENT``).
    scheme_two:
        Whether the checker compares circuits *behaviourally* (Scheme 2 of
        the paper) and therefore handles dynamic primitives natively.  The
        calling layer skips the Scheme-1 unitary reconstruction for such
        checkers and hands them the original circuits.
    uses_strategy:
        Whether ``Configuration.strategy`` influences this checker (only the
        alternating scheme); controls result reporting.
    """

    name: ClassVar[str]
    role: ClassVar[str] = "prover"
    scheme_two: ClassVar[bool] = False
    uses_strategy: ClassVar[bool] = False

    def steps(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> Generator[int | None, None, CheckerOutcome]:
        """Decide equivalence of two circuits under ``configuration``, stepwise."""
        return self.check(first, second, configuration)
        yield  # unreachable: makes a plain ``check`` a one-step generator

    def check(
        self,
        first: "QuantumCircuit",
        second: "QuantumCircuit",
        configuration: "Configuration",
    ) -> CheckerOutcome:
        """Decide equivalence of two circuits under ``configuration``."""
        return drive(self.steps(first, second, configuration))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, type[Checker]] = {}


def register(cls: type[Checker], *, replace: bool = False) -> type[Checker]:
    """Register a :class:`Checker` subclass under ``cls.name``.

    Usable as a plain call or as a class decorator.  Registration makes the
    name valid in ``Configuration.method`` / ``Configuration.portfolio`` and
    resolvable by the portfolio scheduler — this registry is the single
    source of truth for which checkers exist.
    """
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise EquivalenceCheckingError(
            f"checker class {cls.__name__} must define a non-empty string 'name'"
        )
    if not (isinstance(cls, type) and issubclass(cls, Checker)):
        raise EquivalenceCheckingError(
            f"{cls!r} is not a Checker subclass and cannot be registered"
        )
    if cls.steps is Checker.steps and cls.check is Checker.check:
        raise EquivalenceCheckingError(
            f"checker class {cls.__name__} must implement steps() or check()"
        )
    if name in _REGISTRY and not replace:
        raise EquivalenceCheckingError(
            f"a checker named {name!r} is already registered "
            f"({_REGISTRY[name].__name__}); pass replace=True to override"
        )
    _REGISTRY[name] = cls
    return cls


def unregister(name: str) -> None:
    """Remove a checker from the registry (plugin teardown, tests)."""
    _REGISTRY.pop(name, None)


def resolve(name: str) -> type[Checker]:
    """Look up a registered checker class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EquivalenceCheckingError(
            f"unknown checker {name!r}; registered checkers: {available_checkers()}"
        ) from None


def is_registered(name: str) -> bool:
    """Whether a checker with this name exists in the registry."""
    return name in _REGISTRY


def available_checkers() -> tuple[str, ...]:
    """Names of all registered checkers, in registration order."""
    return tuple(_REGISTRY)


# ----------------------------------------------------------------------
# helpers shared by the concrete checkers
# ----------------------------------------------------------------------


def inverse_instruction(instruction: Instruction) -> Instruction:
    """The inverse of a unitary gate instruction (same qubits)."""
    gate = instruction.operation
    assert isinstance(gate, Gate)
    return Instruction(gate.inverse(), instruction.qubits)


def gate_lists(
    first: "QuantumCircuit", second: "QuantumCircuit"
) -> tuple[list[Instruction], list[Instruction]]:
    """Unitary gate streams of both circuits, read-out measurements stripped."""
    left = list(first.remove_final_measurements().gate_instructions())
    right = list(second.remove_final_measurements().gate_instructions())
    return left, right


def criterion_from_scalar(
    scalar: complex | None, tolerance: float
) -> EquivalenceCriterion:
    """Verdict from the identity scalar of ``U * U'^dagger`` (DD backends)."""
    if scalar is None:
        return EquivalenceCriterion.NOT_EQUIVALENT
    if abs(scalar - 1.0) <= tolerance:
        return EquivalenceCriterion.EQUIVALENT
    if abs(abs(scalar) - 1.0) <= tolerance:
        return EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE
    return EquivalenceCriterion.NOT_EQUIVALENT


def criterion_from_matrix(matrix: np.ndarray, tolerance: float) -> EquivalenceCriterion:
    """Verdict from the dense product matrix (dense backends)."""
    dim = matrix.shape[0]
    identity = np.eye(dim, dtype=complex)
    if np.allclose(matrix, identity, atol=tolerance):
        return EquivalenceCriterion.EQUIVALENT
    scalar = np.trace(matrix) / dim
    if abs(abs(scalar) - 1.0) <= tolerance and np.allclose(
        matrix, scalar * identity, atol=tolerance * 10
    ):
        return EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE
    return EquivalenceCriterion.NOT_EQUIVALENT


def exact_comparison_tolerance(tolerance: float) -> float:
    """Absolute tolerance used for exact (phase-sensitive) matrix comparisons."""
    return max(tolerance, 1e-9)
