"""Library-driven peephole ``rewrite`` checker (a DD-free prover).

Where the DD provers build ``G * G'^dagger`` as a decision diagram, this
checker reduces it *syntactically*: both circuits are translated to the
CX + single-qubit basis through the
:data:`~repro.circuit.equivalence_library.StandardEquivalenceLibrary` (the
same rules the compiler uses), the concatenation ``G ∘ G'^{-1}`` is streamed
through a peephole stack, and

* adjacent single-qubit gates on the same qubit merge as 2x2 numpy products,
  vanishing when the product is the identity up to a global phase;
* a ``cx`` cancels against an identical ``cx`` that is topmost on *both* its
  qubits (CX is self-inverse);
* ``gphase`` accumulates into one scalar.

When the stack telescopes to nothing the circuits are *proven* equivalent —
in O(gates) 2x2 arithmetic, without constructing a single DD node.  This is
exactly the compilation-flow workload (same circuit, other gate set): every
translated run reduces to identity between the cancelling CX skeletons.  A
non-empty residue yields ``NO_INFORMATION``, never ``NOT_EQUIVALENT`` — the
peephole is incomplete (it has no commutation rules), so a residue means
"this prover cannot tell", and the DD portfolio keeps the final word.
"""

from __future__ import annotations

import cmath
from collections.abc import Generator
from typing import ClassVar

import numpy as np

from repro.circuit.gates import ControlledGate, GlobalPhaseGate
from repro.core.checkers.base import (
    Checker,
    CheckerOutcome,
    exact_comparison_tolerance,
    gate_lists,
    inverse_instruction,
    register,
)
from repro.core.results import EquivalenceCriterion

__all__ = ["RewriteChecker"]

_IDENTITY = np.eye(2, dtype=complex)

#: Gates the reduction loop handles per step.
_STEP_STRIDE = 256


class _Entry:
    """One live stack entry: a pending 1q matrix or an uncancelled cx."""

    __slots__ = ("kind", "qubit", "matrix", "control", "target", "ctrl_state", "prev")

    def __init__(self, kind: str):
        self.kind = kind
        self.prev: dict[int, "_Entry | None"] = {}


class _PeepholeStack:
    """Per-qubit linked stack with 1q merging and cx pair cancellation."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.top: dict[int, _Entry | None] = {}
        self.phase = 0.0
        self.live = 0
        self.merged = 0
        self.cancelled = 0

    def _identity_phase(self, matrix: np.ndarray) -> float | None:
        """The ``delta`` with ``matrix ≈ e^{i*delta} I``, or None."""
        if abs(matrix[0, 0]) <= self.tolerance:
            return None
        delta = cmath.phase(matrix[0, 0])
        if np.max(np.abs(matrix - cmath.exp(1j * delta) * _IDENTITY)) <= self.tolerance:
            return float(delta)
        return None

    def push_single_qubit(self, qubit: int, matrix: np.ndarray) -> None:
        top = self.top.get(qubit)
        if top is not None and top.kind == "1q":
            self.merged += 1
            top.matrix = matrix @ top.matrix
            delta = self._identity_phase(top.matrix)
            if delta is not None:
                self.phase += delta
                self.top[qubit] = top.prev[qubit]
                self.live -= 1
            return
        entry = _Entry("1q")
        entry.qubit = qubit
        entry.matrix = matrix
        entry.prev[qubit] = top
        self.top[qubit] = entry
        self.live += 1

    def push_cx(self, control: int, target: int, ctrl_state: int) -> None:
        top_c = self.top.get(control)
        top_t = self.top.get(target)
        if (
            top_c is not None
            and top_c is top_t
            and top_c.kind == "cx"
            and top_c.control == control
            and top_c.target == target
            and top_c.ctrl_state == ctrl_state
        ):
            self.cancelled += 1
            self.top[control] = top_c.prev[control]
            self.top[target] = top_c.prev[target]
            self.live -= 1
            return
        entry = _Entry("cx")
        entry.control = control
        entry.target = target
        entry.ctrl_state = ctrl_state
        entry.prev[control] = top_c
        entry.prev[target] = top_t
        self.top[control] = entry
        self.top[target] = entry
        self.live += 1


class RewriteChecker(Checker):
    """Prove equivalence by peephole reduction of ``G ∘ G'^{-1}`` to identity."""

    name: ClassVar[str] = "rewrite"
    role: ClassVar[str] = "prover"
    scheme_two: ClassVar[bool] = False
    uses_strategy: ClassVar[bool] = False

    def steps(
        self, first, second, configuration
    ) -> Generator[None, None, CheckerOutcome]:
        from repro.compilation.basis import decompose_to_cx_and_single_qubit
        from repro.exceptions import ReproError

        if first.num_qubits != second.num_qubits:
            return self._no_information(
                "qubit counts differ; rewrite reduction not applicable"
            )
        try:
            left = decompose_to_cx_and_single_qubit(first.remove_final_measurements())
            right = decompose_to_cx_and_single_qubit(second.remove_final_measurements())
            left_stream, right_stream = gate_lists(left, right)
        except ReproError as error:
            return self._no_information(f"basis translation failed: {error}")
        inverse_stream = [
            inverse_instruction(instruction) for instruction in reversed(right_stream)
        ]

        tolerance = exact_comparison_tolerance(configuration.tolerance)
        stack = _PeepholeStack(tolerance)
        input_gates = len(left_stream) + len(inverse_stream)
        for position, instruction in enumerate(left_stream + inverse_stream):
            if position % _STEP_STRIDE == 0:
                yield
            gate = instruction.operation
            if isinstance(gate, GlobalPhaseGate):
                stack.phase += gate.phase
                continue
            if gate.num_qubits == 1:
                stack.push_single_qubit(instruction.qubits[0], gate.matrix)
                continue
            if (
                gate.num_qubits == 2
                and isinstance(gate, ControlledGate)
                and gate.base_gate.name == "x"
            ):
                control, target = instruction.qubits
                stack.push_cx(control, target, gate.ctrl_state)
                continue
            return self._no_information(
                f"unsupported residual gate {gate.name!r} after basis translation"
            )

        statistics = {
            "input_gates": input_gates,
            "merged_single_qubit": stack.merged,
            "cancelled_cx": stack.cancelled,
            "remaining": stack.live,
            "proved": stack.live == 0,
        }
        if stack.live:
            return CheckerOutcome(
                criterion=EquivalenceCriterion.NO_INFORMATION,
                details={
                    "reason": (
                        f"peephole reduction left {stack.live} gate(s); "
                        "rewrite cannot decide"
                    ),
                    "rewrite_statistics": statistics,
                },
            )
        if abs(cmath.exp(1j * stack.phase) - 1.0) <= configuration.tolerance:
            criterion = EquivalenceCriterion.EQUIVALENT
        else:
            criterion = EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE
        return CheckerOutcome(
            criterion=criterion,
            details={"rewrite_statistics": statistics, "residual_phase": stack.phase},
        )

    @staticmethod
    def _no_information(reason: str) -> CheckerOutcome:
        return CheckerOutcome(
            criterion=EquivalenceCriterion.NO_INFORMATION,
            details={
                "reason": reason,
                "rewrite_statistics": {"proved": False},
            },
        )


register(RewriteChecker)
