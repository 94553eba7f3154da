"""Pickle round-trips of circuits, gates, instructions and configurations.

The process executor of ``verify_batch`` ships circuits and configurations
into worker processes, so every one of them must survive
``pickle.loads(pickle.dumps(...))`` with an identical instruction stream and
identical checking behaviour.  DD packages, by contrast, are process-local
and must refuse to be pickled.
"""

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    ghz_ladder,
    qft_dynamic,
    teleportation_dynamic,
)
from repro.circuit import QuantumCircuit
from repro.circuit.gates import (
    Barrier,
    CCXGate,
    ControlledGate,
    CPhaseGate,
    CUGate,
    CXGate,
    HGate,
    MCPhaseGate,
    MCXGate,
    Measure,
    Reset,
    RXGate,
    RZGate,
    SwapGate,
    UGate,
    XGate,
    YGate,
)
from repro.circuit.operations import ClassicalCondition, Instruction
from repro.core import Configuration, check_equivalence
from repro.dd.package import DDPackage


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestOperationPickle:
    @pytest.mark.parametrize(
        "operation",
        [
            XGate(),
            YGate(),
            HGate(),
            RXGate(0.25),
            RZGate(-1.5),
            UGate(0.1, 0.2, 0.3),
            SwapGate(),
            CXGate(),
            CXGate(ctrl_state=0),
            CPhaseGate(math.pi / 8),
            CUGate(0.1, 0.2, 0.3, ctrl_state=0),
            CCXGate(ctrl_state=1),
            MCXGate(3, ctrl_state=5),
            MCPhaseGate(0.7, 2),
            ControlledGate(HGate(), 2, 1),
            Measure(),
            Reset(),
            Barrier(4),
        ],
    )
    def test_operation_roundtrip(self, operation):
        restored = _roundtrip(operation)
        assert type(restored) is type(operation)
        assert restored == operation
        assert restored.name == operation.name
        assert restored.num_qubits == operation.num_qubits

    def test_controlled_gate_keeps_control_structure(self):
        gate = _roundtrip(MCXGate(3, ctrl_state=5))
        assert gate.num_ctrl_qubits == 3
        assert gate.ctrl_state == 5
        assert isinstance(gate.base_gate, XGate)

    def test_instruction_roundtrip_revalidates(self):
        instruction = Instruction(
            XGate(), (1,), condition=ClassicalCondition((0, 2), 3)
        )
        restored = _roundtrip(instruction)
        assert restored == instruction
        assert restored.condition.bit_values == (1, 1)


class TestCircuitPickle:
    @pytest.mark.parametrize(
        "circuit",
        [
            ghz_ladder(4),
            teleportation_dynamic(0.3),
            bernstein_vazirani_dynamic("1011"),
            qft_dynamic(4),
        ],
        ids=["ghz", "teleportation", "bv", "qft"],
    )
    def test_named_circuits_roundtrip(self, circuit):
        restored = _roundtrip(circuit)
        assert restored.name == circuit.name
        assert restored.num_qubits == circuit.num_qubits
        assert restored.num_clbits == circuit.num_clbits
        assert restored.data == circuit.data

    def test_restored_circuit_is_internally_consistent(self):
        circuit = teleportation_dynamic()
        restored = _roundtrip(circuit)
        # The identity-keyed bit index maps must be rebuilt, not copied:
        # register/bit lookups and further building must work.
        for register in restored.qregs:
            for qubit in register:
                assert restored.qubit_index(qubit) == circuit.qubit_index(
                    circuit.qregs[restored.qregs.index(register)][qubit.index]
                )
        restored.h(0)
        assert len(restored) == len(circuit) + 1

    def test_conditioned_reset_roundtrips(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0)
        circuit.measure(0, 0)
        circuit.reset(0, condition=(0, 1))
        restored = _roundtrip(circuit)
        assert restored.data == circuit.data
        assert restored.data[-1].condition == ClassicalCondition((0,), 1)

    def test_qasm_load_pickle_identical_stream_and_verdict(self):
        # The tentpole guarantee: QASM-load -> pickle -> unpickle yields the
        # identical instruction stream and the identical verdict.
        original = teleportation_dynamic(0.7)
        loaded = QuantumCircuit.from_qasm(original.to_qasm())
        restored = _roundtrip(loaded)
        assert restored.data == loaded.data
        direct = check_equivalence(original, loaded, seed=11)
        pickled = check_equivalence(original, restored, seed=11)
        assert pickled.criterion is direct.criterion


@st.composite
def small_circuits(draw):
    """Random static/dynamic circuits over a compact gate vocabulary."""
    num_qubits = draw(st.integers(min_value=1, max_value=4))
    circuit = QuantumCircuit(num_qubits, num_qubits, name="hypothesis")
    num_ops = draw(st.integers(min_value=1, max_value=12))
    for _ in range(num_ops):
        kind = draw(st.sampled_from(["h", "x", "rx", "cx", "p"]))
        qubit = draw(st.integers(min_value=0, max_value=num_qubits - 1))
        if kind == "h":
            circuit.h(qubit)
        elif kind == "x":
            circuit.x(qubit)
        elif kind == "rx":
            circuit.rx(draw(st.floats(0.0, math.pi, allow_nan=False)), qubit)
        elif kind == "p":
            circuit.p(draw(st.floats(0.0, math.pi, allow_nan=False)), qubit)
        elif kind == "cx" and num_qubits > 1:
            target = draw(
                st.integers(min_value=0, max_value=num_qubits - 1).filter(
                    lambda t: t != qubit
                )
            )
            circuit.cx(qubit, target)
    # Trailing read-out layer only, so Scheme 1 always applies.
    if draw(st.booleans()):
        circuit.measure_all()
    return circuit


class TestPicklePropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(circuit=small_circuits())
    def test_qasm_roundtrip_then_pickle_preserves_stream(self, circuit):
        loaded = QuantumCircuit.from_qasm(circuit.to_qasm())
        restored = _roundtrip(loaded)
        assert restored.data == loaded.data
        assert restored.num_qubits == loaded.num_qubits
        assert restored.num_clbits == loaded.num_clbits
        # And again: pickling is idempotent.
        assert _roundtrip(restored).data == loaded.data

    @settings(max_examples=10, deadline=None)
    @given(circuit=small_circuits())
    def test_pickled_circuit_same_equivalence_verdict(self, circuit):
        restored = _roundtrip(circuit)
        direct = check_equivalence(circuit, circuit, seed=3)
        pickled = check_equivalence(restored, restored, seed=3)
        assert pickled.criterion is direct.criterion
        cross = check_equivalence(circuit, restored, seed=3)
        assert cross.equivalent


class TestProcessLocalTypes:
    def test_configuration_roundtrip(self):
        configuration = Configuration(
            seed=5,
            executor="process",
            batch_chunk_size=3,
            portfolio=("simulation", "alternating"),
        )
        assert _roundtrip(configuration) == configuration

    def test_dd_package_refuses_to_pickle(self):
        package = DDPackage(2)
        with pytest.raises(TypeError, match="process-local"):
            pickle.dumps(package)
