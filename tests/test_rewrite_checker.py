"""Tests for the library-driven peephole rewrite checker.

The rewrite checker is a *prover*: it decides basis-translated pairs by
reducing G . G'^-1 toward the identity with 2x2 arithmetic, never building a
decision diagram, and returns NO_INFORMATION (never NOT_EQUIVALENT) when the
reduction leaves residual gates.  The agreement tests assert the
entry-for-entry property the ISSUE requires: everywhere both the rewrite
checker and the DD portfolio decide, the verdicts are identical — on both
batch executors.
"""

import math

import pytest

from repro.algorithms import ghz_ladder, qft_static_benchmark
from repro.circuit import QuantumCircuit
from repro.circuit.random_circuits import random_static_circuit
from repro.compilation import (
    decompose_to_cx_and_single_qubit,
    rewrite_single_qubit_to_u,
)
from repro.core import Configuration, EquivalenceCriterion
from repro.core.checkers.rewrite import RewriteChecker
from repro.core.manager import EquivalenceCheckingManager

SEED = 17

DECIDED = (
    EquivalenceCriterion.EQUIVALENT,
    EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE,
)


def _check(first, second, **config):
    checker = RewriteChecker()
    configuration = Configuration(**config) if config else Configuration()
    return checker.check(first, second, configuration)


class TestDirectOutcomes:
    def test_translated_pair_is_proved_without_any_dd(self):
        first = qft_static_benchmark(4)
        second = rewrite_single_qubit_to_u(decompose_to_cx_and_single_qubit(first))
        outcome = _check(first, second)
        assert outcome.criterion in DECIDED
        statistics = outcome.details["rewrite_statistics"]
        assert statistics["proved"] is True
        assert statistics["remaining"] == 0
        assert "dd_statistics" not in outcome.details

    def test_identical_pair_reduces_to_identity(self):
        first = ghz_ladder(3)
        outcome = _check(first, first.copy())
        assert outcome.criterion == EquivalenceCriterion.EQUIVALENT

    def test_global_phase_difference_is_classified(self):
        first = QuantumCircuit(1, name="zero")
        second = QuantumCircuit(1, name="phase")
        second.global_phase(1.0)
        outcome = _check(first, second)
        assert outcome.criterion == EquivalenceCriterion.EQUIVALENT_UP_TO_GLOBAL_PHASE
        assert outcome.details["residual_phase"] == pytest.approx(-1.0)

    def test_inequivalent_pair_yields_no_information_not_a_refutation(self):
        first = ghz_ladder(3)
        second = ghz_ladder(3)
        second.x(0)
        outcome = _check(first, second)
        assert outcome.criterion == EquivalenceCriterion.NO_INFORMATION
        assert outcome.details["rewrite_statistics"]["proved"] is False

    def test_qubit_count_mismatch_is_no_information(self):
        outcome = _check(ghz_ladder(2), ghz_ladder(3))
        assert outcome.criterion == EquivalenceCriterion.NO_INFORMATION

    def test_dynamic_circuit_is_no_information(self):
        dynamic = QuantumCircuit(1, 1, name="dynamic")
        dynamic.h(0)
        dynamic.measure(0, 0)
        dynamic.x(0, condition=(dynamic.cregs[0], 1))
        outcome = _check(dynamic, dynamic.copy())
        assert outcome.criterion == EquivalenceCriterion.NO_INFORMATION
        assert "reason" in outcome.details

    def test_commuted_cx_is_beyond_the_peephole(self):
        # cx(0,1) cx(2,3) vs the same pair swapped commutes, but the
        # peephole has no commutation rules: honest NO_INFORMATION.
        first = QuantumCircuit(4, name="a")
        first.cx(0, 1)
        first.cx(2, 3)
        second = QuantumCircuit(4, name="b")
        second.cx(2, 3)
        second.cx(0, 1)
        outcome = _check(first, second)
        assert outcome.criterion in (
            EquivalenceCriterion.NO_INFORMATION,
            *DECIDED,
        )
        assert outcome.criterion != EquivalenceCriterion.NOT_EQUIVALENT


class TestManagerIntegration:
    def test_rewrite_decides_before_any_dd_in_the_adaptive_schedule(self):
        configuration = Configuration(
            portfolio=("rewrite", "alternating"), scheduler="adaptive", seed=SEED
        )
        manager = EquivalenceCheckingManager(configuration)
        first = qft_static_benchmark(4)
        second = decompose_to_cx_and_single_qubit(first)
        result = manager.run(first, second)
        assert result.equivalent is True
        assert result.decided_by == "rewrite"
        assert result.schedule[0] == "rewrite"

    def test_rewrite_alone_cannot_misclassify(self):
        configuration = Configuration(portfolio=("rewrite",), seed=SEED)
        manager = EquivalenceCheckingManager(configuration)
        first = ghz_ladder(3)
        second = ghz_ladder(3)
        second.z(2)
        result = manager.run(first, second)
        assert result.criterion == EquivalenceCriterion.NO_INFORMATION


def _translated_pairs():
    """Random unitary circuits paired with their basis translations."""
    pairs = []
    for seed in range(6):
        circuit = random_static_circuit(3, 4, seed=SEED + seed)
        level_one = decompose_to_cx_and_single_qubit(circuit)
        level_two = rewrite_single_qubit_to_u(level_one)
        pairs.append((circuit, level_one))
        pairs.append((circuit, level_two))
    return pairs


class TestAgreementWithDDCheckers:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_verdicts_agree_entry_for_entry_with_dd_portfolio(self, executor):
        pairs = _translated_pairs()
        rewrite_config = Configuration(
            portfolio=("rewrite",),
            seed=SEED,
            verdict_cache=False,
            executor=executor,
            max_workers=2,
        )
        rewrite_batch = EquivalenceCheckingManager(rewrite_config).verify_batch(pairs)
        # The DD side: the alternating prover alone, the library's default
        # lineup, and the explicit falsifier-first lineup.  The default and
        # the explicit lineup must agree entry for entry.
        dd_batches = [
            EquivalenceCheckingManager(
                rewrite_config.updated(portfolio=portfolio)
            ).verify_batch(pairs)
            for portfolio in (("alternating",), None, ("simulation", "alternating"))
        ]
        assert [e.result.criterion for e in dd_batches[1].entries] == [
            e.result.criterion for e in dd_batches[2].entries
        ]
        for dd_batch in dd_batches:
            assert rewrite_batch.num_pairs == dd_batch.num_pairs == len(pairs)
            decided = 0
            for rewrite_entry, dd_entry in zip(rewrite_batch.entries, dd_batch.entries):
                assert rewrite_entry.result is not None
                assert dd_entry.result is not None
                rewrite_criterion = rewrite_entry.result.criterion
                dd_criterion = dd_entry.result.criterion
                assert rewrite_criterion != EquivalenceCriterion.NOT_EQUIVALENT
                if (
                    rewrite_criterion in DECIDED
                    and dd_criterion
                    in (*DECIDED, EquivalenceCriterion.PROBABLY_EQUIVALENT)
                ):
                    decided += 1
                    assert rewrite_entry.result.equivalent == dd_entry.result.equivalent
            # The rewrite checker must actually decide translated pairs, not
            # no-information its way through the batch.
            assert decided >= len(pairs) // 2
