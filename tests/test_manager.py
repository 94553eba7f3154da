"""Tests for the portfolio verification manager."""

import threading

import pytest

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    ghz_with_bug,
    iterative_qpe,
    qft_dynamic,
    qft_static_benchmark,
    qpe_static,
    running_example_lambda,
    teleportation_dynamic,
    teleportation_static,
)
from repro.circuit import QuantumCircuit
from repro.circuit.random_circuits import random_static_circuit
from repro.core import (
    Configuration,
    EquivalenceCheckingManager,
    EquivalenceCriterion,
    check_equivalence,
    verify_batch,
    verify_portfolio,
)
from repro.core import chunk_pairs
from repro.core.manager import DEFAULT_PORTFOLIO
from repro.core.results import EquivalenceCheckResult
from repro.exceptions import EquivalenceCheckingError
from repro.obs import trace

SEED = 1234


def _ghz_pair():
    """Two builds of the *same* ladder circuit (unitarily equivalent)."""
    return ghz_ladder(4), ghz_ladder(4)


def _seed_pairs():
    """The seed algorithm pairs named by the issue: GHZ, teleportation, dynamic BV."""
    return [
        _ghz_pair(),
        (teleportation_static(), teleportation_dynamic()),
        (bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011")),
    ]


class TestConfiguration:
    def test_unknown_portfolio_checker_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(portfolio=("alternating", "magic"))

    def test_empty_portfolio_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(portfolio=())

    def test_duplicate_portfolio_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(portfolio=("simulation", "simulation"))

    def test_portfolio_normalized_to_tuple(self):
        configuration = Configuration(portfolio=["simulation", "construction"])
        assert configuration.portfolio == ("simulation", "construction")

    def test_non_positive_timeouts_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(timeout=0.0)
        with pytest.raises(EquivalenceCheckingError):
            Configuration(checker_timeout=-1.0)

    def test_max_workers_validated(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(max_workers=0)

    def test_default_portfolio(self):
        manager = EquivalenceCheckingManager()
        assert manager.portfolio == DEFAULT_PORTFOLIO
        assert manager.portfolio[0] == "alternating"


class TestEarlyTermination:
    def test_falsifier_decides_non_equivalent_pairs(self):
        manager = EquivalenceCheckingManager(
            seed=SEED, portfolio=("simulation", "alternating")
        )
        result = manager.run(ghz_ladder(4), ghz_with_bug(4))
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert result.decided_by == "simulation"
        statuses = {attempt.method: attempt.status for attempt in result.attempts}
        assert statuses["simulation"] == "completed"
        assert statuses["alternating"] == "skipped"

    def test_prover_decides_equivalent_pairs(self):
        manager = EquivalenceCheckingManager(
            seed=SEED, portfolio=("simulation", "alternating")
        )
        result = manager.run(*_ghz_pair())
        # Simulation alone cannot prove equivalence; the alternating checker
        # must deliver the definitive verdict.
        assert result.decided_by == "alternating"
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        simulation = result.attempts[0]
        assert simulation.method == "simulation"
        assert simulation.result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT

    def test_simulation_only_portfolio_stays_indicative(self):
        manager = EquivalenceCheckingManager(seed=SEED, portfolio=("simulation",))
        result = manager.run(*_ghz_pair())
        assert result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
        assert result.decided_by is None
        assert "indicative" in result.reason

    def test_result_property_returns_decider_result(self):
        manager = EquivalenceCheckingManager(seed=SEED)
        result = manager.run(*_ghz_pair())
        assert result.result is not None
        assert result.result.method == result.decided_by

    def test_checker_error_is_isolated(self):
        # Dynamic circuits with transformation disabled make every functional
        # checker raise; the portfolio must record the errors, not propagate.
        manager = EquivalenceCheckingManager(
            seed=SEED, transform_dynamic=False, portfolio=("alternating", "construction")
        )
        result = manager.run(teleportation_static(), teleportation_dynamic())
        assert result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert all(attempt.status == "error" for attempt in result.attempts)
        assert result.decided_by is None


class TestIndicativeFallback:
    def _stub_checker(self, manager, criteria_by_method):
        def checker_steps(method, first, second, qubit_permutation):
            return EquivalenceCheckResult(
                criterion=criteria_by_method[method], method=method
            )
            yield  # a one-step generator, like a plain Checker.check

        manager._checker_steps = checker_steps

    def test_later_probably_equivalent_beats_earlier_no_information(self):
        # Regression: the manager used to keep only the *first* indicative
        # criterion, so a NO_INFORMATION from an early checker shadowed a
        # later PROBABLY_EQUIVALENT, contradicting the "best indicative"
        # fallback promised by the docstring.
        manager = EquivalenceCheckingManager(
            seed=SEED, portfolio=("alternating", "simulation")
        )
        self._stub_checker(
            manager,
            {
                "alternating": EquivalenceCriterion.NO_INFORMATION,
                "simulation": EquivalenceCriterion.PROBABLY_EQUIVALENT,
            },
        )
        result = manager.run(*_ghz_pair())
        assert result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
        assert result.decided_by is None
        assert "simulation" in result.reason

    def test_earlier_probably_equivalent_not_downgraded(self):
        manager = EquivalenceCheckingManager(
            seed=SEED, portfolio=("simulation", "alternating")
        )
        self._stub_checker(
            manager,
            {
                "simulation": EquivalenceCriterion.PROBABLY_EQUIVALENT,
                "alternating": EquivalenceCriterion.NO_INFORMATION,
            },
        )
        result = manager.run(*_ghz_pair())
        assert result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT
        assert "simulation" in result.reason


class TestPortfolioAgreement:
    @pytest.mark.parametrize("pair_index", range(3))
    def test_portfolio_agrees_with_every_single_method(self, pair_index):
        first, second = _seed_pairs()[pair_index]
        portfolio = ("simulation", "alternating", "construction")
        manager = EquivalenceCheckingManager(seed=SEED, portfolio=portfolio)
        combined = manager.run(first, second)
        for method in portfolio:
            single = check_equivalence(first, second, method=method, seed=SEED)
            assert single.equivalent == combined.equivalent, method

    def test_portfolio_agrees_on_non_equivalent_seed_pair(self):
        first = bernstein_vazirani_static("1011")
        second = bernstein_vazirani_dynamic("1111")
        manager = EquivalenceCheckingManager(seed=SEED)
        combined = manager.run(first, second)
        assert not combined.equivalent
        for method in DEFAULT_PORTFOLIO:
            assert not check_equivalence(first, second, method=method, seed=SEED).equivalent


class TestTimeouts:
    def test_checker_timeout_moves_on(self):
        manager = EquivalenceCheckingManager(
            portfolio=("alternating",), checker_timeout=0.002, seed=SEED
        )
        result = manager.run(qft_static_benchmark(12), qft_dynamic(12))
        assert result.attempts[0].status == "timeout"
        assert result.criterion is EquivalenceCriterion.NO_INFORMATION

    def test_overall_timeout_skips_remaining_checkers(self):
        manager = EquivalenceCheckingManager(
            portfolio=("alternating", "construction"), timeout=0.002, seed=SEED
        )
        result = manager.run(qft_static_benchmark(12), qft_dynamic(12))
        statuses = [attempt.status for attempt in result.attempts]
        assert "skipped" in statuses or statuses == ["timeout", "timeout"]
        assert "timeout" in result.reason or result.decided_by is None


def _table1_pairs():
    """Every Table-1 instance of the default-path benchmark (all equivalent)."""
    lam = running_example_lambda
    return (
        [
            (bernstein_vazirani_static(secret), bernstein_vazirani_dynamic(secret))
            for secret in ("10101010", "101010101010")
        ]
        + [(qft_static_benchmark(n), qft_dynamic(n)) for n in (8, 10)]
        + [(qpe_static(n, lam), iterative_qpe(n, lam)) for n in (6, 8)]
    )


class TestStepRunner:
    def test_simulation_joins_once_the_product_outgrows_two_to_the_n(self):
        # QFT vs an unrelated random circuit: nothing cancels, the alternating
        # product heads for the dense maximum, so simulation joins at 2^6
        # nodes and refutes the pair with its first stimulus.
        tracer = trace.Tracer()
        with trace.activate(tracer):
            result = EquivalenceCheckingManager(seed=42).run(
                qft_static_benchmark(6), random_static_circuit(6, depth=6, seed=13)
            )
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert result.decided_by == "simulation"
        statuses = {attempt.method: attempt.status for attempt in result.attempts}
        assert statuses == {"alternating": "cancelled", "simulation": "completed"}
        (run_span,) = [s for s in tracer.finished() if s.name == "manager.run"]
        (join,) = [e for e in run_span.events if e["name"] == "portfolio.join"]
        assert join["attrs"]["checker"] == "alternating"
        assert join["attrs"]["bound"] == 64
        assert join["attrs"]["nodes"] > 64
        checker_spans = {
            s.attrs["checker"]: s for s in tracer.finished() if s.name == "checker.run"
        }
        assert checker_spans["alternating"].attrs["status"] == "cancelled"
        assert checker_spans["simulation"].parent_id == run_span.span_id

    def test_time_check_counts_only_the_checkers_own_steps(self):
        # After the join construction and simulation interleave (simulation
        # passes all its stimuli); the steps one takes between the other's
        # must not show up in the other's time_check.
        result = EquivalenceCheckingManager(
            seed=SEED, portfolio=("construction", "simulation")
        ).run(
            random_static_circuit(4, depth=20, seed=3),
            random_static_circuit(4, depth=20, seed=3),
        )
        assert result.decided_by == "construction"
        for attempt in result.attempts:
            assert attempt.status == "completed"
            assert 0 < attempt.result.time_check <= attempt.time_taken

    @pytest.mark.parametrize("pair_index", range(6))
    def test_simulation_never_steps_on_table1_pairs(self, pair_index, monkeypatch):
        from repro.core.checkers.simulation import SimulationChecker

        stepped = []

        def spy(self, first, second, configuration):
            stepped.append(True)
            raise AssertionError("simulation must not be stepped")
            yield

        monkeypatch.setattr(SimulationChecker, "steps", spy)
        tracer = trace.Tracer()
        with trace.activate(tracer):
            pair = _table1_pairs()[pair_index]
            result = EquivalenceCheckingManager(seed=0).run(*pair)
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        assert result.decided_by == "alternating"
        statuses = [(attempt.method, attempt.status) for attempt in result.attempts]
        assert statuses == [("alternating", "completed"), ("simulation", "skipped")]
        assert not stepped
        spans = tracer.finished()
        assert not [s for s in spans if s.attrs.get("checker") == "simulation"]

    def test_timed_out_falsifier_leaves_no_thread_to_flip_the_verdict(self):
        # Falsifier-led lineup, one checker at a time: simulation (about 1.4 s
        # on QFT n=10) overruns its budget, alternating (about 0.03 s) proves
        # the pair.  Budgets are checked between steps in the calling thread,
        # so nothing keeps running after the verdict.
        manager = EquivalenceCheckingManager(
            seed=SEED, portfolio=("simulation", "alternating"), checker_timeout=0.3
        )
        pair = (qft_static_benchmark(10), qft_dynamic(10))
        threads_before = set(threading.enumerate())
        results = [manager.run(*pair) for _ in range(2)]
        for result in results:
            assert result.criterion is EquivalenceCriterion.EQUIVALENT
            assert result.decided_by == "alternating"
            assert [a.status for a in result.attempts] == ["timeout", "completed"]
        assert not [t for t in threading.enumerate() if t.name.startswith("checker-")]
        assert set(threading.enumerate()) <= threads_before

    def test_default_lineup_refutes_small_buggy_pair_without_simulation(self):
        result = EquivalenceCheckingManager(seed=SEED).run(
            ghz_ladder(4), ghz_with_bug(4)
        )
        assert result.criterion is EquivalenceCriterion.NOT_EQUIVALENT
        assert result.decided_by == "alternating"
        assert result.attempts[1].status == "skipped"

    def test_probably_equivalent_falsifier_leaves_the_prover_to_finish(self):
        # A prover-led lineup whose prover outgrows 2^n on an equivalent
        # pair: construction builds a random circuit's near-dense unitary,
        # simulation joins, passes every stimulus, and construction decides.
        result = EquivalenceCheckingManager(
            seed=SEED, portfolio=("construction", "simulation")
        ).run(
            random_static_circuit(4, depth=20, seed=3),
            random_static_circuit(4, depth=20, seed=3),
        )
        assert result.criterion is EquivalenceCriterion.EQUIVALENT
        assert result.decided_by == "construction"
        simulation = result.attempts[1]
        assert simulation.status == "completed"
        assert simulation.result.criterion is EquivalenceCriterion.PROBABLY_EQUIVALENT


class TestBatch:
    def test_batch_preserves_input_order(self):
        pairs = []
        for index in range(6):
            first = ghz_ladder(2 + index % 3)
            first.name = f"first-{index}"
            second = ghz_ladder(2 + index % 3)
            second.name = f"second-{index}"
            pairs.append((first, second))
        batch = EquivalenceCheckingManager(seed=SEED, max_workers=3).verify_batch(pairs)
        assert [entry.index for entry in batch.entries] == list(range(6))
        assert [entry.name_first for entry in batch.entries] == [
            f"first-{i}" for i in range(6)
        ]
        assert batch.all_equivalent

    def test_batch_isolates_per_pair_failures(self):
        good = _ghz_pair()
        mismatched = (ghz_ladder(2), ghz_ladder(3))  # different qubit counts
        batch = EquivalenceCheckingManager(seed=SEED).verify_batch(
            [good, mismatched, good]
        )
        assert batch.num_pairs == 3
        assert batch.entries[0].equivalent
        assert batch.entries[2].equivalent
        middle = batch.entries[1]
        assert not middle.equivalent
        assert middle.result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert all(attempt.status == "error" for attempt in middle.result.attempts)
        # Undecided pairs count as failed, not as a non-equivalence finding.
        assert batch.num_failed == 1
        assert batch.num_not_equivalent == 0

    def test_batch_records_unexpected_run_failures(self, monkeypatch):
        manager = EquivalenceCheckingManager(seed=SEED)

        def explode(first, second, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(manager, "run", explode)
        batch = manager.verify_batch([_ghz_pair()])
        entry = batch.entries[0]
        assert entry.result is None
        assert "boom" in entry.error
        assert batch.num_failed == 1

    def test_batch_verifies_twenty_pairs_concurrently_with_timings(self):
        pairs = []
        for index in range(10):
            pairs.append((ghz_ladder(2 + index % 4), ghz_ladder(2 + index % 4)))
        for bits in ("101", "110", "0110", "1011", "11"):
            pairs.append(
                (bernstein_vazirani_static(bits), bernstein_vazirani_dynamic(bits))
            )
        for theta in (0.3, 0.7, 1.1):
            pairs.append((teleportation_static(theta), teleportation_dynamic(theta)))
        pairs.append((ghz_ladder(3), ghz_with_bug(3)))
        pairs.append(
            (bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111"))
        )
        assert len(pairs) >= 20

        batch = EquivalenceCheckingManager(seed=SEED, max_workers=4).verify_batch(pairs)
        assert batch.num_pairs == len(pairs)
        assert batch.max_workers == 4
        assert batch.num_equivalent == len(pairs) - 2
        assert batch.num_not_equivalent == 2
        assert batch.num_failed == 0
        assert all(entry.time_taken > 0.0 for entry in batch.entries)
        assert batch.total_time > 0.0
        summary = batch.summary()
        assert summary["num_pairs"] == len(pairs)
        assert summary["max_pair_time"] >= summary["mean_pair_time"] > 0.0


def _mixed_batch_pairs():
    """A >=20-pair batch mixing equivalent, non-equivalent and dynamic pairs."""
    pairs = []
    for index in range(10):
        pairs.append((ghz_ladder(2 + index % 4), ghz_ladder(2 + index % 4)))
    for bits in ("101", "110", "0110", "1011", "11"):
        pairs.append((bernstein_vazirani_static(bits), bernstein_vazirani_dynamic(bits)))
    for theta in (0.3, 0.7, 1.1):
        pairs.append((teleportation_static(theta), teleportation_dynamic(theta)))
    pairs.append((ghz_ladder(3), ghz_with_bug(3)))
    pairs.append((bernstein_vazirani_static("101"), bernstein_vazirani_dynamic("111")))
    assert len(pairs) >= 20
    return pairs


class TestProcessExecutor:
    def test_chunk_pairs_shards_and_indexes(self):
        pairs = [(ghz_ladder(2), ghz_ladder(2)) for _ in range(5)]
        chunks = list(chunk_pairs(pairs, 2))
        assert [len(chunk) for chunk in chunks] == [2, 2, 1]
        assert [index for chunk in chunks for index, _, _ in chunk] == list(range(5))

    def test_chunk_pairs_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(chunk_pairs([], 0))

    def test_invalid_executor_rejected(self):
        with pytest.raises(EquivalenceCheckingError):
            Configuration(executor="greenlet")
        with pytest.raises(EquivalenceCheckingError):
            Configuration(batch_chunk_size=0)

    def test_process_batch_matches_thread_batch_on_mixed_pairs(self):
        # Acceptance criterion: entry-for-entry identical criteria between the
        # thread and process executors on a >=20-pair mixed batch, for the
        # default lineup and the explicit falsifier-first one (which must
        # agree with each other too).
        pairs = _mixed_batch_pairs()
        criteria = {}
        for portfolio in (None, ("simulation", "alternating")):
            thread_batch = EquivalenceCheckingManager(
                seed=SEED, executor="thread", max_workers=4, portfolio=portfolio
            ).verify_batch(pairs)
            process_batch = EquivalenceCheckingManager(
                seed=SEED,
                executor="process",
                max_workers=4,
                batch_chunk_size=3,
                portfolio=portfolio,
            ).verify_batch(pairs)
            assert process_batch.executor == "process"
            assert process_batch.num_pairs == thread_batch.num_pairs == len(pairs)
            for thread_entry, process_entry in zip(
                thread_batch.entries, process_batch.entries
            ):
                assert process_entry.index == thread_entry.index
                assert process_entry.name_first == thread_entry.name_first
                assert process_entry.error is None and thread_entry.error is None
                assert (
                    process_entry.result.criterion is thread_entry.result.criterion
                ), process_entry.index
                assert (
                    process_entry.result.decided_by == thread_entry.result.decided_by
                ), process_entry.index
            criteria[portfolio] = [e.result.criterion for e in thread_batch.entries]
        assert criteria[None] == criteria[("simulation", "alternating")]

    def test_process_batch_preserves_input_order_with_chunking(self):
        pairs = []
        for index in range(7):
            first = ghz_ladder(2 + index % 3)
            first.name = f"first-{index}"
            second = ghz_ladder(2 + index % 3)
            second.name = f"second-{index}"
            pairs.append((first, second))
        batch = EquivalenceCheckingManager(
            seed=SEED, executor="process", max_workers=2, batch_chunk_size=3
        ).verify_batch(pairs)
        assert [entry.index for entry in batch.entries] == list(range(7))
        assert [entry.name_first for entry in batch.entries] == [
            f"first-{i}" for i in range(7)
        ]
        assert batch.all_equivalent

    def test_process_batch_isolates_per_pair_failures(self):
        good = _ghz_pair()
        mismatched = (ghz_ladder(2), ghz_ladder(3))
        batch = EquivalenceCheckingManager(
            seed=SEED, executor="process", max_workers=2
        ).verify_batch([good, mismatched, good])
        assert batch.entries[0].equivalent
        assert batch.entries[2].equivalent
        middle = batch.entries[1]
        assert not middle.equivalent
        assert middle.result.criterion is EquivalenceCriterion.NO_INFORMATION
        assert batch.num_failed == 1

    def test_process_batch_isolates_unpicklable_pairs(self):
        from repro.circuit.gates import XGate

        class LocalGate(XGate):
            """Defined inside the test, hence unimportable and unpicklable."""

        good = _ghz_pair()
        poison_first = ghz_ladder(2)
        poison_first.append(LocalGate(), [0])
        batch = EquivalenceCheckingManager(
            seed=SEED, executor="process", max_workers=2
        ).verify_batch([good, (poison_first, ghz_ladder(2)), good])
        assert batch.entries[0].equivalent
        assert batch.entries[2].equivalent
        assert batch.entries[1].result is None
        assert batch.entries[1].error is not None
        assert batch.num_failed == 1


class TestConvenienceWrappers:
    def test_verify_portfolio(self):
        result = verify_portfolio(*_ghz_pair(), seed=SEED)
        assert result.equivalent

    def test_verify_batch(self):
        batch = verify_batch([_ghz_pair()], seed=SEED, max_workers=2)
        assert batch.all_equivalent
        assert batch.num_pairs == 1
