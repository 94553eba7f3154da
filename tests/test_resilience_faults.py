"""The chaos suite: deterministic fault injection across the whole stack.

The acceptance criterion of PR 8: under the injected-fault matrix, every
batch returns verdicts *entry-for-entry identical* to a fault-free run — no
hangs, no lost pairs — on the thread AND the process executor.
"""

import pytest

from repro.algorithms import ghz_ladder, ghz_with_bug
from repro.core import Configuration, EquivalenceCheckingManager
from repro.exceptions import ServiceError
from repro.resilience import FaultInjected, FaultInjector, FaultPlan, FaultRule
from repro.service import VerificationClient, VerificationServer, VerificationService

SEED = 31


def _pairs():
    """Six small pairs, one genuinely non-equivalent: enough to shard into
    several process work units while keeping the suite fast."""
    pairs = [(ghz_ladder(2 + i % 3), ghz_ladder(2 + i % 3)) for i in range(5)]
    pairs.insert(3, (ghz_ladder(3), ghz_with_bug(3)))
    return pairs


def _configuration(executor, fault_plan=None, **overrides):
    options = dict(
        portfolio=("simulation", "alternating"),
        max_workers=2,
        seed=SEED,
        executor=executor,
        batch_chunk_size=3,
        verdict_cache=False,
        fault_plan=fault_plan,
    )
    options.update(overrides)
    return Configuration(**options)


def _criteria(batch):
    return [
        entry.result.criterion.value if entry.result is not None else entry.error
        for entry in batch.entries
    ]


@pytest.fixture(scope="module")
def baselines():
    """Fault-free criteria per executor, computed once for the module."""
    return {
        executor: _criteria(
            EquivalenceCheckingManager(_configuration(executor)).verify_batch(_pairs())
        )
        for executor in ("thread", "process")
    }


class TestFaultInjector:
    def test_inactive_without_plan(self):
        injector = FaultInjector(None)
        assert not injector.active
        injector.fire("checker", "simulation")  # no-op
        assert injector.injections == 0

    def test_times_budget_is_respected(self):
        plan = FaultPlan(rules=(FaultRule(site="checker", times=2),))
        injector = FaultInjector(plan)
        for _ in range(2):
            with pytest.raises(FaultInjected):
                injector.fire("checker", "simulation")
        injector.fire("checker", "simulation")  # budget exhausted
        assert injector.injections == 2

    def test_target_narrowing(self):
        plan = FaultPlan(rules=(FaultRule(site="checker", target="simulation"),))
        injector = FaultInjector(plan)
        injector.fire("checker", "alternating")  # different target: no-op
        with pytest.raises(FaultInjected):
            injector.fire("checker", "simulation")

    def test_attempt_keyed_counting_is_deterministic(self):
        # attempt < times fires, attempt >= times does not — independent of
        # injector-local state, so a respawned worker behaves identically.
        plan = FaultPlan(rules=(FaultRule(site="worker", target="3", times=2),))
        for _ in range(2):  # fresh injectors, same decisions
            injector = FaultInjector(plan)
            with pytest.raises(FaultInjected):
                injector.fire("worker", "3", attempt=0)
            with pytest.raises(FaultInjected):
                injector.fire("worker", "3", attempt=1)
            injector.fire("worker", "3", attempt=2)

    def test_probability_is_seeded_and_reproducible(self):
        plan = FaultPlan(
            rules=(FaultRule(site="checker", times=0, probability=0.5),), seed=9
        )

        def outcomes():
            injector = FaultInjector(plan)
            fired = []
            for _ in range(20):
                try:
                    injector.fire("checker", "x")
                    fired.append(False)
                except FaultInjected:
                    fired.append(True)
            return fired

        first, second = outcomes(), outcomes()
        assert first == second
        assert any(first) and not all(first)

    def test_reject_action_raises_service_error(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site="submit", action="reject", status=429, retry_after=0.5),
            )
        )
        with pytest.raises(ServiceError) as excinfo:
            FaultInjector(plan).fire("submit")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after == 0.5

    def test_sleep_action_uses_injected_sleep(self):
        slept = []
        plan = FaultPlan(rules=(FaultRule(site="checker", action="sleep", delay=2.0),))
        FaultInjector(plan, sleep=slept.append).fire("checker", "x")
        assert slept == [2.0]

    def test_journal_site_raises_oserror(self):
        plan = FaultPlan(rules=(FaultRule(site="journal"),))
        injector = FaultInjector(plan)
        with pytest.raises(OSError):
            injector.hook("journal", "verdict_cache")()

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(site="bogus")
        with pytest.raises(ValueError):
            FaultRule(site="checker", action="bogus")
        with pytest.raises(ValueError):
            FaultRule(site="checker", probability=1.5)
        with pytest.raises(TypeError):
            FaultPlan(rules=("not a rule",))

    def test_plan_travels_through_configuration_pickle(self):
        import pickle

        plan = FaultPlan(rules=(FaultRule(site="worker", action="exit"),))
        configuration = _configuration("process", fault_plan=plan)
        clone = pickle.loads(pickle.dumps(configuration))
        assert clone.fault_plan == plan


class TestChaosMatrix:
    """Injected faults must never change verdicts — only how they were won."""

    def _assert_matches_baseline(self, executor, fault_plan, baselines, **overrides):
        # The library's default lineup must match the falsifier-first
        # baseline entry for entry under the same faults.
        default = EquivalenceCheckingManager(
            _configuration(executor, fault_plan=fault_plan, portfolio=None, **overrides)
        )
        assert _criteria(default.verify_batch(_pairs())) == baselines[executor]
        configuration = _configuration(executor, fault_plan=fault_plan, **overrides)
        manager = EquivalenceCheckingManager(configuration)
        batch = manager.verify_batch(_pairs())
        assert _criteria(batch) == baselines[executor]
        return manager

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_transient_checker_crashes(self, executor, baselines):
        plan = FaultPlan(
            rules=(FaultRule(site="checker", target="simulation", times=2),)
        )
        self._assert_matches_baseline(executor, plan, baselines)

    def test_slow_checker_still_agrees(self, baselines):
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="checker", target="simulation", action="sleep",
                    delay=0.02, times=3,
                ),
            )
        )
        self._assert_matches_baseline("thread", plan, baselines)

    def test_journal_write_errors_degrade_without_losing_verdicts(
        self, baselines, tmp_path
    ):
        plan = FaultPlan(rules=(FaultRule(site="journal", times=1),))
        configuration = _configuration(
            "thread",
            fault_plan=plan,
            verdict_cache=True,
            cache_path=tmp_path / "verdicts.journal",
        )
        manager = EquivalenceCheckingManager(configuration)
        batch = manager.verify_batch(_pairs())
        assert _criteria(batch) == baselines["thread"]
        stats = manager.verdict_cache.statistics()
        assert stats["journal_errors"] == 1
        assert stats["path"] is None  # degraded to memory-only

    def test_worker_death_recovers_lost_units(self, baselines):
        # Kill the worker process handling pair #2 once: the pool breaks,
        # gets rebuilt, and only the lost work is re-dispatched.
        plan = FaultPlan(
            rules=(FaultRule(site="worker", target="2", action="exit", times=1),)
        )
        manager = self._assert_matches_baseline("process", plan, baselines)
        stats = manager.batch_statistics()
        assert stats["pool_rebuilds"] >= 1
        assert stats["abandoned_units"] == 0

    def test_poisoned_pair_is_bisected_and_isolated(self, baselines):
        # Pair #2 kills its worker on *every* attempt: after bisection it
        # must be the only entry without a verdict.
        plan = FaultPlan(
            rules=(FaultRule(site="worker", target="2", action="exit", times=0),)
        )
        configuration = _configuration("process", fault_plan=plan, batch_retries=2)
        manager = EquivalenceCheckingManager(configuration)
        batch = manager.verify_batch(_pairs())
        for index, entry in enumerate(batch.entries):
            if index == 2:
                assert entry.result is None
                assert entry.error is not None
            else:
                assert _criteria(batch)[index] == baselines["process"][index]
        stats = manager.batch_statistics()
        assert stats["abandoned_units"] == 1
        assert stats["unit_bisections"] >= 1

    def test_fail_fast_with_zero_batch_retries(self):
        plan = FaultPlan(
            rules=(FaultRule(site="worker", target="2", action="exit", times=0),)
        )
        configuration = _configuration("process", fault_plan=plan, batch_retries=0)
        batch = EquivalenceCheckingManager(configuration).verify_batch(_pairs())
        failed = [entry for entry in batch.entries if entry.result is None]
        assert failed  # no retry budget: the broken unit's pairs fail
        assert len(batch.entries) == len(_pairs())


class TestServiceRetries:
    def test_client_retries_through_a_rejection_storm(self):
        # The first two submissions are rejected with 503 + Retry-After;
        # a retrying client lands the job anyway, deterministically.
        plan = FaultPlan(
            rules=(
                FaultRule(
                    site="submit", action="reject", status=503,
                    retry_after=0.01, times=2,
                ),
            )
        )
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=2, fault_plan=plan),
        )
        server.start_background()
        try:
            slept = []
            client = VerificationClient(
                server.url, timeout=10.0, retries=3, retry_sleep=slept.append
            )
            payload = client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
            assert payload["criterion"] == "equivalent"
            assert client.retries_performed == 2
            # The wire header is ceil'd to whole seconds; the recorded
            # (fake) sleeps prove the hint took precedence over jitter.
            assert slept == [1.0, 1.0]
        finally:
            server.close()

    def test_client_without_retries_sees_the_rejection(self):
        plan = FaultPlan(
            rules=(FaultRule(site="submit", action="reject", status=503, times=1),)
        )
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=2, fault_plan=plan),
        )
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(ghz_ladder(2), ghz_ladder(2))
            assert excinfo.value.status == 503
        finally:
            server.close()

    def test_client_gives_up_after_retry_budget(self):
        plan = FaultPlan(
            rules=(FaultRule(site="submit", action="reject", status=429, times=0),)
        )
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=2, fault_plan=plan),
        )
        server.start_background()
        try:
            client = VerificationClient(
                server.url, timeout=10.0, retries=2, retry_sleep=lambda _: None
            )
            with pytest.raises(ServiceError) as excinfo:
                client.submit(ghz_ladder(2), ghz_ladder(2))
            assert excinfo.value.status == 429
            assert client.retries_performed == 2
        finally:
            server.close()

    def test_per_job_retry_budget_recovers_a_flaky_manager(self):
        service = VerificationService(
            Configuration(seed=SEED, max_workers=2), job_retries=2
        )
        try:
            original = service.manager.run
            failures = {"left": 1}

            def flaky(first, second, **kwargs):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise RuntimeError("transient manager crash")
                return original(first, second, **kwargs)

            service.manager.run = flaky
            job_id = service.submit(ghz_ladder(3), ghz_ladder(3))["job_id"]
            assert service.wait_settled(job_id, timeout=30.0)
            payload = service.job_result(job_id)
            assert payload["criterion"] == "equivalent"
            assert service.job_retries_performed == 1
        finally:
            service.shutdown(wait=True)

    def test_resilience_counters_reach_the_metrics_endpoint(self):
        plan = FaultPlan(
            rules=(FaultRule(site="checker", target="simulation", times=1),)
        )
        server = VerificationServer(
            port=0,
            configuration=Configuration(
                seed=SEED,
                max_workers=2,
                fault_plan=plan,
                breaker_threshold=2,
                portfolio=("simulation", "alternating"),
            ),
        )
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
            text = client.metrics()
            assert 'repro_breaker_state{checker="simulation"}' in text
            assert "repro_journal_events" in text
            assert "repro_batch_resilience_events" in text
            assert "repro_service_draining 0" in text
            stats = client.stats()
            assert "resilience" in stats
            assert stats["resilience"]["breakers"]["simulation"]["failures"] >= 1
        finally:
            server.close()
