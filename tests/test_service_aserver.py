"""End-to-end tests of the asyncio verification server front end.

Mirrors ``tests/test_service_server.py`` for the round-trip basics, then
covers what the async front end adds: bounded-queue backpressure (429 +
``Retry-After``), per-client token-bucket rate limiting, long-poll wakeup
ordering, and thread/async backend agreement on verdict payloads.
"""

import socket
import threading
import time

import pytest

from repro.algorithms import ghz_ladder, ghz_with_bug
from repro.core import Configuration
from repro.exceptions import ServiceError
from repro.service import (
    AsyncVerificationServer,
    VerificationClient,
    VerificationServer,
)

SEED = 5


@pytest.fixture()
def server():
    """A live asyncio server on an ephemeral port, torn down after the test."""
    instance = AsyncVerificationServer(
        port=0, configuration=Configuration(seed=SEED, max_workers=2)
    )
    instance.start_background()
    try:
        yield instance
    finally:
        instance.close()


@pytest.fixture()
def client(server):
    return VerificationClient(server.url, timeout=10.0)


def _hold_worker(service):
    """Make every manager run block on the returned event (test hook)."""
    release = threading.Event()
    original = service.manager.run

    def held(first, second, **kwargs):
        assert release.wait(30.0), "test forgot to release the worker"
        return original(first, second, **kwargs)

    service.manager.run = held
    return release


class TestAsyncRoundTrip:
    def test_health_reports_version(self, client):
        import repro

        payload = client.health()
        assert payload["ok"] is True
        assert payload["version"] == repro.__version__

    def test_submit_wait_result(self, client):
        submission = client.submit(ghz_ladder(3), ghz_ladder(3))
        assert submission["coalesced"] is False
        payload = client.wait(submission["job_id"], timeout=30.0)
        assert payload["criterion"] == "equivalent"
        assert payload["equivalent"] is True
        assert client.status(submission["job_id"])["status"] == "done"

    def test_non_equivalent_verdict(self, client):
        payload = client.verify(ghz_ladder(3), ghz_with_bug(3), timeout=30.0)
        assert payload["criterion"] == "not_equivalent"

    def test_unknown_endpoint_and_method(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request("PUT", "/jobs")
        assert excinfo.value.status == 405

    def test_bad_submission_body_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", {"first": 3, "second": None})
        assert excinfo.value.status == 400

    def test_malformed_request_line_gets_400(self, server):
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            response = sock.recv(4096)
        assert b"400" in response.split(b"\r\n", 1)[0]

    def test_keep_alive_serves_multiple_requests_per_connection(self, server):
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
            for _ in range(3):
                sock.sendall(request)
                chunk = sock.recv(4096)
                assert chunk.startswith(b"HTTP/1.1 200")

    def test_stats_expose_queue_fields(self, client, server):
        stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["queue_limit"] == server.service.queue_limit
        assert "rejected" in stats


class TestLongPoll:
    def test_warm_cache_verify_takes_two_requests(self, client, monkeypatch):
        first, second = ghz_ladder(3), ghz_ladder(3)
        client.verify(first, second, timeout=30.0)  # warm the verdict cache
        calls = []
        original = client._request

        def counting(method, path, payload=None, timeout=None, headers=None):
            calls.append((method, path))
            return original(method, path, payload, timeout, headers=headers)

        monkeypatch.setattr(client, "_request", counting)
        payload = client.verify(first, second, timeout=30.0)
        assert payload["cached"] is True
        assert len(calls) == 2, f"expected submit+result, got {calls}"
        assert calls[0][0] == "POST"
        assert "wait=" in calls[1][1]

    def test_long_poll_blocks_until_settlement_and_wakes_all_waiters(
        self, server, client
    ):
        release = _hold_worker(server.service)
        submission = client.submit(ghz_ladder(3), ghz_ladder(3))
        job_id = submission["job_id"]
        results: list[dict] = []
        errors: list[Exception] = []

        def waiter():
            try:
                results.append(client.result(job_id, wait=20.0))
            except Exception as error:  # noqa: BLE001 - collected for the assertion
                errors.append(error)

        threads = [threading.Thread(target=waiter) for _ in range(3)]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        assert not results, "long-poll answered before the job settled"
        release.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(results) == 3
        assert all(payload["criterion"] == "equivalent" for payload in results)
        assert time.monotonic() - started < 15.0

    def test_zero_wait_is_immediate_409_while_running(self, server, client):
        release = _hold_worker(server.service)
        try:
            submission = client.submit(ghz_ladder(3), ghz_ladder(3))
            with pytest.raises(ServiceError) as excinfo:
                client.result(submission["job_id"])
            assert excinfo.value.status == 409
        finally:
            release.set()

    def test_invalid_wait_value_is_400(self, server, client):
        submission = client.submit(ghz_ladder(3), ghz_ladder(3))
        client.wait(submission["job_id"], timeout=30.0)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/jobs/{submission['job_id']}/result?wait=banana")
        assert excinfo.value.status == 400


class TestBackpressure:
    def test_saturated_queue_answers_429_with_retry_after(self):
        server = AsyncVerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            queue_limit=1,
        )
        server.start_background()
        release = _hold_worker(server.service)
        try:
            client = VerificationClient(server.url, timeout=10.0)
            accepted = client.submit(ghz_ladder(3), ghz_ladder(3))
            assert accepted["coalesced"] is False
            with pytest.raises(ServiceError) as excinfo:
                client.submit(ghz_ladder(4), ghz_ladder(4))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1.0
            # Coalescing duplicates consume no queue slot, so they are
            # accepted even at the high-water mark.
            duplicate = client.submit(ghz_ladder(3), ghz_ladder(3))
            assert duplicate["coalesced"] is True
            assert duplicate["job_id"] == accepted["job_id"]
            release.set()
            payload = client.wait(accepted["job_id"], timeout=30.0)
            assert payload["criterion"] == "equivalent"
            # The queue drained: the previously rejected pair is accepted now.
            assert client.submit(ghz_ladder(4), ghz_ladder(4))["job_id"]
            assert client.stats()["rejected"] == 1
        finally:
            release.set()
            server.close()

    def test_jobs_table_stays_bounded_under_saturating_load(self):
        server = AsyncVerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            queue_limit=2,
        )
        server.start_background()
        release = _hold_worker(server.service)
        try:
            client = VerificationClient(server.url, timeout=10.0)
            outcomes = {"accepted": 0, "rejected": 0}
            for size in range(2, 14):  # twelve distinct pairs against limit 2
                try:
                    client.submit(ghz_ladder(size), ghz_ladder(size))
                    outcomes["accepted"] += 1
                except ServiceError as error:
                    assert error.status == 429
                    assert error.retry_after is not None
                    outcomes["rejected"] += 1
            assert outcomes["accepted"] == 2
            assert outcomes["rejected"] == 10
            assert server.service.queue_depth() <= 2
        finally:
            release.set()
            server.close()


class TestRateLimit:
    def test_token_bucket_rejects_burst_overflow(self):
        server = AsyncVerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=2),
            rate_limit=0.5,
            rate_burst=2,
        )
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            client.submit(ghz_ladder(2), ghz_ladder(2))
            client.submit(ghz_ladder(3), ghz_ladder(3))
            with pytest.raises(ServiceError) as excinfo:
                client.submit(ghz_ladder(4), ghz_ladder(4))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0
            # GETs are not rate limited: the client can still collect.
            assert client.stats()["submitted"] == 2
        finally:
            server.close()


class TestPrunedJobs:
    def test_pruned_job_result_served_from_cache(self):
        server = AsyncVerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            max_finished_jobs=1,
        )
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            first = client.submit(ghz_ladder(3), ghz_ladder(3))
            client.wait(first["job_id"], timeout=30.0)
            second = client.submit(ghz_ladder(4), ghz_ladder(4))
            client.wait(second["job_id"], timeout=30.0)
            # first settled job is pruned (retention=1) but its verdict is
            # still served, flagged as coming from the cache.
            payload = client.result(first["job_id"])
            assert payload["criterion"] == "equivalent"
            assert payload["served_from"] == "verdict_cache"
            with pytest.raises(ServiceError) as excinfo:
                client.status(first["job_id"])
            assert excinfo.value.status == 410
        finally:
            server.close()

    def test_pruned_and_uncached_job_is_a_distinguishable_410(self):
        server = AsyncVerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            max_finished_jobs=1,
            cache=False,
        )
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            first = client.submit(ghz_ladder(3), ghz_ladder(3))
            client.wait(first["job_id"], timeout=30.0)
            second = client.submit(ghz_ladder(4), ghz_ladder(4))
            client.wait(second["job_id"], timeout=30.0)
            with pytest.raises(ServiceError) as excinfo:
                client.wait(first["job_id"], timeout=5.0)
            assert excinfo.value.status == 410
            assert "resubmit" in str(excinfo.value)
        finally:
            server.close()


class TestConcurrency:
    def test_concurrent_identical_submissions_coalesce_to_one_job(self, server):
        # The worker is held until all six submissions are in, so the job
        # cannot settle (and turn a late submission into a fresh cache-hit
        # job) before the last one arrives.
        release = _hold_worker(server.service)
        barrier = threading.Barrier(6)
        results: list[dict] = []
        lock = threading.Lock()

        def submit():
            worker_client = VerificationClient(server.url, timeout=10.0)
            barrier.wait(timeout=10)
            submission = worker_client.submit(ghz_ladder(5), ghz_ladder(5))
            with lock:
                results.append(submission)

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        release.set()
        assert len(results) == 6
        job_ids = {submission["job_id"] for submission in results}
        fresh = [s for s in results if not s["coalesced"]]
        assert len(job_ids) == 1
        assert len(fresh) == 1


class TestMetricsEndpoint:
    REQUIRED_FAMILIES = (
        "repro_service_queue_depth",
        "repro_service_submissions_total",
        "repro_service_coalesced_total",
        "repro_verdict_cache_hit_ratio",
        "repro_checker_latency_seconds",
        "repro_canonical_fingerprints_total",
        "repro_rewrite_reductions_total",
        "repro_rewrite_events_total",
    )

    @staticmethod
    def _assert_parseable_prometheus(text: str) -> dict[str, str]:
        """Minimal format check: TYPE lines agree with sample lines."""
        types: dict[str, str] = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "histogram")
                types[name] = kind
            elif line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                float(value)  # every sample value must parse
                assert series
        return types

    def test_async_metrics_cover_required_families(self, client):
        client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
        client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
        types = self._assert_parseable_prometheus(client.metrics())
        for family in self.REQUIRED_FAMILIES:
            assert family in types, f"missing metric family {family}"
        assert types["repro_checker_latency_seconds"] == "histogram"

    def test_thread_metrics_cover_required_families(self):
        server = VerificationServer(
            port=0, configuration=Configuration(seed=SEED, max_workers=2)
        )
        server.start_background()
        try:
            client = VerificationClient(server.url, timeout=10.0)
            client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
            client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
            types = self._assert_parseable_prometheus(client.metrics())
            for family in self.REQUIRED_FAMILIES:
                assert family in types, f"missing metric family {family}"
        finally:
            server.close()


class TestBackendAgreement:
    #: Payload fields that must be identical across backends; timings and
    #: job ids are inherently volatile and excluded.
    STABLE_FIELDS = ("first", "second", "criterion", "equivalent", "decided_by")

    def test_thread_and_async_backends_return_identical_verdict_payloads(self):
        pairs = [
            (ghz_ladder(3), ghz_ladder(3)),
            (ghz_ladder(3), ghz_with_bug(3)),
        ]
        payloads: dict[str, list[dict]] = {}
        configuration = Configuration(seed=SEED, max_workers=2)
        thread_server = VerificationServer(port=0, configuration=configuration)
        thread_server.start_background()
        try:
            thread_client = VerificationClient(thread_server.url, timeout=10.0)
            payloads["thread"] = [
                thread_client.verify(first, second, timeout=30.0)
                for first, second in pairs
            ]
        finally:
            thread_server.close()
        async_server = AsyncVerificationServer(port=0, configuration=configuration)
        async_server.start_background()
        try:
            async_client = VerificationClient(async_server.url, timeout=10.0)
            payloads["async"] = [
                async_client.verify(first, second, timeout=30.0)
                for first, second in pairs
            ]
        finally:
            async_server.close()
        for thread_payload, async_payload in zip(payloads["thread"], payloads["async"]):
            for field in self.STABLE_FIELDS:
                assert thread_payload.get(field) == async_payload.get(field), field
