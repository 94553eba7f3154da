"""End-to-end tests of the verification job-queue server and client."""

import http.client
import json
import select
import socket
import sys
import threading
import time

import pytest

from repro.algorithms import ghz_ladder, ghz_with_bug, qft_dynamic, qft_static_benchmark
from repro.cli import build_parser, main
from repro.core import Configuration
from repro.exceptions import ServiceError
from repro.service import VerificationClient, VerificationServer, VerificationService
from repro.service import server as server_module

SEED = 5


@pytest.fixture()
def server():
    """A live server on an ephemeral port, torn down after the test."""
    instance = VerificationServer(
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


def _exchange(port: int, request: bytes) -> tuple[str, dict[str, str], bytes]:
    """Send raw bytes, read to EOF: (status line, headers, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return status_line, headers, body


class TestServerRoundTrip:
    def test_health_reports_version(self, client):
        import repro

        payload = client.health()
        assert payload["ok"] is True
        assert payload["version"] == repro.__version__

    def test_submit_poll_result(self, client):
        first, second = ghz_ladder(3), ghz_ladder(3)
        submission = client.submit(first, second)
        assert submission["coalesced"] is False
        assert submission["fingerprint"]
        payload = client.wait(submission["job_id"], timeout=30.0)
        assert payload["criterion"] == "equivalent"
        assert payload["equivalent"] is True
        assert payload["decided_by"] is not None
        status = client.status(submission["job_id"])
        assert status["status"] == "done"

    def test_non_equivalent_verdict(self, client):
        payload = client.verify(ghz_ladder(3), ghz_with_bug(3), timeout=30.0)
        assert payload["criterion"] == "not_equivalent"
        assert payload["equivalent"] is False

    def test_repeat_submission_is_served_from_the_cache(self, client):
        first, second = ghz_ladder(4), ghz_ladder(4)
        cold = client.verify(first, second, timeout=30.0)
        warm = client.verify(first, second, timeout=30.0)
        assert warm["criterion"] == cold["criterion"]
        assert cold["cached"] is False
        assert warm["cached"] is True

    def test_qasm_string_submission(self, client):
        payload = client.verify(
            ghz_ladder(3).to_qasm(), ghz_ladder(3).to_qasm(), timeout=30.0
        )
        assert payload["criterion"] == "equivalent"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_malformed_submission_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.verify("OPENQASM 2.0; nonsense", ghz_ladder(2).to_qasm())
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", {"first": 1, "second": 2})
        assert excinfo.value.status == 400


def _post_jobs(body: bytes) -> bytes:
    return (
        b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


#: Malformed requests, each of which must get a 4xx with a JSON error body.
MALFORMED_REQUESTS = {
    "garbage-request-line": b"HELLO\r\n\r\n",
    "http-2-request-line": b"GET /healthz HTTP/2.0\r\n\r\n",
    "http-0.9-request-line": b"GET /healthz\r\n",
    "70kb-header": b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
    "200-headers": b"GET /healthz HTTP/1.1\r\n"
    + b"".join(b"X-%d: y\r\n" % index for index in range(200))
    + b"\r\n",
    "chunked-post": b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"2\r\n{}\r\n0\r\n\r\n",
    "negative-content-length": b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    "body-[]": _post_jobs(b"[]"),
    "body-null": _post_jobs(b"null"),
    'body-"x"': _post_jobs(b'"x"'),
    "body-42": _post_jobs(b"42"),
    "body-non-string-circuits": _post_jobs(b'{"first": 1, "second": 2}'),
    "body-{}": _post_jobs(b"{}"),
    "put": b"PUT /jobs HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    "delete": b"DELETE /jobs/job-000001 HTTP/1.1\r\n\r\n",
}


@pytest.mark.parametrize("name", list(MALFORMED_REQUESTS))
def test_malformed_request_gets_a_json_4xx(server, name):
    # Regression: PUT/DELETE got 501, parser errors got stdlib HTML bodies,
    # and a one-word request line got a bare body without a status line.
    status_line, headers, body = _exchange(server.port, MALFORMED_REQUESTS[name])
    status = int(status_line.split(" ")[1])
    assert status_line.startswith("HTTP/1.") and 400 <= status < 500, status_line
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body)["error"]
    if name in ("put", "delete"):
        assert status == 405
        assert headers["Allow"] == "GET, POST"


class TestRequestDeduplication:
    def test_concurrent_identical_submissions_coalesce(self):
        # One worker, held busy by a warmup job until both identical
        # submissions that follow are queued — the second MUST coalesce onto
        # the first instead of queueing a second run.
        server = VerificationServer(
            port=0, configuration=Configuration(seed=SEED, max_workers=1)
        )
        server.start_background()
        client = VerificationClient(server.url, timeout=10.0)
        release = threading.Event()
        original_run = server.service.manager.run

        def held_run(first, second, **kwargs):
            assert release.wait(30.0), "test forgot to release the worker"
            return original_run(first, second, **kwargs)

        server.service.manager.run = held_run
        try:
            warmup = client.submit(qft_static_benchmark(6), qft_dynamic(6))
            first, second = ghz_ladder(4), ghz_ladder(4)
            submission_one = client.submit(first, second)
            submission_two = client.submit(first, second)
            release.set()

            assert submission_one["coalesced"] is False
            assert submission_two["coalesced"] is True
            assert submission_two["job_id"] == submission_one["job_id"]

            verdict_one = client.wait(submission_one["job_id"], timeout=60.0)
            verdict_two = client.wait(submission_two["job_id"], timeout=60.0)
            assert verdict_one == verdict_two
            assert verdict_one["criterion"] == "equivalent"
            client.wait(warmup["job_id"], timeout=60.0)

            stats = client.stats()
            assert stats["coalesced"] == 1
            assert stats["submitted"] == 3
            assert stats["executed"] == 2  # warmup + one run for the pair
        finally:
            release.set()
            server.close()

    def test_resubmission_after_completion_queues_a_fresh_job(self, client):
        first, second = ghz_ladder(3), ghz_ladder(3)
        submission = client.submit(first, second)
        client.wait(submission["job_id"], timeout=30.0)
        again = client.submit(first, second)
        assert again["coalesced"] is False
        assert again["job_id"] != submission["job_id"]
        # ... but the fresh job is a verdict-cache hit, not a re-verification.
        assert client.wait(again["job_id"], timeout=30.0)["cached"] is True

    def test_stats_expose_cache_statistics(self, client):
        first, second = ghz_ladder(3), ghz_ladder(3)
        client.verify(first, second, timeout=30.0)
        client.verify(first, second, timeout=30.0)
        stats = client.stats()
        assert stats["cache"] is not None
        assert stats["cache"]["hits"] >= 1
        assert stats["jobs"].get("done", 0) >= 2


    def test_concurrent_http_submissions_coalesce_to_one_job(self, server):
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


class TestCrossLevelCacheHit:
    def test_other_translation_level_is_a_verdict_cache_hit(self, client):
        from repro.compilation import rewrite_single_qubit_to_u

        first = ghz_ladder(3)
        cold = client.verify(first, first.copy(), timeout=30.0)
        assert cold["cached"] is False
        # The same pair at another translation level: raw fingerprints
        # differ, the canonical (translation-level-invariant) key hits.
        translated = rewrite_single_qubit_to_u(first)
        warm = client.verify(translated, translated.copy(), timeout=30.0)
        assert warm["cached"] is True
        assert warm["cached_via"] == "canonical_fingerprint"
        assert warm["criterion"] == cold["criterion"]
        stats = client.stats()
        assert stats["canonicalization"]["cache_hits"] >= 1


class TestServiceInProcess:
    def test_finished_jobs_are_pruned_beyond_the_retention_bound(self):
        service = VerificationService(
            Configuration(seed=SEED, max_workers=1), max_finished_jobs=2
        )
        try:
            job_ids = []
            for size in (2, 3, 4):  # three distinct pairs, run sequentially
                submission = service.submit(ghz_ladder(size), ghz_ladder(size))
                job_ids.append(submission["job_id"])
                deadline = 30.0
                while service.job_status(submission["job_id"])["status"] != "done":
                    time.sleep(0.01)
                    deadline -= 0.01
                    assert deadline > 0, "job did not finish"
            # Oldest settled job fell off the retention window: its status is
            # gone, but distinguishably so (410 "pruned", not a bare 404 as
            # for a job id this server never issued) ...
            with pytest.raises(ServiceError) as excinfo:
                service.job_status(job_ids[0])
            assert excinfo.value.status == 410
            with pytest.raises(ServiceError) as excinfo:
                service.job_status("job-999999")
            assert excinfo.value.status == 404
            # ... and its verdict is still served from the cache.
            pruned_result = service.job_result(job_ids[0])
            assert pruned_result["served_from"] == "verdict_cache"
            # ... the newest two are still pollable, and the verdict cache
            # still remembers the pruned pair.
            assert service.job_status(job_ids[2])["status"] == "done"
            resubmit = service.submit(ghz_ladder(2), ghz_ladder(2))
            while service.job_status(resubmit["job_id"])["status"] != "done":
                time.sleep(0.01)
            assert service.job_result(resubmit["job_id"])["cached"] is True
        finally:
            service.shutdown()

    def test_bogus_content_length_is_rejected(self, server):
        import http.client

        for value, expected in (("abc", 400), ("-5", 400), (str(10**9), 413)):
            connection = http.client.HTTPConnection(
                server.server_address[0], server.port, timeout=5
            )
            try:
                connection.putrequest("POST", "/jobs", skip_accept_encoding=True)
                connection.putheader("Content-Length", value)
                connection.endheaders()
                response = connection.getresponse()
                assert response.status == expected, (value, response.status)
                response.read()
            finally:
                connection.close()

    def test_stalled_body_does_not_pin_a_handler_thread(self, monkeypatch):
        # A client that claims a large Content-Length and then stalls must be
        # disconnected by the handler's socket timeout, not serviced forever.
        import socket

        from repro.service.server import _ServiceRequestHandler

        monkeypatch.setattr(_ServiceRequestHandler, "timeout", 0.5)
        stalled_server = VerificationServer(
            port=0, configuration=Configuration(seed=SEED, max_workers=1)
        )
        stalled_server.start_background()
        try:
            with socket.create_connection(
                (stalled_server.server_address[0], stalled_server.port), timeout=5
            ) as raw:
                raw.sendall(
                    b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 1000\r\n\r\npartial"
                )
                raw.settimeout(5)
                # Once its read times out the server answers 408 (if the
                # socket still accepts it) and closes the connection.
                received = b""
                while True:
                    chunk = raw.recv(4096)
                    if not chunk:
                        break
                    received += chunk
                assert received == b"" or b" 408 " in received.split(b"\r\n", 1)[0]
            # The worker thread is free again: a well-formed request succeeds.
            client = VerificationClient(stalled_server.url, timeout=10.0)
            assert client.health()["ok"] is True
        finally:
            stalled_server.close()

    def test_service_enables_the_verdict_cache_by_default(self):
        service = VerificationService(Configuration(seed=SEED))
        try:
            assert service.manager.verdict_cache is not None
        finally:
            service.shutdown(wait=False)

    def test_cache_false_opts_out(self):
        service = VerificationService(Configuration(seed=SEED), cache=False)
        try:
            assert service.manager.verdict_cache is None
        finally:
            service.shutdown(wait=False)

    def test_ultra_tight_tolerance_disables_coalescing(self):
        service = VerificationService(
            Configuration(seed=SEED, tolerance=1e-13, max_workers=1)
        )
        try:
            # Keep the single worker busy so both submissions stay queued —
            # they must still get distinct jobs at this tolerance.
            service.submit(qft_static_benchmark(6), qft_dynamic(6))
            first, second = ghz_ladder(4), ghz_ladder(4)
            one = service.submit(first, second)
            two = service.submit(first, second)
            assert one["coalesced"] is False and two["coalesced"] is False
            assert one["job_id"] != two["job_id"]
        finally:
            service.shutdown()

    def test_submit_after_shutdown_fails_cleanly(self):
        service = VerificationService(Configuration(seed=SEED))
        service.shutdown()
        first, second = ghz_ladder(3), ghz_ladder(3)
        with pytest.raises(ServiceError) as excinfo:
            service.submit(first, second)
        assert excinfo.value.status == 503
        # The dead submission left nothing behind: no husk job to coalesce
        # onto, no stuck in-flight fingerprint.
        assert service.stats()["in_flight"] == 0
        assert service.stats()["jobs"] == {}

    def test_status_reads_are_never_torn_while_job_settles(self):
        # Regression: _execute used to mutate job fields outside the service
        # lock, so a concurrent job_status could observe status == "done" with
        # finished_at/result still unset.  Hammer status from several threads
        # while jobs settle and assert every snapshot is internally consistent.
        service = VerificationService(Configuration(seed=SEED, max_workers=2))
        try:
            submissions = [
                service.submit(ghz_ladder(size), ghz_ladder(size))
                for size in (2, 3, 4)
            ]
            job_ids = [submission["job_id"] for submission in submissions]
            torn: list[dict] = []
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    for job_id in job_ids:
                        snapshot = service.job_status(job_id)
                        if snapshot["status"] == "done" and (
                            snapshot["finished_at"] is None
                            or service.job_result(job_id) is None
                        ):
                            torn.append(snapshot)
                        if snapshot["status"] == "running" and (
                            snapshot["started_at"] is None
                        ):
                            torn.append(snapshot)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            try:
                for job_id in job_ids:
                    assert service.wait_settled(job_id, timeout=30.0)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=10.0)
            assert torn == []
        finally:
            service.shutdown()

    def test_wait_settled(self):
        service = VerificationService(Configuration(seed=SEED, max_workers=1))
        try:
            submission = service.submit(ghz_ladder(3), ghz_ladder(3))
            assert service.wait_settled(submission["job_id"], timeout=30.0)
            assert service.job_status(submission["job_id"])["status"] == "done"
            # Unknown ids report settled immediately (nothing to wait for).
            assert service.wait_settled("job-999999", timeout=0.1)
        finally:
            service.shutdown()

    def test_thread_backend_queue_limit_backpressure(self):
        service = VerificationService(
            Configuration(seed=SEED, max_workers=1), queue_limit=1
        )
        try:
            gate = threading.Event()
            original = service.manager.run

            def held(first, second, **kwargs):
                assert gate.wait(30.0)
                return original(first, second, **kwargs)

            service.manager.run = held
            accepted = service.submit(ghz_ladder(3), ghz_ladder(3))
            with pytest.raises(ServiceError) as excinfo:
                service.submit(ghz_ladder(4), ghz_ladder(4))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            gate.set()
            assert service.wait_settled(accepted["job_id"], timeout=30.0)
            assert service.submit(ghz_ladder(4), ghz_ladder(4))["job_id"]
            assert service.stats()["rejected"] == 1
        finally:
            gate.set()
            service.shutdown()

    def test_server_forwards_cache_and_retention_knobs(self):
        server = VerificationServer(
            port=0,
            configuration=Configuration(seed=SEED, max_workers=1),
            cache=False,
            max_finished_jobs=7,
            queue_limit=3,
        )
        try:
            assert server.service.manager.verdict_cache is None
            assert server.service.max_finished_jobs == 7
            assert server.service.queue_limit == 3
        finally:
            server.close()
        unbounded = VerificationServer(port=0, queue_limit=None)
        try:
            assert unbounded.service.queue_limit is None
        finally:
            unbounded.close()

    def test_many_concurrent_submissions_one_execution(self):
        service = VerificationService(Configuration(seed=SEED, max_workers=2))
        # Held until all four submissions are in: a job that settles early
        # turns a late submission into a fresh (cache-hit) job.
        release = _hold_worker(service)
        try:
            first, second = qft_static_benchmark(5), qft_dynamic(5)
            outcomes = []
            barrier = threading.Barrier(4)

            def submit():
                barrier.wait()
                outcomes.append(service.submit(first, second))

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            job_ids = {outcome["job_id"] for outcome in outcomes}
            assert len(job_ids) == 1
            assert sum(outcome["coalesced"] for outcome in outcomes) == 3
        finally:
            release.set()
            service.shutdown()


class TestBackpressure:
    def test_default_queue_limit_answers_429_with_retry_after(self):
        # One worker: the default limit is 16 unsettled jobs.
        server = VerificationServer(
            port=0, configuration=Configuration(seed=SEED, max_workers=1)
        )
        server.start_background()
        release = _hold_worker(server.service)
        try:
            client = VerificationClient(server.url, timeout=10.0)
            assert client.stats()["queue_limit"] == 16
            for size in range(2, 18):
                client.submit(ghz_ladder(size), ghz_ladder(size))
            with pytest.raises(ServiceError) as excinfo:
                client.submit(ghz_ladder(18), ghz_ladder(18))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1.0
        finally:
            release.set()
            server.close()

    def test_saturated_queue_answers_429_with_retry_after(self):
        server = VerificationServer(
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
        server = VerificationServer(
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
        server = VerificationServer(
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
            assert (
                'repro_service_rejected_total{reason="rate_limit"} 1'
                in client.metrics()
            )
        finally:
            server.close()

    def test_client_table_forgets_the_least_recent_client(self, monkeypatch):
        monkeypatch.setattr(server_module, "_MAX_RATE_LIMITED_CLIENTS", 2)
        limiter = server_module._RateLimiter(rate=0.001, burst=1)
        assert limiter.acquire("a") is None
        assert limiter.acquire("a") > 0  # bucket empty
        assert limiter.acquire("b") is None
        assert limiter.acquire("c") is None  # evicts "a", the least recent
        assert limiter.acquire("a") is None  # a forgotten client starts full
        assert len(limiter._buckets) == 2

    def test_burst_without_rate_is_an_error(self, capsys):
        assert main(["serve", "--port", "0", "--rate-burst", "5"]) == 2
        assert "rate_burst needs a rate_limit" in capsys.readouterr().err

    def test_concurrent_acquires_never_overdraw_a_bucket(self):
        limiter = server_module._RateLimiter(rate=1e-9, burst=50)
        granted: list[bool] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def hammer():
                for _ in range(100):
                    granted.append(limiter.acquire("client") is None)

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(granted) == 800
        assert sum(granted) == 50


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

    def test_invalid_wait_value_is_400(self, client):
        submission = client.submit(ghz_ladder(3), ghz_ladder(3))
        client.wait(submission["job_id"], timeout=30.0)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/jobs/{submission['job_id']}/result?wait=banana")
        assert excinfo.value.status == 400


class TestPrunedJobs:
    def test_pruned_job_result_served_from_cache(self):
        server = VerificationServer(
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
        server = VerificationServer(
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


class TestMetricsEndpoint:
    REQUIRED_FAMILIES = (
        "repro_http_requests_total",
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

    def test_metrics_cover_required_families(self, client):
        client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
        client.verify(ghz_ladder(3), ghz_ladder(3), timeout=30.0)
        text = client.metrics()
        types = self._assert_parseable_prometheus(text)
        for family in self.REQUIRED_FAMILIES:
            assert family in types, f"missing metric family {family}"
        assert types["repro_checker_latency_seconds"] == "histogram"
        assert 'repro_http_requests_total{method="POST", status="202"} 2' in text


class TestConnectionLimits:
    def test_listen_backlog_absorbs_a_burst_of_connects(self):
        # Regression: the stdlib backlog of 5 left connects past it waiting
        # about 1 s for the kernel's SYN retransmit.  Nothing accepts here,
        # so every handshake below is completed by the backlog alone.
        server = VerificationServer(port=0, configuration=Configuration(seed=SEED))
        sockets = [socket.socket() for _ in range(16)]
        try:
            for sock in sockets:
                sock.setblocking(False)
                sock.connect_ex(("127.0.0.1", server.port))
            pending = set(sockets)
            deadline = time.monotonic() + 0.5
            while pending and time.monotonic() < deadline:
                _, connected, _ = select.select(
                    [], list(pending), [], deadline - time.monotonic()
                )
                pending -= set(connected)
            assert not pending, f"{len(pending)} of 16 connects still pending"
            for sock in sockets:
                assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) == 0
        finally:
            for sock in sockets:
                sock.close()
            server.close()

    def test_handler_cap_answers_503_with_retry_after(self, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_HANDLER_THREADS", 2)
        server = VerificationServer(
            port=0, configuration=Configuration(seed=SEED, max_workers=1)
        )
        server.start_background()
        release = _hold_worker(server.service)
        try:
            # The client retries 503s: a waiter that races a probe below for
            # the last slot comes back after Retry-After.
            client = VerificationClient(server.url, timeout=30.0, retries=5)
            job_id = client.submit(ghz_ladder(3), ghz_ladder(3))["job_id"]
            waiters = [
                threading.Thread(
                    target=client.result, args=(job_id,), kwargs={"wait": 20.0}
                )
                for _ in range(2)
            ]
            for waiter in waiters:
                waiter.start()
            # Both long-polls hold a handler thread once they are parked.
            deadline = time.monotonic() + 10.0
            while True:
                status_line, headers, body = _exchange(
                    server.port, b"GET /healthz HTTP/1.0\r\n\r\n"
                )
                if " 503 " in status_line or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert status_line.startswith("HTTP/1.0 503 "), status_line
            assert headers["Retry-After"] == "1"
            assert "busy" in json.loads(body)["error"]
            release.set()
            for waiter in waiters:
                waiter.join(timeout=30.0)
                assert not waiter.is_alive()
            # The long-polls returned their threads: requests are served again.
            assert client.health()["ok"] is True
        finally:
            release.set()
            server.close()


class TestServeCli:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8111
        assert args.scheduler == "adaptive"
        assert args.cache_path is None

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro-qcec {repro.__version__}" in capsys.readouterr().out


class TestBatchCacheCli:
    def test_batch_verdict_cache_dedupes_and_reports(self, tmp_path, capsys):
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text(ghz_ladder(3).to_qasm(), encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "# duplicate-heavy manifest\n\nghz.qasm ghz.qasm\n" * 3, encoding="utf-8"
        )
        code = main(["batch", str(manifest), "--verdict-cache", "--json"])
        assert code == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["hits"] >= 2
        assert payload["entries"][0]["cached"] is False
        assert payload["entries"][1]["cached"] is True

    def test_batch_cache_path_warm_rerun(self, tmp_path, capsys):
        qasm_a = tmp_path / "a.qasm"
        qasm_a.write_text(ghz_ladder(3).to_qasm(), encoding="utf-8")
        qasm_b = tmp_path / "b.qasm"
        qasm_b.write_text(ghz_ladder(3).to_qasm(), encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("a.qasm b.qasm\n", encoding="utf-8")
        cache_path = tmp_path / "verdicts.jsonl"

        assert main(["batch", str(manifest), "--cache-path", str(cache_path)]) == 0
        capsys.readouterr()
        assert main(["batch", str(manifest), "--cache-path", str(cache_path)]) == 0
        import json

        assert cache_path.exists()
        capsys.readouterr()
        assert (
            main(["batch", str(manifest), "--cache-path", str(cache_path), "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"][0]["cached"] is True

    def test_manifest_comment_and_blank_lines_skipped_with_line_numbers(
        self, tmp_path, capsys
    ):
        qasm = tmp_path / "ghz.qasm"
        qasm.write_text(ghz_ladder(3).to_qasm(), encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "# header comment\n"
            "\n"
            "ghz.qasm ghz.qasm  # trailing comment\n"
            "\n"
            "ghz.qasm\n",  # line 5: malformed
            encoding="utf-8",
        )
        code = main(["batch", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 5" in err

    def test_json_manifest_error_names_the_entry(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('[["a.qasm", "b.qasm"], ["only-one.qasm"]]', encoding="utf-8")
        code = main(["batch", str(manifest)])
        assert code == 2
        assert "entry 1" in capsys.readouterr().err
