"""Round-trip tests of the verification server with its admission controls on.

These tests keep the names they had when the service also shipped an asyncio
front end, whose defaults were a bounded queue and a per-client token bucket.
``VerificationServer`` is now the one front end and has both controls, so the
same round trips run against it here with rate limiting switched on: a
client under its rate sees no difference from an unlimited server.
"""

import pytest

from repro.algorithms import ghz_ladder, ghz_with_bug
from repro.core import Configuration
from repro.exceptions import ServiceError
from repro.service import VerificationClient, VerificationServer

SEED = 5


@pytest.fixture()
def server():
    """A live, rate-limited server on an ephemeral port."""
    instance = VerificationServer(
        port=0,
        configuration=Configuration(seed=SEED, max_workers=2),
        rate_limit=50.0,
        rate_burst=20,
    )
    instance.start_background()
    try:
        yield instance
    finally:
        instance.close()


@pytest.fixture()
def client(server):
    return VerificationClient(server.url, timeout=10.0)


class TestAsyncRoundTrip:
    def test_health_reports_version(self, client, server):
        import repro

        payload = client.health()
        assert payload["ok"] is True
        assert payload["version"] == repro.__version__
        assert client.stats()["queue_limit"] == server.service.queue_limit

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
        assert client.stats()["rejected"] == 0

    def test_bad_submission_body_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/jobs", {"first": 3, "second": None})
        assert excinfo.value.status == 400
