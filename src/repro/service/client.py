"""A stdlib-only client for the verification job-queue servers.

Mirrors the endpoints of :mod:`repro.service.server` one method per
endpoint, plus the ``submit → wait → result`` convenience loop every caller
would otherwise rewrite.
Accepts circuits as :class:`~repro.circuit.circuit.QuantumCircuit` objects
(exported to QASM on the wire) or as raw OpenQASM 2 strings.

:meth:`VerificationClient.wait` *long-polls*: it asks the server to block
the result request until the job settles (``GET /jobs/<id>/result?wait=N``),
so a warm-cache verification completes in two HTTP requests — one submit,
one result — instead of a 50 ms poll loop.  Against a server that ignores
``?wait=`` the client degrades gracefully to sleeping between polls.

With ``retries=N`` the client transparently retries requests the server
refused with 429/503 — or could not answer at all (connection errors) —
honoring the server's ``Retry-After`` hint when present and otherwise
backing off with capped decorrelated jitter
(:class:`~repro.resilience.retry.RetryPolicy`).  Retrying a submit is safe:
the server coalesces identical in-flight submissions by fingerprint, so a
retried submit lands on the same job.  The default is ``retries=0`` —
callers that implement their own backpressure handling see every 429.

Example
-------
>>> from repro.service import VerificationClient, VerificationServer
>>> server = VerificationServer(port=0)          # ephemeral port
>>> thread = server.start_background()
>>> client = VerificationClient(server.url)
>>> payload = client.verify(first, second)       # doctest: +SKIP
>>> payload["criterion"]                         # doctest: +SKIP
'equivalent'
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

from repro.exceptions import ServiceError
from repro.obs import trace
from repro.resilience.retry import RetryPolicy

__all__ = ["VerificationClient"]

#: HTTP statuses worth retrying: overload shedding and transient
#: unavailability.  Everything else (404/409/410/4xx misuse/500 job
#: failures) is either caller-visible protocol state or a real error.
_RETRYABLE_STATUSES = frozenset({429, 503})

#: Cap on one long-poll request; matches the server-side cap so a client
#: asking for more simply re-issues the request.
_MAX_WAIT_PER_REQUEST = 30.0

#: Extra socket-timeout slack on top of the requested long-poll budget, so
#: the HTTP timeout fires only when the server is genuinely unresponsive.
_WAIT_GRACE = 10.0


def _as_qasm(circuit) -> str:
    if isinstance(circuit, str):
        return circuit
    return circuit.to_qasm()


def _retry_after_from(error: urllib.error.HTTPError) -> float | None:
    value = error.headers.get("Retry-After") if error.headers else None
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


class VerificationClient:
    """HTTP client for a :class:`~repro.service.server.VerificationServer`.

    ``retries`` bounds how many times one logical request is re-issued after
    a retryable failure (429/503/connection error); ``retry_base`` /
    ``retry_cap`` shape the jittered backoff between tries.  ``retry_rng``
    and ``retry_sleep`` are injectable for deterministic tests.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 10.0,
        *,
        retries: int = 0,
        retry_base: float = 0.1,
        retry_cap: float = 5.0,
        retry_rng: random.Random | None = None,
        retry_sleep=time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self._retry_base = retry_base
        self._retry_cap = retry_cap
        self._retry_rng = retry_rng
        self._retry_sleep = retry_sleep
        #: Lifetime count of retried requests (observability / tests).
        self.retries_performed = 0

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float | None = None,
        headers: dict | None = None,
    ) -> dict:
        if self.retries <= 0:
            return self._request_once(method, path, payload, timeout, headers)
        # One fresh policy per logical request: backoff history must not
        # leak across unrelated calls, and a per-request policy needs no
        # locking for concurrent callers sharing the client.
        policy = RetryPolicy(
            attempts=self.retries,
            base=self._retry_base,
            cap=self._retry_cap,
            rng=self._retry_rng,
            sleep=self._retry_sleep,
        )
        remaining = self.retries
        while True:
            try:
                return self._request_once(method, path, payload, timeout, headers)
            except ServiceError as error:
                if remaining <= 0 or error.status not in _RETRYABLE_STATUSES:
                    raise
                remaining -= 1
                self.retries_performed += 1
                policy.backoff(error.retry_after)

    def _request_once(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        timeout: float | None = None,
        extra_headers: dict | None = None,
    ) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if extra_headers:
            headers.update(extra_headers)
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            try:
                detail = json.loads(error.read().decode("utf-8")).get("error", "")
            except ValueError:
                detail = ""
            raise ServiceError(
                detail or f"{method} {path} failed with HTTP {error.code}",
                status=error.code,
                retry_after=_retry_after_from(error),
            ) from error
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach verification server at {self.base_url}: {error.reason}",
                status=503,
            ) from error

    def _request_text(self, path: str) -> str:
        request = urllib.request.Request(f"{self.base_url}{path}", method="GET")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise ServiceError(
                f"GET {path} failed with HTTP {error.code}", status=error.code
            ) from error
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach verification server at {self.base_url}: {error.reason}",
                status=503,
            ) from error

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def submit(self, first, second, *, traceparent: str | None = None) -> dict:
        """Submit a pair; returns ``{"job_id", "fingerprint", "coalesced"}``.

        A server shedding load answers 429; the raised :class:`ServiceError`
        then carries the server's ``Retry-After`` hint in ``retry_after``.

        The submission carries a W3C ``Traceparent`` header so the server-
        side job execution joins the caller's distributed trace: an explicit
        ``traceparent`` wins, otherwise the ambient active span's position
        (:func:`repro.obs.trace.current_traceparent`) is used, and without
        either the header is omitted (the server roots a fresh trace).
        """
        if traceparent is None:
            traceparent = trace.current_traceparent()
        return self._request(
            "POST",
            "/jobs",
            {"first": _as_qasm(first), "second": _as_qasm(second)},
            headers={"Traceparent": traceparent} if traceparent else None,
        )

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str, wait: float | None = None) -> dict:
        """The verdict payload (raises :class:`ServiceError` 409 while pending).

        ``wait`` long-polls: the server holds the request until the job
        settles or ``wait`` seconds pass, then answers as usual.
        """
        if wait is None:
            return self._request("GET", f"/jobs/{job_id}/result")
        wait = min(max(0.0, wait), _MAX_WAIT_PER_REQUEST)
        return self._request(
            "GET",
            f"/jobs/{job_id}/result?wait={wait:g}",
            timeout=wait + max(self.timeout, _WAIT_GRACE),
        )

    def trace(self, job_id: str) -> dict:
        """The span tree of a settled job (``GET /jobs/<id>/trace``)."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The server's Prometheus text exposition (``GET /metrics``)."""
        return self._request_text("/metrics")

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    def wait(self, job_id: str, timeout: float = 60.0, poll_interval: float = 0.05) -> dict:
        """Block until the job settles; returns the verdict payload.

        Issues long-poll result requests, so a settled (or warm-cache) job
        costs exactly one request.  Raises :class:`ServiceError` 504 if the
        deadline passes first, propagates the server's 500 for a failed job,
        and translates the 410 of a pruned-and-uncached job into an
        actionable "resubmit" error.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id!r} still unsettled after {timeout}s", status=504
                )
            requested = min(remaining, _MAX_WAIT_PER_REQUEST)
            issued_at = time.monotonic()
            try:
                return self.result(job_id, wait=requested)
            except ServiceError as error:
                if error.status == 410:
                    raise ServiceError(
                        f"job {job_id!r} was pruned before its result was fetched "
                        f"and is no longer cached; resubmit the pair ({error})",
                        status=410,
                    ) from error
                if error.status != 409:
                    raise
                # Still pending.  A long-polling server only answers 409
                # after blocking for most of the requested window; a server
                # that ignored ``?wait=`` answers immediately — sleep before
                # retrying so we degrade to polling instead of busy-looping.
                elapsed = time.monotonic() - issued_at
                if elapsed < min(requested, 1.0) / 2:
                    time.sleep(min(poll_interval, max(0.0, deadline - time.monotonic())))

    def verify(self, first, second, timeout: float = 60.0) -> dict:
        """Submit one pair and block until its verdict is available."""
        submission = self.submit(first, second)
        return self.wait(submission["job_id"], timeout=timeout)
