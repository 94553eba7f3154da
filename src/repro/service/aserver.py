"""An asyncio front end for the verification job queue (ROADMAP item 2).

The thread-per-request server in :mod:`repro.service.server` is fine for a
lab bench but the wrong substrate for heavy traffic: every idle poll and
every long-poll pins an OS thread.  This module serves the same endpoints
from a single event loop (``asyncio.start_server``; stdlib only), while all
verification work keeps running on the :class:`~repro.service.server.
VerificationService` worker pool — the frontend/backend split of modern
automata tools (Kofola et al.): the transport parses, routes and *sheds
load*; every verification decision stays in the manager.

What the asyncio front end adds over the thread server:

* **Backpressure** — the service's ``queue_limit`` is on by default here:
  once that many jobs are unsettled, ``POST /jobs`` answers ``429`` with a
  ``Retry-After`` header instead of letting ``_jobs`` grow unboundedly.
  Coalesced (duplicate in-flight) submissions are exempt.
* **Per-client rate limiting** — a token bucket per client address for
  ``POST /jobs`` (``rate_limit`` submissions/second, burst ``rate_burst``);
  one chatty client cannot starve the queue for everyone else.
* **Cheap long-polling** — ``GET /jobs/<id>/result?wait=N`` parks an
  ``asyncio.Event`` (woken via ``loop.call_soon_threadsafe`` from the worker
  thread that settles the job) instead of a blocked thread, so thousands of
  waiting clients cost next to nothing.
* ``GET /metrics`` — the same unified Prometheus registry as the thread
  server.
* ``GET /jobs/<id>/trace`` — the same per-job span tree as the thread
  server; a ``Traceparent`` request header on submission joins the job's
  spans to the client's distributed trace.

:class:`AsyncVerificationServer` mirrors :class:`~repro.service.server.
VerificationServer`'s lifecycle (``start_background()`` / ``close()`` /
``url``), so the client, the tests and the CLI treat the two backends
interchangeably.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import threading
import time
from urllib.parse import parse_qs, urlsplit

from repro.core.configuration import Configuration
from repro.exceptions import ServiceError
from repro.obs.logs import fields, get_logger
from repro.service.server import (
    _MAX_BODY_BYTES,
    VerificationService,
    parse_submission,
    parse_wait_seconds,
)

__all__ = ["AsyncVerificationServer"]

_log = get_logger("service.aserver")

#: Maximum size of the request line + headers block.
_MAX_HEADER_BYTES = 64 * 1024

#: Keep-alive idle timeout between requests on one connection.
_KEEPALIVE_TIMEOUT = 75.0

#: Reading a declared request body may not stall longer than this.
_BODY_READ_TIMEOUT = 30.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, capacity ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def try_acquire(self, now: float) -> bool:
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until the next token becomes available."""
        missing = max(0.0, 1.0 - self.tokens)
        return missing / self.rate if self.rate > 0 else 1.0


class AsyncVerificationServer:
    """Asyncio HTTP server over a shared :class:`VerificationService`.

    ``queue_limit`` defaults to ``16 * max_workers`` — deep enough to keep
    the pool busy through bursts, shallow enough that a saturating client
    sees ``429`` within a bounded latency instead of a silently growing
    queue.  Pass ``queue_limit=None`` explicitly for the old unbounded
    behaviour.  ``rate_limit`` (submissions/second per client address) is
    off by default; ``rate_burst`` defaults to ``max(2, 2 * rate_limit)``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        configuration: Configuration | None = None,
        *,
        cache: bool = True,
        max_finished_jobs: int = 1024,
        queue_limit: int | None | str = "auto",
        rate_limit: float | None = None,
        rate_burst: float | None = None,
        job_retries: int = 2,
    ):
        configuration = configuration or Configuration()
        if queue_limit == "auto":
            queue_limit = 16 * configuration.max_workers
        self.service = VerificationService(
            configuration,
            cache=cache,
            max_finished_jobs=max_finished_jobs,
            queue_limit=queue_limit,
            job_retries=job_retries,
        )
        if rate_limit is not None and rate_limit <= 0:
            raise ServiceError("rate_limit must be positive", status=500)
        self.rate_limit = rate_limit
        self.rate_burst = (
            rate_burst if rate_burst is not None else max(2.0, 2.0 * (rate_limit or 0))
        )
        self._host = host
        self._requested_port = port
        self._buckets: dict[str, _TokenBucket] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._bound_port: int | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._m_requests = self.service.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by backend, method and status code.",
            labelnames=("backend", "method", "status"),
        )
        self._m_rejected = self.service.metrics.get("repro_service_rejected_total")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._bound_port is None:
            raise ServiceError("server is not running", status=503)
        return self._bound_port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._requested_port,
            limit=_MAX_HEADER_BYTES,
        )
        self._bound_port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            self._ready.clear()

    def start_background(self, timeout: float = 10.0) -> threading.Thread:
        """Serve on a daemon thread; returns once the port is bound."""

        def runner() -> None:
            try:
                asyncio.run(self._main())
            except BaseException as error:  # noqa: BLE001 - surfaced to the caller
                self._startup_error = error
                self._ready.set()

        self._thread = threading.Thread(
            target=runner, name="averification-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout) or self._bound_port is None:
            error = self._startup_error
            self.service.shutdown(wait=False)
            raise ServiceError(
                f"async server failed to start: {error or 'timed out'}", status=503
            )
        return self._thread

    def drain(self, timeout: float = 30.0) -> bool:
        """Stop accepting new jobs, finish in-flight ones (up to ``timeout``).

        The event loop keeps serving throughout — new submissions get 503 +
        ``Retry-After``, status/result/metrics stay live — so clients can
        collect verdicts for work already accepted.  Runs the (blocking)
        service drain off the event loop thread, which is safe because this
        method is meant for the controlling thread (CLI signal handler,
        tests), never for a coroutine.
        """
        return self.service.drain(timeout)

    def close(self, drain_timeout: float = 0.0) -> None:
        """Shut down; with ``drain_timeout > 0`` drain gracefully first."""
        if drain_timeout > 0:
            self.service.drain(drain_timeout)
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.service.shutdown(wait=False)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        peer = peername[0] if isinstance(peername, tuple) else "unknown"
        try:
            while True:
                try:
                    header_block = await asyncio.wait_for(
                        reader.readuntil(b"\r\n\r\n"), timeout=_KEEPALIVE_TIMEOUT
                    )
                except (
                    asyncio.IncompleteReadError,
                    TimeoutError,
                    ConnectionError,
                ):
                    return
                except asyncio.LimitOverrunError:
                    await self._respond(
                        writer, "?", 431, {"error": "request headers too large"}
                    )
                    return
                keep_alive = await self._handle_request(
                    reader, writer, header_block, peer
                )
                if not keep_alive:
                    return
        except (ConnectionError, OSError):
            return  # client went away mid-exchange; nothing left to say
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        header_block: bytes,
        peer: str,
    ) -> bool:
        try:
            method, target, headers = self._parse_head(header_block)
        except ValueError as error:
            await self._respond(writer, "?", 400, {"error": str(error)})
            return False
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close"

        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            await self._respond(
                writer, method, 400, {"error": "invalid Content-Length header"}
            )
            return False
        if length < 0:
            await self._respond(
                writer, method, 400, {"error": "invalid Content-Length header"}
            )
            return False
        if length > _MAX_BODY_BYTES:
            await self._respond(
                writer,
                method,
                413,
                {"error": f"request body exceeds {_MAX_BODY_BYTES} bytes"},
            )
            return False
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=_BODY_READ_TIMEOUT
                )
            except (asyncio.IncompleteReadError, TimeoutError):
                await self._respond(
                    writer, method, 408, {"error": "timed out reading the request"}
                )
                return False

        try:
            status, payload, headers_out, raw = await self._route(
                method, target, body, peer, headers
            )
        except ServiceError as error:
            headers_out = {}
            if error.retry_after is not None:
                headers_out["Retry-After"] = str(max(1, math.ceil(error.retry_after)))
            await self._respond(
                writer, method, error.status, {"error": str(error)}, headers_out
            )
            return keep_alive
        except Exception as error:  # noqa: BLE001 - a handler bug must not kill the loop
            await self._respond(
                writer, method, 500, {"error": f"{type(error).__name__}: {error}"}
            )
            return keep_alive
        await self._respond(writer, method, status, payload, headers_out, raw=raw)
        return keep_alive

    @staticmethod
    def _parse_head(block: bytes) -> tuple[str, str, dict[str, str]]:
        try:
            text = block.decode("latin-1")
        except UnicodeDecodeError as error:  # pragma: no cover - latin-1 is total
            raise ValueError(f"undecodable request head: {error}") from error
        lines = text.split("\r\n")
        request_line = lines[0].split(" ")
        if len(request_line) != 3:
            raise ValueError(f"malformed request line {lines[0]!r}")
        method, target, version = request_line
        if not version.startswith("HTTP/1."):
            raise ValueError(f"unsupported HTTP version {version!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise ValueError(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        peer: str,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict | str, dict, bool]:
        """Dispatch one request; returns (status, payload, headers, is_raw_text)."""
        split = urlsplit(target)
        parts = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        loop = asyncio.get_running_loop()

        if method == "GET":
            if parts == ["metrics"]:
                return 200, self.service.metrics.render(), {}, True
            if parts == ["stats"]:
                return 200, self.service.stats(), {}, False
            if parts == ["healthz"]:
                return 200, self.service.health(), {}, False
            if len(parts) == 2 and parts[0] == "jobs":
                return 200, self.service.job_status(parts[1]), {}, False
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
                wait = parse_wait_seconds(query)
                if wait > 0:
                    await self._await_settled(parts[1], wait, loop)
                return 200, self.service.job_result(parts[1]), {}, False
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
                return 200, self.service.job_trace(parts[1]), {}, False
            raise ServiceError(f"unknown endpoint {target!r}", status=404)

        if method == "POST":
            if parts != ["jobs"]:
                raise ServiceError(f"unknown endpoint {target!r}", status=404)
            self._check_rate_limit(peer)
            first, second = parse_submission(body)
            # QASM parsing + canonical fingerprinting is CPU work; keep it
            # off the event loop so slow submissions cannot stall long-poll
            # wakeups and health checks.
            result = await loop.run_in_executor(
                None,
                functools.partial(
                    self.service.submit_qasm,
                    first,
                    second,
                    traceparent=(headers or {}).get("traceparent"),
                ),
            )
            return 202, result, {}, False

        raise ServiceError(f"method {method} not allowed", status=405)

    async def _await_settled(
        self, job_id: str, wait: float, loop: asyncio.AbstractEventLoop
    ) -> None:
        event = asyncio.Event()

        def wake() -> None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop shut down while the job was settling

        if not self.service.add_settled_listener(job_id, wake):
            return  # already settled (or unknown/pruned): answer immediately
        try:
            await asyncio.wait_for(event.wait(), timeout=wait)
        except TimeoutError:
            pass  # long-poll budget exhausted; fall through to 409

    def _check_rate_limit(self, peer: str) -> None:
        if self.rate_limit is None:
            return
        now = time.monotonic()
        bucket = self._buckets.get(peer)
        if bucket is None:
            # Bound the table: a scanner cycling source addresses must not
            # grow it forever.  Dropping the stalest bucket refills that
            # client's burst — harmless compared to unbounded growth.
            if len(self._buckets) >= 4096:
                stalest = min(self._buckets, key=lambda key: self._buckets[key].updated)
                del self._buckets[stalest]
            bucket = _TokenBucket(self.rate_limit, self.rate_burst, now)
            self._buckets[peer] = bucket
        if not bucket.try_acquire(now):
            if self._m_rejected is not None:
                self._m_rejected.inc(reason="rate_limit")
            raise ServiceError(
                f"client {peer} exceeded {self.rate_limit:g} submissions/s; "
                "slow down",
                status=429,
                retry_after=bucket.retry_after(),
            )

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        status: int,
        payload: dict | str,
        headers: dict | None = None,
        raw: bool = False,
    ) -> None:
        if raw:
            body = str(payload).encode("utf-8")
            content_type = "text/plain; version=0.0.4"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        head_lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            head_lines.append(f"{name}: {value}")
        head_lines.append("\r\n")
        self._m_requests.inc(backend="async", method=method, status=str(status))
        _log.info(
            "http access",
            **fields(backend="async", method=method, status=status),
        )
        try:
            writer.write("\r\n".join(head_lines).encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            # The client disconnected while we were answering; the request
            # is already fully processed, so drop the connection quietly.
            pass
