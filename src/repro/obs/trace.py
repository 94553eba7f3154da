"""Contextvars-based distributed tracing with W3C ``traceparent`` propagation.

A :class:`Tracer` owns one trace (a ``trace_id`` plus a bounded store of
finished :class:`Span` objects).  Instrumented code never touches the tracer
directly — it calls the module-level :func:`span` context manager, which
reads the ambient trace scope from a :class:`contextvars.ContextVar`:

* with no tracer activated, :func:`span` yields a shared no-op span and the
  instrumentation point costs one contextvar read;
* with a tracer activated (:func:`activate`), each ``span()`` creates a
  child of the current span, installs itself as current for the duration of
  the ``with`` block, and records itself into the tracer on exit.

Because the scope lives in a contextvar, propagation follows Python's
context rules: ``async`` tasks inherit it automatically, worker *threads* do
not — thread-pool call sites must ship a ``contextvars.copy_context()``
(see ``EquivalenceCheckingManager._batch_entries_threads``) — and worker
*processes* cannot share objects at all, so the process-pool batch path
serializes the parent's position as a W3C ``traceparent`` string
(:func:`current_traceparent`), rebuilds a tracer from it on the far side
(:func:`Tracer.from_traceparent`), and ships the finished spans back as
dicts for the parent to :meth:`Tracer.adopt`.  The same ``traceparent``
format carries trace context in HTTP headers between
:class:`~repro.service.client.VerificationClient` and both server backends.

Exports: :func:`span_tree` nests finished spans by parentage (the shape
served at ``GET /jobs/<id>/trace`` and embedded in ``verify --json``);
:func:`export_chrome` / :meth:`Tracer.export_chrome` emit Chrome
trace-event JSON loadable in ``chrome://tracing`` or perfetto.

Stdlib only; imports nothing from the rest of the package.
"""

from __future__ import annotations

import contextvars
import os
import re
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "NOOP_SPAN",
    "Span",
    "Tracer",
    "activate",
    "add_event",
    "current_span",
    "current_tracer",
    "current_traceparent",
    "export_chrome",
    "finish_span",
    "format_traceparent",
    "parse_traceparent",
    "span",
    "span_tree",
    "start_span",
]

_TRACEPARENT_RE = re.compile(r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


def format_traceparent(trace_id: str, span_id: str) -> str:
    """The W3C ``traceparent`` header value (version 00, sampled)."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(header: str | None) -> tuple[str, str] | None:
    """``(trace_id, parent_span_id)`` from a ``traceparent`` header, or None.

    Malformed headers (wrong version, wrong field widths, all-zero ids) are
    rejected rather than raising — an untrusted client must not be able to
    break job submission with a bad header.
    """
    if not header:
        return None
    match = _TRACEPARENT_RE.match(header.strip().lower())
    if match is None:
        return None
    trace_id, span_id = match.group(1), match.group(2)
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id


class Span:
    """One timed operation: identity, parentage, attributes, events.

    ``start`` is wall-clock epoch seconds (for cross-process alignment and
    Chrome export); the duration is measured with ``perf_counter`` so it
    keeps monotonic-clock precision.  Spans are mutated only by the thread
    that opened them, so they carry no lock.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "attrs",
        "events",
        "status",
        "pid",
        "_perf_start",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str,
        parent_id: str | None = None,
        attrs: dict | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.start = time.time()
        self.duration: float | None = None
        self.attrs: dict = dict(attrs) if attrs else {}
        self.events: list[dict] = []
        self.status = "ok"
        self.pid = os.getpid()
        self._perf_start = time.perf_counter()

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def add_event(self, name: str, **attrs) -> None:
        event = {"name": name, "time": time.time()}
        if attrs:
            event["attrs"] = attrs
        self.events.append(event)

    def end(self) -> None:
        if self.duration is None:
            self.duration = time.perf_counter() - self._perf_start

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "pid": self.pid,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.events:
            payload["events"] = list(self.events)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls.__new__(cls)
        span.name = str(payload.get("name", "unknown"))
        span.trace_id = str(payload.get("trace_id", "0" * 32))
        span.span_id = str(payload.get("span_id") or _new_span_id())
        parent = payload.get("parent_id")
        span.parent_id = str(parent) if parent is not None else None
        span.start = float(payload.get("start", 0.0))
        duration = payload.get("duration")
        span.duration = float(duration) if duration is not None else None
        span.attrs = dict(payload.get("attrs") or {})
        span.events = list(payload.get("events") or [])
        span.status = str(payload.get("status", "ok"))
        span.pid = int(payload.get("pid", 0))
        # A deserialized span without a recorded duration must not inherit a
        # foreign perf_counter origin: end() would compute garbage from 0.0.
        span._perf_start = time.perf_counter()
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, span_id={self.span_id!r}, "
            f"parent_id={self.parent_id!r}, status={self.status!r})"
        )


class _NoopSpan:
    """Shared do-nothing span yielded when no tracer is active."""

    __slots__ = ()
    span_id = None
    trace_id = None

    def set_attr(self, key: str, value) -> None:
        pass

    def add_event(self, name: str, **attrs) -> None:
        pass


NOOP_SPAN = _NoopSpan()

#: Ambient trace scope: ``(tracer, current span or None, remote parent id)``.
#: The remote parent id seeds root spans when the scope was rebuilt from a
#: ``traceparent`` (HTTP request, process-pool work unit).
_SCOPE: contextvars.ContextVar[tuple["Tracer", Span | None, str | None] | None] = (
    contextvars.ContextVar("repro_trace_scope", default=None)
)


class Tracer:
    """Collector of finished spans for one trace; thread-safe and bounded.

    ``max_spans`` caps memory on long jobs — spans beyond the cap are
    counted in :attr:`dropped` instead of stored, so a runaway batch cannot
    OOM the server through its own instrumentation.  ``on_finish`` (if set)
    runs for every recorded span; the service uses it to feed the
    ``repro_trace_spans_total`` counter.
    """

    def __init__(
        self,
        trace_id: str | None = None,
        parent_id: str | None = None,
        *,
        max_spans: int = 10_000,
        on_finish: Callable[[Span], None] | None = None,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be at least 1")
        self.trace_id = trace_id or _new_trace_id()
        self.parent_id = parent_id
        self.max_spans = max_spans
        self.on_finish = on_finish
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self.dropped = 0

    @classmethod
    def from_traceparent(
        cls, header: str | None, **kwargs
    ) -> "Tracer":
        """A tracer continuing the trace in ``header`` (or a fresh one)."""
        parsed = parse_traceparent(header)
        if parsed is None:
            return cls(**kwargs)
        return cls(trace_id=parsed[0], parent_id=parsed[1], **kwargs)

    @property
    def traceparent(self) -> str:
        """This trace's root ``traceparent`` (before any span has opened)."""
        return format_traceparent(self.trace_id, self.parent_id or "0" * 15 + "1")

    def record(self, span: Span) -> None:
        span.end()
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)
        if self.on_finish is not None:
            try:
                self.on_finish(span)
            except Exception:  # noqa: BLE001 - observers must not break traced code
                pass

    def adopt(self, payloads: Iterable[dict]) -> int:
        """Record spans serialized in another process; returns the count.

        The far side built its tracer from this trace's ``traceparent``, so
        adopted spans already carry the right ``trace_id`` and parent ids —
        adoption is pure transport, not re-parenting.  Malformed payloads
        are skipped (a sick worker must not poison the parent's trace).
        """
        adopted = 0
        for payload in payloads:
            if not isinstance(payload, dict) or not (
                payload.get("name") and payload.get("span_id")
            ):
                continue
            try:
                self.record(Span.from_dict(payload))
            except Exception:  # noqa: BLE001 - tolerate malformed worker spans
                continue
            adopted += 1
        return adopted

    def finished(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def export(self) -> list[dict]:
        """All finished spans as JSON-ready dicts, in recording order."""
        return [span.to_dict() for span in self.finished()]

    def export_chrome(self) -> dict:
        """Chrome trace-event JSON for ``chrome://tracing`` / perfetto."""
        return export_chrome(self.export())

    def tree(self) -> list[dict]:
        """The finished spans nested by parentage (roots first)."""
        return span_tree(self.export())

    def __repr__(self) -> str:
        with self._lock:
            count = len(self._spans)
        return f"Tracer(trace_id={self.trace_id!r}, spans={count}, dropped={self.dropped})"


# ----------------------------------------------------------------------
# ambient scope API (what instrumented code actually calls)
# ----------------------------------------------------------------------


def current_tracer() -> Tracer | None:
    scope = _SCOPE.get()
    return scope[0] if scope is not None else None


def current_span() -> Span | None:
    scope = _SCOPE.get()
    return scope[1] if scope is not None else None


def current_traceparent() -> str | None:
    """The active position as a ``traceparent`` header value, or None.

    This is what crosses boundaries: the client puts it on the submit
    request, the batch path puts it inside process-pool work units.
    """
    scope = _SCOPE.get()
    if scope is None:
        return None
    tracer, active, parent_id = scope
    span_id = active.span_id if active is not None else parent_id
    if span_id is None:
        span_id = "0" * 15 + "1"
    return format_traceparent(tracer.trace_id, span_id)


@contextmanager
def activate(
    tracer: Tracer | None, parent_id: str | None = None
) -> Iterator[Tracer | None]:
    """Install ``tracer`` as the ambient trace scope for the block.

    ``parent_id`` (default: the tracer's remote parent, if built from a
    ``traceparent``) becomes the parent of root spans opened inside.  A
    None tracer makes the block a no-op, so call sites need no branching.
    """
    if tracer is None:
        yield None
        return
    token = _SCOPE.set((tracer, None, parent_id or tracer.parent_id))
    try:
        yield tracer
    finally:
        _SCOPE.reset(token)


def start_span(name: str, **attrs) -> Span | _NoopSpan:
    """A child span of the current scope that does not become current.

    For work interleaved with its siblings in one thread (the portfolio's
    checker steps); :func:`finish_span` ends it in the same scope.
    """
    scope = _SCOPE.get()
    if scope is None:
        return NOOP_SPAN
    tracer, active, remote_parent = scope
    parent_id = active.span_id if active is not None else remote_parent
    return Span(name, trace_id=tracer.trace_id, parent_id=parent_id, attrs=attrs)


def finish_span(opened: Span | _NoopSpan) -> None:
    """End and record a span opened with :func:`start_span`."""
    scope = _SCOPE.get()
    if scope is not None and opened is not NOOP_SPAN:
        scope[0].record(opened)


@contextmanager
def span(name: str, **attrs) -> Iterator[Span | _NoopSpan]:
    """Open a child span of the current scope (no-op without a tracer).

    The span becomes current for the duration of the block; an escaping
    exception marks it ``status="error"`` with the exception text before
    re-raising.
    """
    current = start_span(name, **attrs)
    if current is NOOP_SPAN:
        yield NOOP_SPAN
        return
    tracer, _, remote_parent = _SCOPE.get()
    token = _SCOPE.set((tracer, current, remote_parent))
    try:
        yield current
    except BaseException as error:
        current.status = "error"
        current.set_attr("error", f"{type(error).__name__}: {error}")
        raise
    finally:
        _SCOPE.reset(token)
        tracer.record(current)


def add_event(name: str, **attrs) -> None:
    """Attach an event to the current span (no-op without one)."""
    scope = _SCOPE.get()
    if scope is not None and scope[1] is not None:
        scope[1].add_event(name, **attrs)


# ----------------------------------------------------------------------
# export shapes
# ----------------------------------------------------------------------


def span_tree(spans: Sequence[dict]) -> list[dict]:
    """Nest span dicts by parentage: roots (unknown parents) first.

    Children are ordered by start time; each node is a copy of its span
    dict plus a ``children`` list, so the result is JSON-ready.
    """
    nodes = {payload["span_id"]: dict(payload, children=[]) for payload in spans}
    roots: list[dict] = []
    for node in nodes.values():
        parent = node.get("parent_id")
        if parent is not None and parent in nodes and parent != node["span_id"]:
            nodes[parent]["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child.get("start") or 0.0)
    roots.sort(key=lambda node: node.get("start") or 0.0)
    return roots


def export_chrome(spans: Sequence[dict]) -> dict:
    """Chrome trace-event JSON (complete 'X' events, microsecond units).

    Loadable in ``chrome://tracing`` and https://ui.perfetto.dev — one lane
    per process id, which separates parent and pool-worker activity of a
    process-pool batch visually.
    """
    events = []
    for payload in spans:
        duration = payload.get("duration") or 0.0
        args = dict(payload.get("attrs") or {})
        args["span_id"] = payload.get("span_id")
        if payload.get("status") and payload["status"] != "ok":
            args["status"] = payload["status"]
        events.append(
            {
                "name": payload.get("name", "unknown"),
                "ph": "X",
                "ts": round(float(payload.get("start") or 0.0) * 1e6, 3),
                "dur": round(float(duration) * 1e6, 3),
                "pid": payload.get("pid", 0),
                "tid": payload.get("pid", 0),
                "cat": "repro",
                "args": args,
            }
        )
    events.sort(key=lambda event: event["ts"])
    trace_id = spans[0].get("trace_id") if spans else None
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id},
    }
