"""A unified metrics registry with Prometheus text exposition.

PR 5 left the service's observability scattered: ``DDPackage.statistics()``,
``VerdictCache.statistics()`` and ``VerificationService.stats()`` each expose
their own ad-hoc dict.  This module unifies them behind one
:class:`MetricsRegistry` of counters, gauges and histograms that the HTTP
server (:mod:`repro.service.server`) exports at ``GET /metrics`` in the
Prometheus text exposition format (version 0.0.4).

Design notes
------------
* **Stdlib only, no module-level repro imports.**  The registry sits below
  every other service module (and even below :mod:`repro.dd.package`, which
  publishes into it), so it must not import any of them at load time.
* **Instruments are cheap and thread-safe.**  Checker worker threads observe
  latencies concurrently with HTTP scrape threads rendering the exposition;
  a single registry lock covers both.
* **Pull-based sources use collectors.**  State that already has an owner
  (queue depth, verdict-cache hit counts) is harvested at scrape time via
  :meth:`MetricsRegistry.add_collector` callbacks instead of being
  double-counted on every mutation.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Iterable, Sequence

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "publish_dd_statistics",
    "publish_rewrite_statistics",
]

#: Latency buckets (seconds) sized for equivalence-check workloads: cache
#: hits land in the sub-millisecond buckets, simulative checks in the
#: millisecond range, and construction/alternating runs up to the default
#: per-checker budget.
DEFAULT_LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    parts = ", ".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + parts + "}"


class _Metric:
    """Common bookkeeping: name, help text, label schema, sample store."""

    kind = "untyped"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str], lock: threading.RLock
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = lock
        self._samples: dict[tuple[str, ...], object] = {}

    def _key(self, labels: dict[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def render(self) -> Iterable[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def _header(self) -> list[str]:
        return [
            f"# HELP {self.name} {_escape_help(self.help_text)}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """A monotonically increasing count (optionally per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))

    def render(self) -> Iterable[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._samples.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class Gauge(_Metric):
    """A value that can go up and down; may be backed by a callback."""

    kind = "gauge"

    def __init__(
        self, name: str, help_text: str, labelnames: Sequence[str], lock: threading.RLock
    ) -> None:
        super().__init__(name, help_text, labelnames, lock)
        self._callback: Callable[[], float] | None = None

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set_function(self, callback: Callable[[], float]) -> None:
        """Back an unlabelled gauge by ``callback`` evaluated at scrape time."""
        if self.labelnames:
            raise ValueError(f"gauge {self.name!r} has labels; set values explicitly")
        self._callback = callback

    def value(self, **labels) -> float:
        if self._callback is not None and not labels:
            return float(self._callback())
        key = self._key(labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))

    def render(self) -> Iterable[str]:
        lines = self._header()
        if self._callback is not None:
            try:
                current = float(self._callback())
            except Exception:  # noqa: BLE001 - a scrape must not fail the page
                return lines
            lines.append(f"{self.name} {_format_value(current)}")
            return lines
        with self._lock:
            items = sorted(self._samples.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str],
        lock: threading.RLock,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, labelnames, lock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            if sample is None:
                sample = [[0] * len(self.buckets), 0.0, 0]
                self._samples[key] = sample
            counts, _, _ = sample
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            sample[1] += float(value)
            sample[2] += 1

    def count(self, **labels) -> int:
        key = self._key(labels)
        with self._lock:
            sample = self._samples.get(key)
            return int(sample[2]) if sample is not None else 0

    def render(self) -> Iterable[str]:
        lines = self._header()
        with self._lock:
            items = sorted(
                (key, (list(sample[0]), sample[1], sample[2]))
                for key, sample in self._samples.items()
            )
        for key, (counts, total, count) in items:
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                labels = _render_labels(
                    self.labelnames + ("le",), key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _render_labels(self.labelnames + ("le",), key + ("+Inf",))
            lines.append(f"{self.name}_bucket{labels} {count}")
            plain = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(total)}")
            lines.append(f"{self.name}_count{plain} {count}")
        return lines


class MetricsRegistry:
    """Owner of a coherent set of metrics plus scrape-time collectors.

    Instrument constructors are idempotent: asking for an existing name
    returns the existing instrument (so the service, the manager and the DD
    layer can share one registry without coordinating creation order), but a
    kind or label-schema mismatch raises — two subsystems silently writing
    incompatible series under one name is exactly the bug this registry
    exists to prevent.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list[Callable[[], None]] = []

    def _instrument(self, cls, name: str, help_text: str, labelnames, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help_text, tuple(labelnames), self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Counter:
        return self._instrument(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._instrument(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._instrument(Histogram, name, help_text, labelnames, buckets=buckets)

    def add_collector(self, callback: Callable[[], None]) -> None:
        """Register a scrape-time callback that refreshes pull-based gauges."""
        with self._lock:
            self._collectors.append(callback)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            collectors = list(self._collectors)
            metrics = list(self._metrics.values())
        for collector in collectors:
            try:
                collector()
            except Exception:  # noqa: BLE001 - one sick source must not kill the scrape
                continue
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


def publish_dd_statistics(
    registry: MetricsRegistry, statistics: dict, checker: str = "unknown"
) -> None:
    """Accumulate one ``DDPackage.statistics()`` snapshot into ``registry``.

    Used both by :meth:`repro.dd.package.DDPackage.publish_metrics` (an
    in-process package publishing its own totals) and by the manager, which
    harvests the ``dd_statistics`` payload each DD-based checker leaves in
    its result details.
    """
    from repro.dd.package import DD_COUNTER_KEYS
    counter = registry.counter(
        "repro_dd_events_total",
        "Decision-diagram backend events accumulated across checker runs.",
        labelnames=("checker", "event"),
    )
    for key in DD_COUNTER_KEYS:
        value = statistics.get(key)
        if value:
            counter.inc(float(value), checker=checker, event=key)
    nodes = registry.gauge(
        "repro_dd_last_run_nodes",
        "Node counts of the most recent decision-diagram run.",
        labelnames=("checker", "kind"),
    )
    for kind in ("vector_nodes", "matrix_nodes"):
        if kind in statistics:
            nodes.set(float(statistics[kind]), checker=checker, kind=kind)


#: ``rewrite_statistics`` keys that accumulate as counters (events per run).
_REWRITE_COUNTER_KEYS = (
    "input_gates",
    "merged_single_qubit",
    "cancelled_cx",
)


def publish_rewrite_statistics(
    registry: MetricsRegistry, statistics: dict, checker: str = "rewrite"
) -> None:
    """Accumulate one rewrite-checker statistics payload into ``registry``.

    Harvested by the manager from the ``rewrite_statistics`` detail the
    :class:`~repro.core.checkers.rewrite.RewriteChecker` leaves in its
    outcome, mirroring how ``dd_statistics`` flows into the DD metrics.
    """
    counter = registry.counter(
        "repro_rewrite_events_total",
        "Peephole rewrite-checker events accumulated across runs.",
        labelnames=("checker", "event"),
    )
    for key in _REWRITE_COUNTER_KEYS:
        value = statistics.get(key)
        if value:
            counter.inc(float(value), checker=checker, event=key)
    registry.counter(
        "repro_rewrite_reductions_total",
        "Rewrite-checker reduction outcomes (proved identity vs. residual).",
        labelnames=("checker", "outcome"),
    ).inc(
        checker=checker,
        outcome="proved" if statistics.get("proved") else "residual",
    )
    if "remaining" in statistics:
        registry.gauge(
            "repro_rewrite_last_run_remaining",
            "Residual gates after the most recent rewrite reduction.",
            labelnames=("checker",),
        ).set(float(statistics["remaining"]), checker=checker)
