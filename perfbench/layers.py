"""Metric names, units and the arithmetic behind the per-layer split.

The names here are the benchmark's contract: ``BENCHMARK.json`` lists the
same names (a test keeps the two in step), every workload reports every
end-to-end metric in an untraced run and every per-layer metric in a traced
run.  A layer that is not on a workload's path reports 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "throughput": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    # circuit.qasm
    "qasm.parse_ms": "ms",
    "qasm.bytes": "bytes",
    # service.fingerprint
    "fingerprint.raw_ms": "ms",
    "fingerprint.canonical_ms": "ms",
    "fingerprint.canonical_calls": "count",
    # service.cache and resilience.journal
    "cache.hits": "count",
    "cache.canonical_hits": "count",
    "cache.misses": "count",
    "cache.stores": "count",
    "cache.hit_ratio": "ratio",
    "cache.lookup_ms": "ms",
    "journal.appends": "count",
    "journal.append_errors": "count",
    # service.server and service.client
    "server.queue_wait_ms_p50": "ms",
    "server.queue_wait_ms_p90": "ms",
    "server.job_ms": "ms",
    "server.frontend_ms": "ms",
    "server.coalesced": "count",
    "server.rejected": "count",
    "server.failed": "count",
    "client.requests_per_verify": "count",
    # core.manager and core.scheduler
    "manager.run_ms": "ms",
    "manager.unattributed_share": "ratio",
    "scheduler.decide_ms": "ms",
    # core.transformation
    "transform.scheme1_ms": "ms",
    "transform.gates_out": "gates",
    # core.checkers
    "checker.simulation_ms": "ms",
    "checker.simulation_runs": "count",
    "checker.simulation_decided_ratio": "ratio",
    "checker.alternating_ms": "ms",
    "checker.alternating_runs": "count",
    "checker.alternating_decided_ratio": "ratio",
    "checker.skipped": "count",
    # dd.package
    "dd.matrix_nodes": "nodes",
    "dd.max_nodes": "nodes",
    "dd.unique_hit_ratio": "ratio",
    "dd.gate_cache_hit_ratio": "ratio",
    "dd.compute_entries": "entries",
    # obs.trace, and what no layer owns
    "trace.overhead_share": "ratio",
    "unattributed_ms": "ms",
}

#: The checkers of the default portfolio, in their static order.
CHECKERS = ("simulation", "alternating")

#: Compute tables of a ``DDPackage`` whose sizes make ``dd.compute_entries``.
_COMPUTE_TABLES = ("add_vector_cache", "add_matrix_cache", "multiply_mv_cache", "multiply_mm_cache", "trace_cache")

_DEFINITIVE = ("equivalent", "equivalent_up_to_global_phase", "not_equivalent")


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Overlapping children (e.g. concurrent work under one parent) are counted
    once; parts outside the parent are clipped away.
    """
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if min(end, b) > max(start, a)
    )
    total = 0.0
    current_start = current_end = None
    for a, b in clipped:
        if current_end is None or a > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = a, b
        else:
            current_end = max(current_end, b)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(node: dict) -> float:
    """A span-tree node's duration minus what its children cover (seconds)."""
    start = node["start"]
    end = start + (node["duration"] or 0.0)
    children = [
        (child["start"], child["start"] + (child["duration"] or 0.0))
        for child in node.get("children", ())
    ]
    return (end - start) - covered(start, end, children)


def walk(nodes: Iterable[dict]) -> Iterable[dict]:
    """Every node of a span forest, depth first."""
    for node in nodes:
        yield node
        yield from walk(node.get("children", ()))


class LayerTally:
    """Accumulates per-layer observations of the traced operations.

    ``add`` sums a value under a name and ``sample`` keeps every value for a
    median; sums are reported per traced operation or per call (``ratio``),
    so runs of different lengths compare.
    """

    def __init__(self) -> None:
        self.sums: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.operations = 0

    def add(self, name: str, value: float) -> None:
        self.sums[name] += value

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def per_operation(self, name: str) -> float:
        return self.sums[name] / self.operations if self.operations else 0.0

    def ratio(self, numerator: str, denominator: str) -> float:
        base = self.sums[denominator]
        return self.sums[numerator] / base if base else 0.0

    def median(self, name: str) -> float:
        values = self.samples.get(name)
        return percentile(values, 0.5) if values else 0.0

    def add_manager_tree(self, tree: Iterable[dict]) -> None:
        """Fold the spans under ``manager.run`` roots into the tally (ms)."""
        for node in walk(tree):
            name = node["name"]
            duration_ms = (node["duration"] or 0.0) * 1e3
            if name == "manager.run":
                self.add("manager.run_ms", duration_ms)
                self.add("manager.self_ms", self_time(node) * 1e3)
                self.add("manager.runs", 1)
            elif name == "scheduler.decide":
                self.add("scheduler.decide_ms", duration_ms)
                self.add("scheduler.decides", 1)
            elif name == "cache.lookup":
                self.add("cache.lookup_ms", duration_ms)
                self.add("cache.lookups", 1)
            elif name == "fingerprint.canonical":
                self.add("fingerprint.canonical_ms", duration_ms)
                self.add("fingerprint.canonical_calls", 1)

    def add_attempts(self, attempts: Iterable[dict]) -> None:
        """Fold ``PortfolioResult.attempts`` (JSON form) into the tally."""
        for attempt in attempts:
            method, status = attempt["method"], attempt["status"]
            if status == "skipped":
                self.add("checker.skipped", 1)
                continue
            if method not in CHECKERS:
                continue
            self.add(f"checker.{method}_ms", attempt["time"] * 1e3)
            if status == "completed":
                self.add(f"checker.{method}_runs", 1)
                if attempt["criterion"] in _DEFINITIVE:
                    self.add(f"checker.{method}_decided", 1)

    def checker_metrics(self) -> dict[str, float]:
        metrics = {"checker.skipped": self.sums["checker.skipped"]}
        for method in CHECKERS:
            runs = self.sums[f"checker.{method}_runs"]
            metrics[f"checker.{method}_ms"] = self.ratio(f"checker.{method}_ms", f"checker.{method}_runs")
            metrics[f"checker.{method}_runs"] = runs
            metrics[f"checker.{method}_decided_ratio"] = self.ratio(
                f"checker.{method}_decided", f"checker.{method}_runs"
            )
        return metrics

    def add_dd(self, details: dict) -> None:
        """Fold one alternating attempt's ``details`` (DD counters) in."""
        stats = details["dd_statistics"]
        self.add("dd.runs", 1)
        self.add("dd.matrix_nodes", stats["matrix_nodes"])
        self.add("dd.max_nodes", details["max_nodes"])
        self.add("dd.unique_hit_ratio", stats["matrix_unique_hit_ratio"])
        self.add("dd.compute_entries", sum(stats[key] for key in _COMPUTE_TABLES))

    def dd_metrics(self) -> dict[str, float]:
        metrics = {
            name: self.ratio(name, "dd.runs")
            for name in ("dd.matrix_nodes", "dd.max_nodes", "dd.unique_hit_ratio", "dd.compute_entries")
        }
        metrics["dd.gate_cache_hit_ratio"] = self.ratio("dd.gate_cache_hits", "dd.gate_cache_lookups")
        return metrics

    def attributed_ms(self) -> float:
        """Span time the named layers own (ms, summed over operations)."""
        return sum(
            self.sums[name]
            for name in (
                "scheduler.decide_ms",
                "cache.lookup_ms",
                "fingerprint.canonical_ms",
                "checker.simulation_ms",
                "checker.alternating_ms",
            )
        )


def overhead_share(untraced_rate: float, traced_rate: float) -> float:
    """Throughput lost to tracing, as a share of the untraced throughput."""
    return (untraced_rate - traced_rate) / untraced_rate if untraced_rate else 0.0
