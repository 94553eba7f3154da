"""The ``table1_equiv`` and ``table1_mutants`` workloads.

Each verification parses both QASM texts and runs
``EquivalenceCheckingManager.run`` on a fresh manager with the library
defaults (``simulation`` then ``alternating``, static scheduler) plus
``seed=0``.  A pass verifies every pair once; a run makes whole passes until
``seconds`` have gone by, so every run measures the same mix of pair sizes.
Between verifications, outside the timed region, the garbage collector runs
so that each pair starts from a clean heap, as it would in its own process,
whatever pair came before it.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time

from repro import Configuration, EquivalenceCheckingManager, PortfolioResult, circuit_from_qasm, to_unitary_circuit
from repro.obs import trace

from perfbench.hostspeed import SpeedTracker, scale_times
from perfbench.inputs import Pair
from perfbench.layers import LayerTally, overhead_share, percentile
from perfbench.verdicts import Outcomes

CONFIGURATION = Configuration(seed=0)


def verify(pair: Pair) -> PortfolioResult:
    """One cold verification, as a user runs it: parse, new manager, run."""
    first = circuit_from_qasm(pair.first)
    second = circuit_from_qasm(pair.second)
    return EquivalenceCheckingManager(CONFIGURATION).run(first, second)


def measure(pairs: list[Pair], seconds: float, outcomes: Outcomes) -> dict:
    """Untraced passes until ``seconds`` elapse; end-to-end figures.

    Each latency is scaled to the reference host speed (see
    :mod:`perfbench.hostspeed`), and each pair's latency is its median over
    the passes; throughput is pairs per second of those medians, and the
    latency quantiles run across pairs.
    """
    scaled: dict[str, list[float]] = {pair.name: [] for pair in pairs}
    wall: dict[str, list[float]] = {pair.name: [] for pair in pairs}
    speed = SpeedTracker()
    deadline = time.perf_counter() + seconds
    while True:
        for pair in pairs:
            gc.collect()
            began = time.perf_counter()
            result = outcomes.guard(pair, lambda: verify(pair))
            elapsed = time.perf_counter() - began
            latency = speed.scale(elapsed)
            if result is not None:
                scaled[pair.name].append(latency * 1e3)
                wall[pair.name].append(elapsed * 1e3)
        if time.perf_counter() >= deadline:
            break
    return {
        **_latency_figures(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "samples": sum(len(values) for values in scaled.values()),
        "speed_factor": statistics.median(speed.factors),
        "wall": _latency_figures(wall),
    }


def _latency_figures(latencies: dict[str, list[float]]) -> dict:
    medians = [statistics.median(values) for values in latencies.values() if values]
    return {
        "throughput": len(medians) / (sum(medians) / 1e3),
        "latency_ms_p50": percentile(medians, 0.5),
        "latency_ms_p90": percentile(medians, 0.9),
    }


def _traced_one(pair: Pair, tally: LayerTally, outcomes: Outcomes) -> None:
    began = time.perf_counter()
    first = circuit_from_qasm(pair.first)
    second = circuit_from_qasm(pair.second)
    parsed = time.perf_counter()
    manager = EquivalenceCheckingManager(CONFIGURATION)
    tracer = trace.Tracer()
    with trace.activate(tracer):
        result = outcomes.guard(pair, lambda: manager.run(first, second))
    wall_ms = (time.perf_counter() - began) * 1e3
    if result is None:
        return
    tally.operations += 1
    tally.add("qasm.parse_ms", (parsed - began) * 1e3)
    tally.add("qasm.bytes", len(pair.first) + len(pair.second))
    tally.add("wall_ms", wall_ms)
    tally.add_manager_tree(tracer.tree())
    tally.add_attempts(attempt.to_json() for attempt in result.attempts)
    for attempt in result.attempts:
        if attempt.method == "alternating" and attempt.result is not None:
            tally.add_dd(attempt.result.details)
    gate_cache = manager.dd_statistics().get("alternating", {})
    tally.add("dd.gate_cache_hits", gate_cache.get("gate_cache_hits", 0))
    tally.add("dd.gate_cache_lookups", gate_cache.get("gate_cache_hits", 0) + gate_cache.get("gate_cache_misses", 0))


def traced(pairs: list[Pair], seconds: float, outcomes: Outcomes) -> dict:
    """Per-layer split: passes until ``seconds``, each pair run untraced and traced.

    The two runs of a pair follow each other, in alternating order from pass
    to pass, so the tracing overhead compares like with like.  The traced
    runs activate a tracer around ``manager.run`` and time the parse calls;
    the Scheme-1 transform, which has no span, is timed by replaying
    ``to_unitary_circuit`` on each dynamic side afterwards.
    """
    # An untimed first pass, so that neither mode pays for a cold start.
    for pair in pairs:
        outcomes.guard(pair, lambda: verify(pair))
    tally = LayerTally()
    timings = {False: [0.0, 0], True: [0.0, 0]}
    traced_factors = []
    speed = SpeedTracker()
    deadline = time.perf_counter() + seconds
    order = (False, True)
    while True:
        for pair in pairs:
            for with_trace in order:
                gc.collect()
                began = time.perf_counter()
                if with_trace:
                    _traced_one(pair, tally, outcomes)
                else:
                    outcomes.guard(pair, lambda: verify(pair))
                timings[with_trace][0] += speed.scale(time.perf_counter() - began)
                timings[with_trace][1] += 1
                if with_trace:
                    traced_factors.append(speed.factors[-1])
        order = order[::-1]
        if time.perf_counter() >= deadline:
            break

    transform_ms = gates_out = 0.0
    for pair in pairs:
        dynamic = circuit_from_qasm(pair.second)
        began = time.perf_counter()
        transformed = to_unitary_circuit(dynamic)
        transform_ms += (time.perf_counter() - began) * 1e3
        gates_out += transformed.circuit.size
    transform_ms /= len(pairs)
    gates_out /= len(pairs)

    ops = tally.operations
    manager_self_ms = tally.per_operation("manager.self_ms")
    # The transform runs inside manager.run without a span of its own: the
    # replayed cost is taken out of the manager's self time, never more.
    transform_owned = min(transform_ms, manager_self_ms)
    attributed = tally.per_operation("qasm.parse_ms") + tally.attributed_ms() / max(ops, 1) + transform_owned
    rates = {mode: count / elapsed for mode, (elapsed, count) in timings.items()}
    metrics = {
        "qasm.parse_ms": tally.per_operation("qasm.parse_ms"),
        "qasm.bytes": tally.per_operation("qasm.bytes"),
        "manager.run_ms": tally.ratio("manager.run_ms", "manager.runs"),
        "manager.unattributed_share": tally.ratio("manager.self_ms", "manager.run_ms"),
        "scheduler.decide_ms": tally.ratio("scheduler.decide_ms", "scheduler.decides"),
        "transform.scheme1_ms": transform_ms,
        "transform.gates_out": gates_out,
        **tally.checker_metrics(),
        **tally.dd_metrics(),
        "trace.overhead_share": overhead_share(rates[False], rates[True]),
        "unattributed_ms": max(0.0, tally.per_operation("wall_ms") - attributed),
    }
    return scale_times(metrics, statistics.median(traced_factors))
