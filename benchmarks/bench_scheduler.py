"""Static vs adaptive portfolio scheduling on Table-1 and synthetic batches.

The paper's core observation is that no single checker order wins everywhere:
a falsifier-first lineup wastes simulation time on equivalent clone pairs,
while a prover-first lineup without a handoff would burn the whole proof
budget before trying the cheap falsifier on buggy pairs.  This benchmark
times three scheduling configurations on three workload classes:

* ``default``          — the library's default lineup
  (``portfolio=None``: ``alternating,simulation``) on the static scheduler,
  i.e. what ``EquivalenceCheckingManager()`` runs: simulation joins once the
  alternating product outgrows ``2**n`` nodes;
* ``static-sim-first`` — portfolio ``simulation,alternating`` in order, one
  checker at a time;
* ``adaptive``         — the feature-driven scheduler, which reorders the
  ``simulation,alternating`` portfolio per pair.

Workloads: the Table-1 QFT suite (static vs dynamic realizations, all
equivalent), a clone-heavy batch (identical builds — the falsifier can never
refute), and a falsification-heavy batch (injected bugs — the prover is
wasted work).  Each run asserts pair-for-pair identical criteria across all
configurations, and that the ``default`` row is decided by ``alternating`` on
every ``table1_qft`` pair and by ``simulation`` (after the handoff) on every
``falsification_batch`` pair.  Verdicts and deciders fail the script, timing
noise never does.

Results are emitted as ``BENCH_scheduler.json`` (schema shared via
``bench_common.validate_bench_payload``).

Usage::

    PYTHONPATH=src python benchmarks/bench_scheduler.py            # full run
    PYTHONPATH=src python benchmarks/bench_scheduler.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import platform
import sys
import time

from bench_common import BENCH_SCHEMA_VERSION, SCALE, write_bench_json

from repro.algorithms import ghz_ladder, qft_dynamic, qft_static_benchmark
from repro.circuit.random_circuits import random_static_circuit
from repro.core import EquivalenceCheckingManager

SEED = 42

#: (label, portfolio, scheduler) triples benchmarked against each other;
#: ``None`` is the library's default lineup.
CONFIGURATIONS = [
    ("default", None, "static"),
    ("static-sim-first", ("simulation", "alternating"), "static"),
    ("adaptive", ("simulation", "alternating"), "adaptive"),
]

FULL_QFT_SIZES = [4, 6, 8]
QUICK_QFT_SIZES = [4, 6]
FULL_FALSIFICATION_SIZES = [5, 6, 7]
QUICK_FALSIFICATION_SIZES = [5, 6]


def table1_qft_pairs(sizes: list[int]):
    """The Table-1 QFT suite: static vs dynamic realization, equivalent."""
    return [(qft_static_benchmark(n), qft_dynamic(n)) for n in sizes]


def clone_pairs(copies: int):
    """Identical builds — provably equivalent, unfalsifiable by simulation."""
    pairs = []
    for index in range(copies):
        pairs.append((ghz_ladder(3 + index % 3), ghz_ladder(3 + index % 3)))
        pairs.append((qft_static_benchmark(4), qft_static_benchmark(4)))
    return pairs


def falsification_pairs(sizes: list[int]):
    """Structurally unrelated pairs — the falsifier's home turf.

    Comparing a QFT against a random circuit makes the alternating product
    diagram blow up (nothing cancels), while a single random stimulus refutes
    the pair almost immediately: a prover-first lineup without the handoff
    to simulation would pay 10-100x here.
    """
    return [
        (qft_static_benchmark(n), random_static_circuit(n, depth=n, seed=7 + n))
        for n in sizes
    ]


#: The checker that must decide every pair of a workload in the ``default``
#: row (counts and verdicts are gated, never timings).
DEFAULT_DECIDER = {"table1_qft": "alternating", "falsification_batch": "simulation"}


def bench_workload(workload: str, pairs, repeats: int) -> list[dict]:
    """Time every scheduling configuration on one workload, check agreement."""
    entries = []
    criteria_by_config: dict[str, list[str]] = {}
    for label, portfolio, scheduler in CONFIGURATIONS:
        manager = EquivalenceCheckingManager(
            seed=SEED, portfolio=portfolio, scheduler=scheduler
        )
        timings = []
        results = []
        for _ in range(repeats):
            start = time.perf_counter()
            results = [manager.run(first, second) for first, second in pairs]
            timings.append((time.perf_counter() - start) * 1000.0)
        criteria_by_config[label] = [result.criterion.value for result in results]
        entries.append(
            {
                "name": f"{workload}/{label}",
                "workload": workload,
                "configuration": label,
                "scheduler": scheduler,
                "portfolio": list(manager.portfolio),
                "num_pairs": len(pairs),
                "repeats": repeats,
                "mean_ms": sum(timings) / len(timings),
                "min_ms": min(timings),
                "criteria": criteria_by_config[label],
                "decided_by": [result.decided_by for result in results],
            }
        )
    reference = criteria_by_config[CONFIGURATIONS[0][0]]
    for label, criteria in criteria_by_config.items():
        if criteria != reference:
            raise RuntimeError(
                f"verdict instability on {workload}: {label} disagrees with "
                f"{CONFIGURATIONS[0][0]} ({criteria} vs {reference})"
            )
    expected = DEFAULT_DECIDER.get(workload)
    deciders = entries[0]["decided_by"]  # CONFIGURATIONS[0] is the default row
    if expected is not None and any(decider != expected for decider in deciders):
        raise RuntimeError(
            f"default lineup on {workload} must be decided by {expected} on "
            f"every pair, got {deciders}"
        )
    return entries


def _speedups(results: list[dict]) -> dict:
    """Adaptive speedup vs each static order, per workload (min_ms based)."""
    summary: dict = {}
    by_key = {entry["name"]: entry for entry in results}
    workloads = {entry["workload"] for entry in results}
    for workload in sorted(workloads):
        adaptive = by_key[f"{workload}/adaptive"]["min_ms"]
        summary[workload] = {
            f"adaptive_vs_{label}": round(by_key[f"{workload}/{label}"]["min_ms"] / adaptive, 3)
            for label, _, scheduler in CONFIGURATIONS
            if scheduler == "static"
        }
    return summary


def run(args: argparse.Namespace) -> dict:
    repeats = args.repeats or (2 if args.quick else 5)
    copies = 2 if args.quick else 4
    qft_sizes = QUICK_QFT_SIZES if args.quick else FULL_QFT_SIZES
    falsification_sizes = (
        QUICK_FALSIFICATION_SIZES if args.quick else FULL_FALSIFICATION_SIZES
    )

    results = []
    results += bench_workload("table1_qft", table1_qft_pairs(qft_sizes), repeats)
    results += bench_workload("clone_batch", clone_pairs(copies), repeats)
    results += bench_workload(
        "falsification_batch", falsification_pairs(falsification_sizes), repeats
    )

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "portfolio_scheduler",
        "scale": SCALE,
        "python": platform.python_version(),
        "results": results,
        "speedups": _speedups(results),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes / few repeats (CI smoke)"
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--output", default="BENCH_scheduler.json", metavar="PATH")
    args = parser.parse_args(argv)

    try:
        payload = run(args)
        write_bench_json(args.output, payload)
    except (RuntimeError, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    for entry in payload["results"]:
        print(
            f"{entry['name']:>40} pairs={entry['num_pairs']:<3} "
            f"mean={entry['mean_ms']:8.2f}ms min={entry['min_ms']:8.2f}ms"
        )
    for workload, speedups in payload["speedups"].items():
        rendered = ", ".join(f"{k}={v:.2f}x" for k, v in speedups.items())
        print(f"{workload}: {rendered}")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
