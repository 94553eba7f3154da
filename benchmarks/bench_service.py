"""Verification service layer: warm-cache and in-batch-dedup benchmarks.

Two workloads measure what the verdict cache buys a long-running service:

* ``qft_rerun``  — cold vs warm verification of the Table-1 QFT pair (static
  vs dynamic realization).  Cold builds a fresh manager per repeat; warm
  re-runs through a primed cache.  The warm path must be **>= 10x** faster —
  a cache hit skips scheduling and every checker — and must return the same
  criterion (verdict stability fails the script, timing noise never does).
* ``dedup_batch`` — a duplicate-heavy batch (20 pairs, 4 distinct, the shape
  of CI re-runs) through ``verify_batch`` with and without the cache.  The
  deduped run must agree entry-for-entry with the plain run and must show at
  least 16 cache hits (one per fanned-out duplicate).
* ``server_throughput`` — the same duplicate-heavy pair mix driven over HTTP
  by concurrent clients against ``VerificationServer``, collecting verdicts
  by long-poll.  Every verdict must equal the in-process
  ``EquivalenceCheckingManager.run`` verdict on the same pair (drift fails
  the script); the request rate is recorded, never gated — timing noise
  must not fail CI.

Results are emitted as ``BENCH_service.json`` (schema shared via
``bench_common.validate_bench_payload``).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # full run
    PYTHONPATH=src python benchmarks/bench_service.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import platform
import sys
import threading
import time

from bench_common import BENCH_SCHEMA_VERSION, SCALE, write_bench_json

from repro.algorithms import (
    bernstein_vazirani_dynamic,
    bernstein_vazirani_static,
    ghz_ladder,
    ghz_with_bug,
    qft_dynamic,
    qft_static_benchmark,
)
from repro.core import Configuration, EquivalenceCheckingManager
from repro.service import VerificationClient, VerificationServer

SEED = 42

FULL_QFT_SIZES = [6, 8, 10]
QUICK_QFT_SIZES = [6]

#: Warm-over-cold factor the cache must deliver on every QFT size.
REQUIRED_WARM_SPEEDUP = 10.0

#: In-batch hits the duplicate-heavy batch must produce (20 pairs, 4 distinct).
REQUIRED_DEDUP_HITS = 16


def _time_ms(callable_) -> tuple[float, object]:
    start = time.perf_counter()
    value = callable_()
    return (time.perf_counter() - start) * 1000.0, value


def bench_qft_rerun(sizes: list[int], repeats: int) -> tuple[list[dict], dict]:
    """Cold vs warm verification of the Table-1 QFT pair, per size."""
    entries = []
    speedups: dict[str, float] = {}
    for size in sizes:
        pair = (qft_static_benchmark(size), qft_dynamic(size))
        cold_times, warm_times = [], []
        criteria = set()
        for _ in range(repeats):
            manager = EquivalenceCheckingManager(seed=SEED, verdict_cache=True)
            elapsed, result = _time_ms(lambda: manager.run(*pair))
            cold_times.append(elapsed)
            criteria.add(result.criterion)
            elapsed, warm = _time_ms(lambda: manager.run(*pair))
            warm_times.append(elapsed)
            criteria.add(warm.criterion)
            if not warm.cached:
                raise RuntimeError(f"warm QFT n={size} run missed the cache")
        if len(criteria) != 1:
            raise RuntimeError(
                f"verdict instability on QFT n={size}: cold/warm criteria {criteria}"
            )
        speedup = min(cold_times) / min(warm_times)
        speedups[f"qft{size}"] = round(speedup, 1)
        if speedup < REQUIRED_WARM_SPEEDUP:
            raise RuntimeError(
                f"warm-cache rerun of QFT n={size} is only {speedup:.1f}x faster "
                f"than cold (required: {REQUIRED_WARM_SPEEDUP}x)"
            )
        for label, times in (("cold", cold_times), ("warm", warm_times)):
            entries.append(
                {
                    "name": f"qft_rerun/n{size}/{label}",
                    "workload": "qft_rerun",
                    "size": size,
                    "repeats": repeats,
                    "mean_ms": sum(times) / len(times),
                    "min_ms": min(times),
                }
            )
    return entries, speedups


def duplicate_heavy_pairs():
    """20 pairs, 4 distinct — the shape of iterated CI re-verification."""
    distinct = [
        (ghz_ladder(4), ghz_ladder(4)),
        (ghz_ladder(4), ghz_with_bug(4)),
        (qft_static_benchmark(4), qft_dynamic(4)),
        (bernstein_vazirani_static("1011"), bernstein_vazirani_dynamic("1011")),
    ]
    return [distinct[index % 4] for index in range(20)]


def bench_dedup_batch(repeats: int) -> tuple[list[dict], dict]:
    """Duplicate-heavy batch with vs without in-batch deduplication."""
    pairs = duplicate_heavy_pairs()
    entries = []
    criteria_by_mode = {}
    times_by_mode = {}
    for mode, cache_enabled in (("plain", False), ("deduped", True)):
        times = []
        criteria: list[str] = []
        for _ in range(repeats):
            manager = EquivalenceCheckingManager(
                seed=SEED, verdict_cache=cache_enabled, max_workers=2
            )
            elapsed, batch = _time_ms(lambda: manager.verify_batch(pairs))
            times.append(elapsed)
            criteria = [entry.result.criterion.value for entry in batch.entries]
            if cache_enabled:
                hits = manager.verdict_cache.statistics()["hits"]
                if hits < REQUIRED_DEDUP_HITS:
                    raise RuntimeError(
                        f"in-batch dedup produced only {hits} cache hits "
                        f"(required: {REQUIRED_DEDUP_HITS})"
                    )
        criteria_by_mode[mode] = criteria
        times_by_mode[mode] = min(times)
        entries.append(
            {
                "name": f"dedup_batch/{mode}",
                "workload": "dedup_batch",
                "num_pairs": len(pairs),
                "repeats": repeats,
                "mean_ms": sum(times) / len(times),
                "min_ms": min(times),
            }
        )
    if criteria_by_mode["plain"] != criteria_by_mode["deduped"]:
        raise RuntimeError(
            "verdict instability: deduped batch disagrees with the plain batch "
            f"({criteria_by_mode['deduped']} vs {criteria_by_mode['plain']})"
        )
    return entries, {
        "dedup_batch": round(times_by_mode["plain"] / times_by_mode["deduped"], 2)
    }


def bench_server_throughput(
    repeats: int, num_clients: int, num_requests: int
) -> list[dict]:
    """Concurrent-client HTTP throughput of ``VerificationServer``.

    Each repeat starts a fresh server on an ephemeral port, fans
    ``num_requests`` verifications (duplicate-heavy mix) across
    ``num_clients`` client threads, and waits for every verdict.  The gate is
    agreement with in-process ``manager.run`` on every pair; throughput is
    informational.
    """
    pairs = [duplicate_heavy_pairs()[index % 20] for index in range(num_requests)]
    manager = EquivalenceCheckingManager(seed=SEED)
    expected = [manager.run(first, second).criterion.value for first, second in pairs]
    times = []
    for _ in range(repeats):
        configuration = Configuration(seed=SEED, max_workers=2)
        server = VerificationServer(port=0, configuration=configuration)
        server.start_background()
        try:
            verdicts: list[str | None] = [None] * len(pairs)

            def drive(indices, url=server.url):
                client = VerificationClient(url, timeout=30.0)
                for index in indices:
                    first, second = pairs[index]
                    payload = client.verify(first, second, timeout=120.0)
                    verdicts[index] = payload["criterion"]

            chunks = [
                list(range(offset, len(pairs), num_clients))
                for offset in range(num_clients)
            ]
            threads = [threading.Thread(target=drive, args=(chunk,)) for chunk in chunks]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            times.append((time.perf_counter() - start) * 1000.0)
        finally:
            server.close()
        if verdicts != expected:
            raise RuntimeError(
                "verdict drift between the server and in-process manager.run: "
                f"{verdicts} (server) vs {expected} (in-process)"
            )
    return [
        {
            "name": "server_throughput",
            "workload": "server_throughput",
            "num_requests": num_requests,
            "num_clients": num_clients,
            "repeats": repeats,
            "mean_ms": sum(times) / len(times),
            "min_ms": min(times),
            "requests_per_second": round(num_requests / (min(times) / 1000.0), 1),
        }
    ]


def run(args: argparse.Namespace) -> dict:
    repeats = args.repeats or (2 if args.quick else 5)
    sizes = QUICK_QFT_SIZES if args.quick else FULL_QFT_SIZES

    qft_entries, qft_speedups = bench_qft_rerun(sizes, repeats)
    dedup_entries, dedup_speedups = bench_dedup_batch(repeats)
    throughput_repeats = max(1, repeats // 2)
    num_clients = 4 if args.quick else 8
    num_requests = 12 if args.quick else 40
    server_entries = bench_server_throughput(
        throughput_repeats, num_clients, num_requests
    )

    largest = f"qft{sizes[-1]}"
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": "verification_service",
        "scale": SCALE,
        "python": platform.python_version(),
        "results": qft_entries + dedup_entries + server_entries,
        "speedups": {
            "warm_vs_cold": qft_speedups,
            **dedup_speedups,
        },
        "speedup_vs_baseline": qft_speedups[largest],
        "baseline": {"source": "cold run (fresh manager, empty verdict cache)"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes / few repeats (CI smoke)"
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--output", default="BENCH_service.json", metavar="PATH")
    args = parser.parse_args(argv)

    try:
        payload = run(args)
        write_bench_json(args.output, payload)
    except (RuntimeError, ValueError) as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1

    for entry in payload["results"]:
        print(
            f"{entry['name']:>28} repeats={entry['repeats']:<2} "
            f"mean={entry['mean_ms']:8.2f}ms min={entry['min_ms']:8.2f}ms"
        )
    warm = payload["speedups"]["warm_vs_cold"]
    print("warm-cache speedup:", ", ".join(f"{k}={v}x" for k, v in warm.items()))
    print(f"in-batch dedup speedup: {payload['speedups']['dedup_batch']}x")
    server = payload["results"][-1]
    print(
        f"server throughput: {server['requests_per_second']} req/s "
        f"({server['num_clients']} clients)"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
