"""The verification service layer: fingerprints, verdict cache, job server.

In real compilation flows the same circuit pairs are re-verified over and
over as toolchains iterate.  The service layer (:mod:`repro.service`) makes
repeat traffic nearly free:

1. **Fingerprints** — a canonical structural hash for circuits and pairs,
   stable across register names, pickling and QASM round-trips;
2. **Verdict cache** — content-addressed storage of portfolio verdicts with
   an in-memory LRU tier and a persistent JSON-lines tier, consulted by the
   manager before any checker runs (and used to dedupe identical pairs
   *within* a batch);
3. **Job-queue server** — ``repro-qcec serve`` exposes the whole stack over
   HTTP, with identical in-flight submissions coalescing onto one job,
   long-poll result collection, bounded-queue backpressure (429 +
   ``Retry-After``), per-client rate limiting and Prometheus text at
   ``GET /metrics``.

Run with ``python examples/verification_service.py``.
"""

import tempfile
import time
from pathlib import Path

from repro import (
    EquivalenceCheckingManager,
    QuantumCircuit,
    VerificationClient,
    VerificationServer,
    pair_fingerprint,
)
from repro.algorithms import ghz_ladder, ghz_with_bug, qft_dynamic, qft_static_benchmark
from repro.core import Configuration


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Fingerprints: same structure => same key, however it was built.
    # ------------------------------------------------------------------
    direct = ghz_ladder(4)
    rebuilt = QuantumCircuit.from_qasm(direct.to_qasm())  # new registers, new objects
    print("fingerprint(direct)  ==", pair_fingerprint(direct, direct)[:16], "...")
    print("fingerprint(rebuilt) ==", pair_fingerprint(rebuilt, rebuilt)[:16], "...")
    assert pair_fingerprint(direct, direct) == pair_fingerprint(rebuilt, rebuilt)

    # ------------------------------------------------------------------
    # 2. The verdict cache: the second run never touches a checker.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "verdicts.jsonl"
        manager = EquivalenceCheckingManager(seed=42, cache_path=str(cache_path))

        started = time.perf_counter()
        cold = manager.run(qft_static_benchmark(6), qft_dynamic(6))
        cold_ms = (time.perf_counter() - started) * 1000
        started = time.perf_counter()
        warm = manager.run(qft_static_benchmark(6), qft_dynamic(6))
        warm_ms = (time.perf_counter() - started) * 1000
        # A cached result reports the checkers' *original* total_time; the
        # wall clock shows what the lookup actually cost.
        print(f"cold run: {cold.criterion.value} in {cold_ms:.1f}ms (cached={cold.cached})")
        print(
            f"warm run: {warm.criterion.value} in {warm_ms:.3f}ms "
            f"(cached={warm.cached}, {cold_ms / warm_ms:.0f}x faster)"
        )

        # A *fresh* manager on the same journal: verdicts survive restarts.
        reborn = EquivalenceCheckingManager(seed=42, cache_path=str(cache_path))
        replay = reborn.run(qft_static_benchmark(6), qft_dynamic(6))
        print(f"after restart: cached={replay.cached}")

        # ------------------------------------------------------------------
        # 3. In-batch dedup: 12 pairs, 3 distinct — each runs exactly once.
        # ------------------------------------------------------------------
        distinct = [
            (ghz_ladder(4), ghz_ladder(4)),
            (ghz_ladder(4), ghz_with_bug(4)),
            (qft_static_benchmark(5), qft_dynamic(5)),
        ]
        batch = EquivalenceCheckingManager(seed=42, verdict_cache=True).verify_batch(
            [distinct[i % 3] for i in range(12)]
        )
        verdicts = [entry.result.criterion.value for entry in batch.entries]
        print("batch verdicts:", verdicts[:3], "... (12 entries, 3 distinct)")
        print(
            "cached entries:",
            sum(1 for entry in batch.entries if entry.result.cached),
            "of",
            batch.num_pairs,
        )

    # ------------------------------------------------------------------
    # 4. The job-queue server over real HTTP (ephemeral port), with the
    #    backpressure and rate-limiting knobs.  From a shell this is
    #    `repro-qcec serve --port 8111 --queue-limit 64 --rate-limit 50`;
    #    the client side is VerificationClient (or plain curl).
    # ------------------------------------------------------------------
    server = VerificationServer(
        port=0, configuration=Configuration(seed=42), queue_limit=64, rate_limit=50.0
    )
    server.start_background()
    try:
        client = VerificationClient(server.url)
        print("server health:", client.health())

        payload = client.verify(ghz_ladder(4), ghz_ladder(4))
        print(f"server verdict: {payload['criterion']} (cached={payload['cached']})")

        # Identical submissions coalesce while in flight, and completed
        # verdicts are served straight from the cache afterwards.
        repeat = client.verify(ghz_ladder(4), ghz_ladder(4))
        print(f"repeat verdict: {repeat['criterion']} (cached={repeat['cached']})")

        stats = client.stats()
        print(
            f"server stats: submitted={stats['submitted']} "
            f"executed={stats['executed']} coalesced={stats['coalesced']} "
            f"cache_hits={stats['cache']['hits']}"
        )

        # `verify` long-polls GET /jobs/<id>/result?wait=N, so a warm
        # verification takes two HTTP requests instead of a polling loop.
        payload = client.verify(qft_static_benchmark(6), qft_dynamic(6))
        print(f"qft verdict: {payload['criterion']} (cached={payload['cached']})")
        scrape = client.metrics()
        interesting = [
            line
            for line in scrape.splitlines()
            if line.startswith(("repro_service_queue_depth", "repro_verdict_cache_hit_ratio"))
        ]
        print("metrics sample:", *interesting, sep="\n  ")
    finally:
        server.close()


if __name__ == "__main__":
    main()
