"""The ``service_mix`` workload: HTTP submit -> result against ``repro-qcec serve``.

The server runs as a subprocess (``python -m repro.cli serve``) on an
ephemeral port with a fresh ``--cache-path`` journal, ``--seed 0`` (its own
default) and ``--scheduler static`` (the library default; ``serve`` would
otherwise pick ``adaptive``).  Load is a closed loop of one client, which
sends its next request when the previous verdict has arrived: with two
client threads on a 2-core host, a hit's latency depended on whether a miss
ran on the other thread, and the figures moved 15-23% between seeds.
Requests come in blocks of :data:`inputs.BLOCK_KINDS`, sent one block after
the other; a run ends with the first block that finishes after ``seconds``,
so the request kinds always come in exact proportions.
"""

from __future__ import annotations

import hashlib
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import Configuration, circuit_from_qasm
from repro.service import VerificationClient
from repro.service.fingerprint import pair_fingerprint

from perfbench import inputs
from perfbench.hostspeed import SpeedTracker, scale_times
from perfbench.inputs import BLOCK_SIZE, Pair
from perfbench.layers import LayerTally, overhead_share, percentile, walk
from perfbench.verdicts import Outcomes, judge

#: Pre-generated requests per measured second: an upper bound on the rate.
MAX_RATE = 80
#: Seconds to wait for the server to report its address.
STARTUP_TIMEOUT = 60.0
VERIFY_TIMEOUT = 120.0

_SERVING = re.compile(r"serving on (http://\S+)")
_SPAN_LAYERS = ("scheduler.decide", "cache.lookup", "fingerprint.canonical", "checker.run")


class Server:
    """One ``repro-qcec serve`` subprocess with its own journal directory."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(workdir / "server.log", "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", "0",
                "--scheduler", "static", "--seed", "0",
                "--cache-path", str(workdir / "verdicts.jsonl"),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            self.url = self._read_url()
        except BaseException:
            self.close()
            raise

    def _read_url(self) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], STARTUP_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        match = _SERVING.search(line)
        if match is None:
            raise RuntimeError(f"server did not start (see {self.workdir / 'server.log'}): {line!r}")
        return match.group(1)

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass
class Session:
    server: Server
    blocks: list[list[Pair]]


def setup(root: Path, seed: int, seconds: float, workdir: Path) -> tuple[Session, str]:
    """Generate inputs, start a server, prime its cache with the pool.

    Returns the session and a digest of every request text, so callers can
    check that repeated set-ups generated the same inputs.
    """
    pool = inputs.service_pool()
    # At least two blocks: the traced run alternates untraced and traced ones.
    num_blocks = max(2, -(-int(seconds * MAX_RATE) // BLOCK_SIZE))
    blocks = inputs.service_blocks(seed, pool, num_blocks)
    server = Server(root, workdir)
    try:
        client = VerificationClient(server.url, timeout=VERIFY_TIMEOUT)
        for pair in pool:
            criterion = client.verify(pair.first, pair.second, timeout=VERIFY_TIMEOUT)["criterion"]
            if not judge(pair, criterion):
                raise RuntimeError(f"priming left {pair.name} undecided: {criterion}")
    except BaseException:
        server.close()
        raise
    digest = hashlib.sha256()
    for pair in (p for block in blocks for p in block):
        digest.update(pair.first.encode())
        digest.update(pair.second.encode())
    return Session(server, blocks), digest.hexdigest()


class _CountingClient(VerificationClient):
    """A client that counts the HTTP requests it makes."""

    requests = 0

    def _request_once(self, *args, **kwargs):
        self.requests += 1
        return super()._request_once(*args, **kwargs)


def _send(
    block: list[Pair],
    call: Callable[[Pair], dict],
    outcomes: Outcomes,
    speed: SpeedTracker,
    latencies: list[float],
    walls: list[float],
    on_done: Callable[[Pair, dict, float], None] | None = None,
) -> None:
    """Send one block, each request when the previous verdict has arrived.

    Every confirmed verdict adds its latency to ``walls`` and, scaled by the
    host-speed probes right before and after the request, to ``latencies``;
    ``on_done`` gets the wall-clock latency.
    """
    for pair in block:
        began = time.perf_counter()
        payload = outcomes.guard(pair, lambda: call(pair))
        elapsed = time.perf_counter() - began
        scaled = speed.scale(elapsed)
        if payload is None:
            continue
        latencies.append(scaled * 1e3)
        walls.append(elapsed * 1e3)
        if on_done is not None:
            on_done(pair, payload, elapsed * 1e3)


def _plain_call(url: str) -> Callable[[Pair], dict]:
    client = VerificationClient(url, timeout=VERIFY_TIMEOUT)
    return lambda pair: client.verify(pair.first, pair.second, timeout=VERIFY_TIMEOUT)


def measure(session: Session, seconds: float, outcomes: Outcomes) -> dict:
    """Untraced closed-loop traffic, block after block, for ``seconds``.

    Latency quantiles run over every request of the run, each latency
    scaled to the reference host speed (see :mod:`perfbench.hostspeed`).
    With one request in flight, the scaled latencies add up to the time the
    run spent waiting for verdicts, so throughput is requests per second of
    their sum (the probes between requests are not counted).
    """
    call = _plain_call(session.server.url)
    speed = SpeedTracker(repeats=1)
    latencies: list[float] = []
    walls: list[float] = []
    start = time.perf_counter()
    for block in session.blocks:
        _send(block, call, outcomes, speed, latencies, walls)
        if time.perf_counter() - start >= seconds:
            break
    return {
        "throughput": len(latencies) / (sum(latencies) / 1e3),
        "latency_ms_p50": percentile(latencies, 0.5),
        "latency_ms_p90": percentile(latencies, 0.9),
        "peak_rss_mb": session.server.peak_rss_mb(),
        "samples": len(latencies),
        "speed_factor": statistics.median(speed.factors),
        "wall": {
            "throughput": len(walls) / (sum(walls) / 1e3),
            "latency_ms_p50": percentile(walls, 0.5),
            "latency_ms_p90": percentile(walls, 0.9),
        },
    }


def _stats_counters(stats: dict) -> dict[str, float]:
    cache = stats["cache"]
    journal = cache["journal"] or {}
    return {
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.stores": cache["stores"],
        "cache.canonical_hits": stats["canonicalization"]["cache_hits"],
        "journal.appends": journal.get("appends", 0),
        "journal.append_errors": journal.get("append_errors", 0),
        "server.coalesced": stats["coalesced"],
        "server.rejected": stats["rejected"],
        "server.failed": stats["failed"],
    }


def traced(session: Session, seconds: float, outcomes: Outcomes) -> dict:
    """Per-layer split: untraced and traced blocks alternate until ``seconds``.

    Traced requests are a ``submit`` plus a long-polling ``wait`` (what
    ``verify`` does) on a request-counting client; after each verdict, and
    outside its latency, the job's timestamps and span tree are fetched.
    Cache, journal and server counters are ``/stats`` deltas over the
    traced blocks; times are scaled like :func:`measure`'s.  Parse and
    raw-fingerprint times are replays of the traced requests in this
    process, after the traffic.
    """
    url = session.server.url
    stats_client = VerificationClient(url, timeout=VERIFY_TIMEOUT)
    counters: dict[str, float] = defaultdict(float)
    tally = LayerTally()
    records: list[tuple[Pair, float, float]] = []  # pair, latency, job lifetime
    client = _CountingClient(url, timeout=VERIFY_TIMEOUT)

    def traced_call(pair: Pair) -> dict:
        sent = client.requests
        job_id = client.submit(pair.first, pair.second)["job_id"]
        payload = client.wait(job_id, timeout=VERIFY_TIMEOUT)
        return dict(payload, job_id=job_id, http_requests=client.requests - sent)

    def record(pair: Pair, payload: dict, latency_ms: float) -> None:
        status = client.status(payload["job_id"])
        tree = client.trace(payload["job_id"])["tree"]
        queue_wait_ms = (status["started_at"] - status["submitted_at"]) * 1e3
        job_ms = (status["finished_at"] - status["started_at"]) * 1e3
        lifetime_ms = (status["finished_at"] - status["submitted_at"]) * 1e3
        named_ms = sum(
            (node["duration"] or 0.0) * 1e3
            for node in walk(tree)
            if node["name"] in _SPAN_LAYERS
        )
        tally.operations += 1
        tally.sample("server.queue_wait_ms", queue_wait_ms)
        tally.sample("server.job_ms", job_ms)
        tally.sample("unattributed_ms", max(0.0, job_ms - named_ms))
        tally.add("client.requests", payload["http_requests"])
        tally.add_manager_tree(tree)
        if not payload["cached"]:
            tally.add_attempts(payload["attempts"])
        records.append((pair, latency_ms, lifetime_ms))

    plain_call = _plain_call(url)
    speed = SpeedTracker(repeats=1)
    latencies: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    with_trace = False
    for block in session.blocks:
        if with_trace:
            before = _stats_counters(stats_client.stats())
            _send(block, traced_call, outcomes, speed, latencies[True], [], record)
            for name, value in _stats_counters(stats_client.stats()).items():
                counters[name] += value - before[name]
            if time.perf_counter() - start >= seconds:
                break
        else:
            _send(block, plain_call, outcomes, speed, latencies[False], [])
        with_trace = not with_trace

    configuration = Configuration(seed=0)
    for pair, latency_ms, lifetime_ms in records:
        began = time.perf_counter()
        first = circuit_from_qasm(pair.first)
        second = circuit_from_qasm(pair.second)
        parsed = time.perf_counter()
        pair_fingerprint(first, second, configuration)
        fingerprinted = time.perf_counter()
        parse_ms = (parsed - began) * 1e3
        raw_ms = (fingerprinted - parsed) * 1e3
        tally.add("qasm.parse_ms", parse_ms)
        tally.add("qasm.bytes", len(pair.first) + len(pair.second))
        tally.add("fingerprint.raw_ms", raw_ms)
        tally.sample("server.frontend_ms", latency_ms - lifetime_ms - parse_ms - raw_ms)

    lookups = counters["cache.hits"] + counters["cache.misses"]
    metrics = {
        "qasm.parse_ms": tally.per_operation("qasm.parse_ms"),
        "qasm.bytes": tally.per_operation("qasm.bytes"),
        "fingerprint.raw_ms": tally.per_operation("fingerprint.raw_ms"),
        "fingerprint.canonical_ms": tally.ratio("fingerprint.canonical_ms", "fingerprint.canonical_calls"),
        "fingerprint.canonical_calls": tally.sums["fingerprint.canonical_calls"],
        **counters,
        "cache.hit_ratio": counters["cache.hits"] / lookups if lookups else 0.0,
        "cache.lookup_ms": tally.ratio("cache.lookup_ms", "cache.lookups"),
        "server.queue_wait_ms_p50": percentile(tally.samples["server.queue_wait_ms"], 0.5),
        "server.queue_wait_ms_p90": percentile(tally.samples["server.queue_wait_ms"], 0.9),
        "server.job_ms": tally.median("server.job_ms"),
        "server.frontend_ms": tally.median("server.frontend_ms"),
        "client.requests_per_verify": tally.per_operation("client.requests"),
        "manager.run_ms": tally.ratio("manager.run_ms", "manager.runs"),
        "manager.unattributed_share": tally.ratio("manager.self_ms", "manager.run_ms"),
        "scheduler.decide_ms": tally.ratio("scheduler.decide_ms", "scheduler.decides"),
        **tally.checker_metrics(),
        "trace.overhead_share": overhead_share(
            len(latencies[False]) / sum(latencies[False]), len(latencies[True]) / sum(latencies[True])
        ),
        "unattributed_ms": tally.median("unattributed_ms"),
    }
    return scale_times(metrics, statistics.median(speed.factors))
