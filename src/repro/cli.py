"""Command-line interface.

Mirrors the way the original QCEC tool is used from the shell: point it at two
OpenQASM files and get an equivalence verdict, or extract the measurement
outcome distribution of a single (dynamic) circuit.

Usage (after ``pip install -e .``)::

    repro-qcec verify static.qasm dynamic.qasm --method alternating --strategy proportional
    repro-qcec verify static.qasm dynamic.qasm --portfolio simulation,alternating
    repro-qcec verify static.qasm dynamic.qasm --scheduler adaptive
    repro-qcec batch manifest.txt --max-workers 8 --scheduler adaptive --json
    repro-qcec batch manifest.txt --executor process --chunk-size 4 --max-workers 8
    repro-qcec batch manifest.txt --cache-path verdicts.jsonl      # warm re-runs
    repro-qcec serve --port 8111 --cache-path verdicts.jsonl       # job-queue server
    repro-qcec verify-behaviour static.qasm dynamic.qasm
    repro-qcec extract dynamic.qasm --backend dd
    repro-qcec show circuit.qasm
    repro-qcec verify a.qasm b.qasm --json > out.json && repro-qcec trace out.json
    repro-qcec telemetry summarize runs.telemetry.jsonl
    repro-qcec --version

or equivalently ``python -m repro.cli ...``.

Every command accepts ``--log-level``/``--log-file`` (JSON-lines structured
logs on stderr or to a file); ``verify``, ``batch`` and ``serve`` accept
``--telemetry PATH`` to append one journal record per settled run.

The ``batch`` manifest is a text file with one circuit pair per line (two
whitespace-separated QASM paths, relative paths resolved against the manifest's
directory; blank lines and ``#`` comments are ignored), or a JSON array of
``[first, second]`` pairs.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from repro import __version__
from repro.circuit import QuantumCircuit, circuit_from_qasm
from repro.core import (
    BatchEntry,
    BatchResult,
    Configuration,
    EquivalenceCheckingManager,
    EquivalenceCriterion,
    available_checkers,
    available_schedulers,
    check_behavioural_equivalence,
    check_equivalence,
    extract_distribution,
)
from repro.exceptions import ReproError
from repro.obs import trace
from repro.obs.logs import configure_logging

__all__ = ["build_parser", "main"]


def _load_circuit(path: str) -> QuantumCircuit:
    text = Path(path).read_text(encoding="utf-8")
    circuit = circuit_from_qasm(text)
    circuit.name = Path(path).stem
    return circuit


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-qcec",
        description="Equivalence checking of (dynamic) quantum circuits given as OpenQASM 2 files.",
    )
    # Single-sourced from repro.__version__ (setup.py reads the same string)
    # so deployed servers and clients can be version-checked.
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # Structured-logging options shared by every subcommand.  Logs go to
    # stderr (or --log-file) as JSON lines, keeping stdout payloads clean.
    logging_options = argparse.ArgumentParser(add_help=False)
    logging_options.add_argument(
        "--log-level",
        default=None,
        choices=["debug", "info", "warning", "error"],
        help="emit JSON-lines structured logs at this level (default: off)",
    )
    logging_options.add_argument(
        "--log-file",
        default=None,
        metavar="PATH",
        help="append structured logs to this file instead of stderr "
        "(implies --log-level info unless given)",
    )

    verify = subparsers.add_parser(
        "verify",
        help="full functional verification (Scheme 1 for dynamic circuits)",
        parents=[logging_options],
    )
    verify.add_argument("first", help="OpenQASM 2 file of the first circuit")
    verify.add_argument("second", help="OpenQASM 2 file of the second circuit")
    # Checker and scheduler names come from the live registries, so
    # registered third-party plugins are selectable without touching the CLI.
    verify.add_argument(
        "--method", default="alternating", choices=list(available_checkers())
    )
    verify.add_argument(
        "--strategy", default="proportional", choices=["naive", "one_to_one", "proportional", "lookahead"]
    )
    verify.add_argument("--backend", default="dd", choices=["dd", "dense"])
    verify.add_argument("--tolerance", type=float, default=1e-7)
    verify.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed of the simulative stimuli (fixed seeds make verdicts cacheable)",
    )
    verify.add_argument(
        "--portfolio",
        default=None,
        metavar="CHECKERS",
        help=(
            "run a comma-separated portfolio of checkers with early termination "
            "instead of a single --method (e.g. 'simulation,alternating')"
        ),
    )
    verify.add_argument(
        "--scheduler",
        default="static",
        choices=list(available_schedulers()),
        help=(
            "portfolio scheduling policy: 'static' runs the portfolio in the "
            "given order, 'adaptive' orders checkers and splits budgets from "
            "circuit features (implies a portfolio run; the default line-up "
            "is used when --portfolio is not given)"
        ),
    )
    verify.add_argument(
        "--timeout", type=float, default=None, help="overall portfolio budget in seconds"
    )
    verify.add_argument(
        "--checker-timeout", type=float, default=None, help="per-checker budget in seconds"
    )
    verify.add_argument(
        "--canonicalize",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "consult the translation-level-invariant canonical fingerprint on "
            "verdict-cache lookups so verdicts are shared across translation "
            "levels (default: on; --no-canonicalize restricts the cache to "
            "raw structural fingerprints)"
        ),
    )
    verify.add_argument(
        "--verdict-cache",
        action="store_true",
        help="consult the verdict cache before scheduling checkers",
    )
    verify.add_argument(
        "--cache-path",
        default=None,
        metavar="PATH",
        help=(
            "persistent JSON-lines tier of the verdict cache (implies "
            "--verdict-cache; verdicts survive across invocations)"
        ),
    )
    verify.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append one run-telemetry journal record per settled run",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="print the result as JSON (includes the span tree of the run "
        "under 'trace' for portfolio runs)",
    )

    batch = subparsers.add_parser(
        "batch",
        help="verify many circuit pairs concurrently from a manifest file",
        parents=[logging_options],
    )
    batch.add_argument(
        "manifest",
        help="text file with 'first.qasm second.qasm' per line, or a JSON array of pairs",
    )
    batch.add_argument(
        "--portfolio",
        default=None,
        metavar="CHECKERS",
        help="comma-separated checkers (default: alternating,simulation)",
    )
    batch.add_argument(
        "--strategy", default="proportional", choices=["naive", "one_to_one", "proportional", "lookahead"]
    )
    batch.add_argument("--backend", default="dd", choices=["dd", "dense"])
    batch.add_argument("--tolerance", type=float, default=1e-7)
    batch.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "seed of the simulative stimuli; without it, unseeded "
            "PROBABLY_EQUIVALENT verdicts are never persisted to --cache-path "
            "(fresh stimuli could still falsify them)"
        ),
    )
    batch.add_argument(
        "--scheduler",
        default="static",
        choices=list(available_schedulers()),
        help="portfolio scheduling policy (see 'verify --scheduler')",
    )
    batch.add_argument("--max-workers", type=int, default=4)
    batch.add_argument(
        "--executor",
        default="thread",
        choices=["thread", "process"],
        help=(
            "run pairs on a thread pool (default) or on a process pool; the DD "
            "checkers are CPU-bound pure Python, so processes scale with cores "
            "where threads are GIL-bound"
        ),
    )
    batch.add_argument(
        "--chunk-size",
        type=int,
        default=1,
        metavar="N",
        help="circuit pairs per process work unit (amortizes pickling overhead)",
    )
    batch.add_argument("--timeout", type=float, default=None, help="overall budget per pair in seconds")
    batch.add_argument(
        "--checker-timeout", type=float, default=None, help="per-checker budget in seconds"
    )
    batch.add_argument(
        "--verdict-cache",
        action="store_true",
        help=(
            "consult the verdict cache before scheduling checkers and dedupe "
            "identical pairs within the batch (each distinct pair runs once)"
        ),
    )
    batch.add_argument(
        "--cache-path",
        default=None,
        metavar="PATH",
        help=(
            "persistent JSON-lines tier of the verdict cache (implies "
            "--verdict-cache; verdicts survive across invocations)"
        ),
    )
    batch.add_argument(
        "--canonicalize",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=(
            "consult the translation-level-invariant canonical fingerprint on "
            "verdict-cache lookups (default: on; see 'verify --canonicalize')"
        ),
    )
    batch.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append one run-telemetry journal record per settled run",
    )
    batch.add_argument("--json", action="store_true")

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP verification job-queue server (submit/status/result/stats)",
        parents=[logging_options],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8111, help="listen port (0 binds an ephemeral port)"
    )
    serve.add_argument(
        "--portfolio",
        default=None,
        metavar="CHECKERS",
        help="comma-separated checkers (default: alternating,simulation)",
    )
    serve.add_argument(
        "--scheduler",
        default="adaptive",
        choices=list(available_schedulers()),
        help="portfolio scheduling policy (adaptive by default for mixed traffic)",
    )
    serve.add_argument("--max-workers", type=int, default=4)
    serve.add_argument("--seed", type=int, default=0, help="stimuli seed (fixed so identical submissions are cacheable)")
    serve.add_argument("--tolerance", type=float, default=1e-7)
    serve.add_argument("--timeout", type=float, default=None, help="overall budget per job in seconds")
    serve.add_argument(
        "--checker-timeout", type=float, default=None, help="per-checker budget in seconds"
    )
    serve.add_argument(
        "--cache-path",
        default=None,
        metavar="PATH",
        help="persistent JSON-lines verdict cache (verdicts survive restarts)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        metavar="N",
        help="LRU bound of the in-memory verdict-cache tier",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=None,
        metavar="N",
        help="reject (429 + Retry-After) once N jobs are unsettled "
        "(default: 16 * --max-workers)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="PER_SECOND",
        help="per-client token-bucket submission rate, 429 + Retry-After "
        "past it (default: unlimited)",
    )
    serve.add_argument(
        "--rate-burst",
        type=float,
        default=None,
        metavar="N",
        help="token-bucket burst size (default: max(2, 2*rate))",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="run every submission fresh instead of serving cached verdicts",
    )
    serve.add_argument(
        "--max-finished-jobs",
        type=int,
        default=1024,
        metavar="N",
        help="settled jobs kept pollable before pruning (pruned verdicts are "
        "still served from the cache when possible)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM, stop accepting (503 + Retry-After) and finish "
        "in-flight jobs for up to this long before exiting (0 disables)",
    )
    serve.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append one run-telemetry journal record per settled run "
        "(summaries appear under 'telemetry' in GET /stats)",
    )

    behaviour = subparsers.add_parser(
        "verify-behaviour",
        help="compare measurement-outcome distributions for the |0...0> input (Scheme 2)",
        parents=[logging_options],
    )
    behaviour.add_argument("first")
    behaviour.add_argument("second")
    behaviour.add_argument("--backend", default="statevector", choices=["statevector", "dd"])
    behaviour.add_argument("--tolerance", type=float, default=1e-7)
    behaviour.add_argument("--json", action="store_true")

    extract = subparsers.add_parser(
        "extract",
        help="extract the measurement-outcome distribution of one circuit",
        parents=[logging_options],
    )
    extract.add_argument("circuit")
    extract.add_argument("--backend", default="statevector", choices=["statevector", "dd"])
    extract.add_argument("--initial-state", default=None, help="bitstring input state (default |0...0>)")
    extract.add_argument("--json", action="store_true")

    show = subparsers.add_parser(
        "show",
        help="print a summary and drawing of a circuit",
        parents=[logging_options],
    )
    show.add_argument("circuit")

    trace_cmd = subparsers.add_parser(
        "trace",
        help="convert recorded spans to Chrome trace-event JSON "
        "(chrome://tracing, https://ui.perfetto.dev)",
        parents=[logging_options],
    )
    trace_cmd.add_argument(
        "file",
        help="JSON file: 'verify --json' output, a GET /jobs/<id>/trace "
        "payload, or a raw span list",
    )
    trace_cmd.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="PATH",
        help="write the trace-event JSON here (default: stdout)",
    )

    telemetry = subparsers.add_parser(
        "telemetry",
        help="inspect a run-telemetry journal written via --telemetry",
        parents=[logging_options],
    )
    telemetry.add_argument("action", choices=["summarize"])
    telemetry.add_argument("path", help="telemetry journal file")
    telemetry.add_argument("--json", action="store_true")
    return parser


def _parse_portfolio(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _load_manifest(path: str) -> list[tuple[Path, Path]]:
    """Read a batch manifest: whitespace-separated pairs or a JSON array."""
    manifest = Path(path)
    text = manifest.read_text(encoding="utf-8")
    base = manifest.parent
    pairs: list[tuple[Path, Path]] = []
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            entries = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReproError(f"manifest {path!r} is not valid JSON: {error}") from error
        for position, entry in enumerate(entries):
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ReproError(
                    f"manifest entry {position} must be a [first, second] pair, "
                    f"got {entry!r}"
                )
            pairs.append((base / str(entry[0]), base / str(entry[1])))
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ReproError(
                    f"manifest line {lineno} must name exactly two QASM files, got {line!r}"
                )
            pairs.append((base / parts[0], base / parts[1]))
    if not pairs:
        raise ReproError(f"manifest {path!r} names no circuit pairs")
    return pairs


def _portfolio_payload(name_first: str, name_second: str, result) -> dict:
    # The payload itself lives on PortfolioResult.to_json (shared with the
    # job-queue server); the CLI only adds the operand names.
    return {"first": name_first, "second": name_second, **result.to_json()}


def _command_verify(args: argparse.Namespace) -> int:
    first = _load_circuit(args.first)
    second = _load_circuit(args.second)
    configuration = Configuration(
        method=args.method,
        strategy=args.strategy,
        backend=args.backend,
        tolerance=args.tolerance,
        seed=args.seed,
        portfolio=_parse_portfolio(args.portfolio),
        scheduler=args.scheduler,
        timeout=args.timeout,
        checker_timeout=args.checker_timeout,
        verdict_cache=args.verdict_cache,
        cache_path=args.cache_path,
        canonicalize=True if args.canonicalize is None else args.canonicalize,
        telemetry_path=args.telemetry,
    )
    if configuration.cache_enabled:
        # Cache consultation happens in the manager; route through it.
        if args.portfolio is None and args.method != "alternating":
            configuration = configuration.updated(portfolio=(args.method,))
        return _verify_with_portfolio(first, second, configuration, args)
    if args.portfolio is not None or args.scheduler != "static":
        # An explicit portfolio, or any non-static scheduling policy, runs
        # through the manager.  Without --portfolio the scheduler orders the
        # default line-up — unless the user explicitly picked a --method, in
        # which case that single checker is the portfolio (an explicit
        # --method is never silently replaced by the default line-up).
        if args.portfolio is None and args.method != "alternating":
            configuration = configuration.updated(portfolio=(args.method,))
        return _verify_with_portfolio(first, second, configuration, args)
    if (
        args.timeout is not None
        or args.checker_timeout is not None
        or args.telemetry is not None
    ):
        # Timeouts and run telemetry are enforced by the manager; run the
        # single method as a one-checker portfolio so they actually apply.
        configuration = configuration.updated(portfolio=(args.method,))
        return _verify_with_portfolio(first, second, configuration, args)
    result = check_equivalence(first, second, configuration)
    if args.json:
        print(
            json.dumps(
                {
                    "criterion": result.criterion.value,
                    "equivalent": result.equivalent,
                    "method": result.method,
                    "strategy": result.strategy,
                    "backend": result.backend,
                    "time_transformation": result.time_transformation,
                    "time_check": result.time_check,
                }
            )
        )
    else:
        print(f"{first.name} vs {second.name}: {result.criterion.value}")
        print(
            f"  method={result.method} strategy={result.strategy} backend={result.backend} "
            f"t_trans={result.time_transformation:.6f}s t_ver={result.time_check:.6f}s"
        )
    return 0 if result.equivalent else 1


def _verify_with_portfolio(first, second, configuration: Configuration, args) -> int:
    manager = EquivalenceCheckingManager(configuration)
    tracer = trace.Tracer()
    with trace.activate(tracer):
        result = manager.run(first, second)
    if args.json:
        payload = _portfolio_payload(first.name, second.name, result)
        payload["trace"] = {"trace_id": tracer.trace_id, "tree": tracer.tree()}
        print(json.dumps(payload))
    else:
        print(f"{first.name} vs {second.name}: {result.criterion.value}")
        print(
            f"  scheduler={result.scheduler} schedule={','.join(result.schedule)} "
            f"decided_by={result.decided_by}"
        )
        if result.cached:
            print(f"  served from cache (via {result.cached_via})")
        print(f"  {result.reason}")
        for attempt in result.attempts:
            verdict = attempt.result.criterion.value if attempt.result else "-"
            print(
                f"  [{attempt.status}] {attempt.method}: {verdict} "
                f"t={attempt.time_taken:.6f}s"
            )
    if result.criterion is EquivalenceCriterion.NO_INFORMATION:
        # No checker produced a verdict (errors/timeouts) — that is a failed
        # check, not a non-equivalence finding.
        print(f"error: {result.reason}", file=sys.stderr)
        return 2
    return 0 if result.equivalent else 1


def _command_batch(args: argparse.Namespace) -> int:
    pairs_paths = _load_manifest(args.manifest)
    # Load per pair so that one unreadable/malformed QASM file is recorded as
    # a failed entry instead of aborting the whole batch.
    circuits: list[tuple[QuantumCircuit, QuantumCircuit]] = []
    load_failures: dict[int, BatchEntry] = {}
    for index, (first_path, second_path) in enumerate(pairs_paths):
        try:
            circuits.append((_load_circuit(str(first_path)), _load_circuit(str(second_path))))
        except (ReproError, OSError) as error:
            load_failures[index] = BatchEntry(
                index=index,
                name_first=first_path.stem,
                name_second=second_path.stem,
                error=f"{type(error).__name__}: {error}",
            )
    configuration = Configuration(
        strategy=args.strategy,
        backend=args.backend,
        tolerance=args.tolerance,
        seed=args.seed,
        portfolio=_parse_portfolio(args.portfolio),
        scheduler=args.scheduler,
        timeout=args.timeout,
        checker_timeout=args.checker_timeout,
        max_workers=args.max_workers,
        executor=args.executor,
        batch_chunk_size=args.chunk_size,
        verdict_cache=args.verdict_cache,
        cache_path=args.cache_path,
        canonicalize=True if args.canonicalize is None else args.canonicalize,
        telemetry_path=args.telemetry,
    )
    manager = EquivalenceCheckingManager(configuration)
    batch = manager.verify_batch(circuits)
    if load_failures:
        merged: list[BatchEntry] = []
        verified = iter(batch.entries)
        for index in range(len(pairs_paths)):
            if index in load_failures:
                merged.append(load_failures[index])
            else:
                entry = next(verified)
                entry.index = index
                merged.append(entry)
        batch = BatchResult(
            entries=merged,
            total_time=batch.total_time,
            max_workers=batch.max_workers,
            executor=batch.executor,
        )
    cache_stats = (
        manager.verdict_cache.statistics() if manager.verdict_cache is not None else None
    )
    if args.json:
        payload = batch.summary()
        payload["cache"] = cache_stats
        payload["entries"] = [
            {
                "index": entry.index,
                "first": entry.name_first,
                "second": entry.name_second,
                "criterion": entry.result.criterion.value if entry.result else None,
                "equivalent": entry.equivalent,
                "decided_by": entry.result.decided_by if entry.result else None,
                "scheduler": entry.result.scheduler if entry.result else None,
                "schedule": entry.result.schedule if entry.result else None,
                "cached": entry.result.cached if entry.result else None,
                "cached_via": entry.result.cached_via if entry.result else None,
                "checkers": (
                    [attempt.to_json() for attempt in entry.result.attempts]
                    if entry.result
                    else None
                ),
                "error": entry.error,
                "time": entry.time_taken,
            }
            for entry in batch.entries
        ]
        print(json.dumps(payload))
    else:
        for entry in batch.entries:
            if entry.result is not None:
                verdict = entry.result.criterion.value
                extra = f"decided_by={entry.result.decided_by}"
            else:
                verdict = "failed"
                extra = entry.error or ""
            print(
                f"[{entry.index}] {entry.name_first} vs {entry.name_second}: "
                f"{verdict} t={entry.time_taken:.6f}s {extra}".rstrip()
            )
        print(
            f"batch: {batch.num_equivalent}/{batch.num_pairs} equivalent, "
            f"{batch.num_failed} failed, t={batch.total_time:.6f}s "
            f"(workers={batch.max_workers}, executor={batch.executor})"
        )
        if cache_stats is not None:
            print(
                f"cache: {cache_stats['hits']} hits, {cache_stats['misses']} misses, "
                f"{cache_stats['stores']} stores, "
                f"{cache_stats['persistent_entries']} persisted"
            )
    if not batch.any_verdict:
        # Mirror `verify`: every pair failed or stayed undecided, so nothing
        # was actually checked — that is a failed run (2), not a
        # non-equivalence finding (1).
        print(
            f"error: no pair produced a verdict ({batch.num_failed}/{batch.num_pairs} "
            "failed or undecided)",
            file=sys.stderr,
        )
        return 2
    return 0 if batch.all_equivalent else 1


def _command_serve(args: argparse.Namespace) -> int:
    # Imported here so plain verify/batch invocations never pay for the
    # service layer.
    from repro.service.server import VerificationServer

    use_cache = not args.no_cache
    configuration = Configuration(
        portfolio=_parse_portfolio(args.portfolio),
        scheduler=args.scheduler,
        max_workers=args.max_workers,
        seed=args.seed,
        tolerance=args.tolerance,
        timeout=args.timeout,
        checker_timeout=args.checker_timeout,
        verdict_cache=use_cache,
        cache_path=args.cache_path if use_cache else None,
        cache_size=args.cache_size,
        telemetry_path=args.telemetry,
    )
    # Without --queue-limit the server picks its own default.
    limits = {} if args.queue_limit is None else {"queue_limit": args.queue_limit}
    server = VerificationServer(
        host=args.host,
        port=args.port,
        configuration=configuration,
        cache=use_cache,
        max_finished_jobs=args.max_finished_jobs,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        **limits,
    )
    cache = (args.cache_path or "in-memory") if use_cache else "disabled"
    print(
        f"repro-qcec {__version__} serving on {server.url} "
        f"(workers={args.max_workers}, scheduler={args.scheduler}, "
        f"cache={cache}, queue_limit={server.service.queue_limit})",
        flush=True,
    )
    # SIGTERM (the orchestrator's "please stop") drains gracefully: new
    # submissions get 503 + Retry-After while in-flight jobs finish and the
    # verdict journal is flushed.  Ctrl-C stays an immediate shutdown.
    class _Terminated(Exception):
        pass

    def _on_sigterm(signum, frame):
        raise _Terminated

    previous_handler = None
    try:
        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread (embedded use); skip the handler
    drain_timeout = 0.0
    try:
        server.serve_forever()
    except _Terminated:
        drain_timeout = max(0.0, args.drain_timeout)
        print(
            f"SIGTERM: draining in-flight jobs (up to {drain_timeout:g}s)",
            file=sys.stderr,
        )
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        server.close(drain_timeout=drain_timeout)
    return 0


def _command_verify_behaviour(args: argparse.Namespace) -> int:
    first = _load_circuit(args.first)
    second = _load_circuit(args.second)
    result = check_behavioural_equivalence(
        first, second, backend=args.backend, tolerance=args.tolerance
    )
    if args.json:
        print(
            json.dumps(
                {
                    "criterion": result.criterion.value,
                    "equivalent": result.equivalent,
                    "total_variation_distance": result.details["total_variation_distance"],
                    "classical_fidelity": result.details["classical_fidelity"],
                }
            )
        )
    else:
        print(f"{first.name} vs {second.name}: {result.criterion.value}")
        print(
            f"  TVD={result.details['total_variation_distance']:.3e} "
            f"fidelity={result.details['classical_fidelity']:.6f}"
        )
    return 0 if result.equivalent else 1


def _command_extract(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    result = extract_distribution(circuit, args.initial_state, backend=args.backend)
    if args.json:
        print(
            json.dumps(
                {
                    "distribution": result.distribution,
                    "num_paths": result.num_paths,
                    "backend": result.backend,
                    "time": result.time_taken,
                }
            )
        )
    else:
        print(f"{circuit.name}: {result.num_paths} path(s), t_extract={result.time_taken:.6f}s")
        for outcome in sorted(result.distribution):
            print(f"  |{outcome}> : {result.distribution[outcome]:.6f}")
    return 0


def _command_show(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args.circuit)
    print(circuit.summary())
    print(circuit.draw())
    return 0


def _flatten_span_nodes(nodes: list) -> list[dict]:
    """Flatten ``span_tree`` nodes (or already-flat span dicts) to a list."""
    flat: list[dict] = []
    for node in nodes:
        if not isinstance(node, dict):
            continue
        flat.append({key: value for key, value in node.items() if key != "children"})
        children = node.get("children")
        if isinstance(children, list):
            flat.extend(_flatten_span_nodes(children))
    return flat


def _extract_spans(payload) -> list[dict]:
    """Spans from any supported trace container (see the ``trace`` command)."""
    if isinstance(payload, list):
        return _flatten_span_nodes(payload)
    if isinstance(payload, dict):
        for key in ("trace", "tree", "spans"):
            value = payload.get(key)
            if isinstance(value, dict):
                # 'verify --json' nests {"trace_id": ..., "tree": [...]}.
                inner = value.get("tree")
                if isinstance(inner, list):
                    return _flatten_span_nodes(inner)
            if isinstance(value, list):
                return _flatten_span_nodes(value)
    return []


def _command_trace(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.file).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        print(f"error: {args.file!r} is not valid JSON: {error}", file=sys.stderr)
        return 2
    spans = _extract_spans(payload)
    if not spans:
        print(
            f"error: no spans found in {args.file!r} (expected 'verify --json' "
            "output, a /jobs/<id>/trace payload, or a span list)",
            file=sys.stderr,
        )
        return 2
    text = json.dumps(trace.export_chrome(spans))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(spans)} span(s) to {args.output}")
    else:
        print(text)
    return 0


def _command_telemetry(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import TelemetryJournal

    if not Path(args.path).exists():
        print(f"error: no telemetry journal at {args.path!r}", file=sys.stderr)
        return 2
    summary = TelemetryJournal(args.path).summarize()
    if args.json:
        print(json.dumps(summary))
        return 0
    print(f"runs: {summary['runs']} (total {summary['total_time']:.6f}s)")
    for title, counts in (
        ("verdicts", summary["verdicts"]),
        ("schedulers", summary["schedulers"]),
        ("cache", summary["cache"]),
    ):
        if counts:
            rendered = ", ".join(f"{key}={value}" for key, value in sorted(counts.items()))
            print(f"{title}: {rendered}")
    for name in sorted(summary["checkers"]):
        stats = summary["checkers"][name]
        statuses = ", ".join(
            f"{key}={value}" for key, value in sorted(stats["statuses"].items())
        )
        print(
            f"  {name}: attempts={stats['attempts']} decisions={stats['decisions']} "
            f"mean={stats['mean_time']:.6f}s [{statuses}]"
        )
    return 0


_COMMANDS = {
    "verify": _command_verify,
    "batch": _command_batch,
    "serve": _command_serve,
    "verify-behaviour": _command_verify_behaviour,
    "extract": _command_extract,
    "show": _command_show,
    "trace": _command_trace,
    "telemetry": _command_telemetry,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "log_level", None) is not None or getattr(args, "log_file", None):
        configure_logging(level=args.log_level, path=args.log_file)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
