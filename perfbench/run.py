"""Benchmark of the default verification path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1_equiv --seed 1 --seconds 15 --trace 0

Workloads: ``table1_equiv``, ``table1_mutants``, ``service_mix`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` is the separate traced run that splits the time across the
program's layers.  Human-readable figures go to stdout, followed by one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  A verdict that
contradicts the oracle exits with code 1; any other error with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("table1_equiv", "table1_mutants", "service_mix")

#: Set-ups per run: at least SETUP_REPEATS, and more while all of them
#: together took less than SETUP_SECONDS (at most MAX_SETUPS); ``setup_s``
#: is the median.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
MAX_SETUPS = 10
#: Kernel runs per host-speed probe around a set-up.
SETUP_PROBE_REPEATS = 20
IMPORT_TIMEOUT = 120.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put ``src/`` and this directory on the path and import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program sources at {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro  # noqa: F401
    import repro.service  # noqa: F401


def _import_fresh() -> None:
    """Start an interpreter that imports the program, as a user's process does."""
    subprocess.run(
        [sys.executable, "-c", "import repro, repro.service"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
        timeout=IMPORT_TIMEOUT,
    )


def _set_up(args: argparse.Namespace, workdir: Path):
    """Set up :data:`SETUP_REPEATS` or more times; the last state, scaled durations, factors.

    One set-up starts an interpreter that imports the program, then
    generates the inputs (and, for ``service_mix``, starts and primes a
    server).  Durations are scaled to the reference host speed (see
    :mod:`perfbench.hostspeed`): unscaled, two sets of ten runs on one
    2-core host put the median ``table1_equiv`` set-up 38% apart.  Every
    repetition must generate byte-identical inputs.
    """
    from perfbench import inputs, service
    from perfbench.hostspeed import SpeedTracker

    durations, identities, state = [], [], None
    speed = SpeedTracker(repeats=SETUP_PROBE_REPEATS)
    try:
        while len(durations) < SETUP_REPEATS or (sum(durations) < SETUP_SECONDS and len(durations) < MAX_SETUPS):
            repeat = len(durations)
            if state is not None and args.workload == "service_mix":
                state.server.close()
                state = None
            began = time.perf_counter()
            _import_fresh()
            if args.workload == "table1_equiv":
                state = inputs.table1_pairs(args.seed)
                identity = [(p.first, p.second) for p in state]
            elif args.workload == "table1_mutants":
                state = inputs.mutant_pairs(args.seed)
                identity = [(p.first, p.second) for p in state]
            else:
                state, identity = service.setup(ROOT, args.seed, args.seconds, workdir / f"server-{repeat}")
            durations.append(speed.scale(time.perf_counter() - began))
            identities.append(identity)
        if any(identity != identities[0] for identity in identities):
            raise RuntimeError("input generation is not deterministic for this seed")
    except BaseException:
        if state is not None and args.workload == "service_mix":
            state.server.close()
        raise
    return state, durations, speed.factors


def _run(args: argparse.Namespace, state, outcomes) -> tuple[dict, str]:
    from perfbench import service, table1

    if args.workload == "service_mix":
        module, unit = service, "requests"
    else:
        module, unit = table1, "pairs"
    if args.trace:
        return module.traced(state, args.seconds, outcomes), unit
    return module.measure(state, args.seconds, outcomes), unit


def _report(args, metrics: dict, samples: dict, attempted: int, failed: int, units: dict) -> None:
    kind = "per-layer (traced run)" if args.trace else "end-to-end (untraced run)"
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g}: {kind}")
    for name, unit in units.items():
        note = f"  n={samples[name]}" if name in samples else ""
        print(f"  {name:<36} {metrics[name]:>14.4f} {unit:<8}{note}")
    rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':<36} {rate:>14.4f} {'ratio':<8}  n={attempted} ({failed} failed)")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # A terminated run still stops its server subprocess (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        _import_program()
    except (FileNotFoundError, ImportError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from perfbench.layers import END_TO_END, PER_LAYER
    from perfbench.verdicts import Outcomes, WrongVerdict

    workdir = WORKDIR / f"run-{os.getpid()}"
    outcomes = Outcomes()
    state = None
    try:
        state, setup_durations, setup_factors = _set_up(args, workdir)
        figures, counted = _run(args, state, outcomes)
    except WrongVerdict as error:
        print(f"perfbench: wrong verdict: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": outcomes.attempted, "failed": outcomes.failed, "metrics": {}}))
        return 1
    finally:
        if args.workload == "service_mix" and state is not None:
            state.server.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    if args.trace:
        units = PER_LAYER
        metrics = {name: float(figures.get(name, 0.0)) for name in units}
        samples = {}
    else:
        units = END_TO_END
        metrics = {name: figures[name] for name in units if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setup_durations)
        samples = {
            "throughput": f"{figures['samples']} {counted}",
            "latency_ms_p50": figures["samples"],
            "latency_ms_p90": figures["samples"],
            "setup_s": len(setup_durations),
        }
    _report(args, metrics, samples, outcomes.attempted, outcomes.failed, units)
    if "wall" in figures:
        wall = ", ".join(f"{name} {value:.4f}" for name, value in figures["wall"].items())
        setup_wall = statistics.median(d / f for d, f in zip(setup_durations, setup_factors))
        print(f"  plain wall clock: {wall}, setup_s {setup_wall:.4f}")
        print(
            f"  host-speed factor applied: {figures['speed_factor']:.4f}"
            f" (set-up {statistics.median(setup_factors):.4f})"
        )
    result = {
        "correct": True,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
