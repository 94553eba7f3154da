"""The verdict oracle: every returned verdict is checked against its pair.

Expected verdicts are fixed when the inputs are generated (see
:mod:`inputs`).  A definitive verdict that differs from the expected one is
wrong and aborts the run.  An undecided verdict (``no_information``, or
``probably_equivalent`` for a pair that must be proved equivalent), an HTTP
error or an exception is a failure: it is counted and the run goes on.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, TypeVar

from perfbench.inputs import EQUIVALENT, Pair, verdict_class

T = TypeVar("T")

#: Failure messages printed to stderr before the rest are only counted.
_REPORTED_FAILURES = 5


class WrongVerdict(Exception):
    """A definitive verdict contradicted the oracle."""


def judge(pair: Pair, criterion: str) -> bool:
    """True when ``criterion`` confirms ``pair``; False when it is undecided.

    Raises :class:`WrongVerdict` when it contradicts the expected verdict.
    """
    verdict = verdict_class(criterion)
    if verdict == pair.expected:
        return True
    if verdict is None and not (
        criterion == "probably_equivalent" and pair.expected != EQUIVALENT
    ):
        return False
    raise WrongVerdict(
        f"{pair.kind} pair {pair.name}: expected {pair.expected}, got {criterion}"
    )


class Outcomes:
    """Thread-safe attempted/failed counts of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def guard(self, pair: Pair, call: Callable[[], T]) -> T | None:
        """Run one verification; the value if it confirmed ``pair``, else None.

        ``call`` returns a ``PortfolioResult`` or its JSON payload.
        """
        with self._lock:
            self.attempted += 1
        try:
            value = call()
        except Exception as error:  # noqa: BLE001 - a failed operation is counted, not fatal
            self._fail(pair, f"{type(error).__name__}: {error}")
            return None
        criterion = value["criterion"] if isinstance(value, dict) else value.criterion.value
        if judge(pair, criterion):
            return value
        self._fail(pair, f"undecided verdict {criterion}")
        return None

    def _fail(self, pair: Pair, message: str) -> None:
        with self._lock:
            self.failed += 1
            report = self.failed <= _REPORTED_FAILURES
        if report:
            print(f"failed: {pair.kind} pair {pair.name}: {message}", file=sys.stderr)
