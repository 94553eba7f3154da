"""Step generators: computations that yield after every unit of work and
``return`` their result — the equivalence checkers, which the portfolio
manager interleaves in one thread.  :func:`drive` runs one to completion;
:func:`timed` clocks only the time spent inside its own steps."""

import time
from collections.abc import Generator
from contextlib import closing
from typing import TypeVar

T = TypeVar("T")


def drive(steps: Generator[object, None, T]) -> T:
    """Run a step generator to completion and return its result."""
    try:
        while True:
            next(steps)
    except StopIteration as stop:
        return stop.value


def timed(steps: Generator[object, None, T]) -> Generator[object, None, tuple[T, float]]:
    """Re-yield a step generator's steps; return its result and the seconds
    spent inside them (not between them, when other generators ran)."""
    seconds = 0.0
    with closing(steps):
        while True:
            began = time.perf_counter()
            try:
                report = next(steps)
            except StopIteration as stop:
                return stop.value, seconds + time.perf_counter() - began
            seconds += time.perf_counter() - began
            yield report
