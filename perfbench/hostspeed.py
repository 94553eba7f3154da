"""Host-speed scaling of measured times.

Small shared hosts change speed by up to about 1.7x, in phases from
seconds to minutes long (other tenants, frequency changes).  A fixed
pure-Python kernel tracks those phases, and the benchmark reports times
scaled to a host on which the kernel takes :data:`REFERENCE_S`,

    scaled = measured * REFERENCE_S / kernel_time

and rates accordingly.  The kernel does the kind of work the program does
most (dictionary reads and writes on small integers), so a slower phase
slows both alike:

* Table-1 workloads time the kernel right before and after each
  verification (:class:`SpeedTracker`); on one 2-core host this brought
  the run-to-run spread of a pass over the Table-1 mutants from 12% to
  3.5%.
* ``service_mix`` does the same around each request, with one kernel run
  per probe (there are hundreds of requests per run, and a longer probe
  after every one would take a large part of the run).  Scaling the run by
  the median of probes taken between blocks instead left a 15-19% spread
  between seeds; per request it was 4-7%, also across a phase in which
  the host ran 1.7x faster.
* ``setup_s`` does the same around each set-up, with 20 kernel runs per
  probe: a set-up takes 0.4-4 s, and shorter probes around it tracked its
  speed worse than its unscaled time varied, while the one factor of the
  whole run missed speed changes between set-up and measurement.

Human-readable output also shows the plain wall-clock figures and the
factor applied.
"""

from __future__ import annotations

import statistics
import time

#: Kernel time (seconds) of the reference host all times are scaled to.
REFERENCE_S = 0.0025

_KERNEL_STEPS = 20_000
_REPEATS = 5


def _kernel() -> int:
    table: dict[int, int] = {}
    for step in range(_KERNEL_STEPS):
        key = step % 977
        table[key] = table.get(key, 0) + step
    return len(table)


def probe(repeats: int = _REPEATS) -> float:
    """The kernel's current time in seconds (median of ``repeats`` runs).

    The median rather than the best run: a verification runs through the
    host's short stalls too, and with the best of three the run-to-run
    spread of ``table1_equiv`` was 8-11% against 3-4% with the median of
    five (five seeds each, interleaved, on one 2-core host).
    """
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - began)
    return statistics.median(times)


class SpeedTracker:
    """Scales each measured interval by the kernel times around it."""

    def __init__(self, repeats: int = _REPEATS) -> None:
        self.repeats = repeats
        self.last = probe(repeats)
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        """``seconds`` measured since the previous probe, scaled; probes again."""
        current = probe(self.repeats)
        factor = REFERENCE_S / ((self.last + current) / 2)
        self.last = current
        self.factors.append(factor)
        return seconds * factor


def scale_times(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """``metrics`` with every time (a name ending in ``_ms``) scaled."""
    return {
        name: value * factor if name.endswith(("_ms", "_ms_p50", "_ms_p90")) else value
        for name, value in metrics.items()
    }
