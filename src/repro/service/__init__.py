"""Verification service layer: fingerprints, verdict cache, job-queue servers.

The PR 1-4 stack made one *process* fast at verifying circuit pairs; this
subsystem turns it into a *service* for real compilation flows, where the
same pairs are re-verified over and over as toolchains iterate:

* :mod:`repro.service.fingerprint` — a canonical, collision-resistant
  structural hash for circuits and ordered circuit pairs, keyed together
  with the verdict-relevant :class:`~repro.core.configuration.Configuration`
  fields so a cache hit can never change a verdict;
* :mod:`repro.service.cache` — :class:`VerdictCache`, an in-memory LRU tier
  with an optional persistent JSON-lines tier
  (``Configuration.cache_path``) storing
  :class:`~repro.core.results.PortfolioResult` essentials;
* :mod:`repro.service.server` — the transport-free job queue
  :class:`VerificationService` and its one HTTP front end,
  :class:`VerificationServer` (``repro-qcec serve``, a stdlib
  ``ThreadingHTTPServer``): submit/status/result/trace/stats/metrics
  endpoints, request deduplication by fingerprint, long-poll result
  delivery, bounded-queue backpressure and per-client token-bucket rate
  limiting (429 + ``Retry-After``), and a cap on handler threads;
* :mod:`repro.service.metrics` — the unified :class:`MetricsRegistry`
  (counters, gauges, histograms) the server exports as Prometheus text at
  ``GET /metrics``;
* :mod:`repro.service.client` — the matching :class:`VerificationClient`,
  which long-polls for results.

The cache is also consulted by
:class:`~repro.core.manager.EquivalenceCheckingManager` itself
(``Configuration.verdict_cache`` / ``cache_path``), which additionally
dedupes identical pairs *within* a batch.
"""

import importlib

#: Public names by defining submodule, imported on first access (PEP 562), so
#: the manager's cache and metrics imports never pull in the HTTP stack.
_EXPORTS = {
    "cache": ("CachedVerdict", "VerdictCache"),
    "client": ("VerificationClient",),
    "fingerprint": ("circuit_fingerprint", "configuration_fingerprint", "pair_fingerprint"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "server": ("VerificationServer", "VerificationService"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
