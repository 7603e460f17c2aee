"""Service observability: latency histograms behind ``/stats``.

The histogram itself lives in :mod:`repro.util.histogram` (import-light,
so library code can use it without dragging in the HTTP daemon);
:class:`LatencyHistogram` and :func:`percentile` are re-exported here
unchanged for service code.  The :class:`MetricsRegistry` keys one
histogram per endpoint *template* (``POST /jobs``, ``GET /jobs/<id>``,
...), so path parameters do not explode the cardinality.

:func:`storage_snapshot` formats the storage tier for ``/stats``:
on-disk trace-cache entry counts and cold-load latency counters, keyed
by format (``binary``, the one trace-cache format), and — when the
daemon runs with a plan store — the store's entry/hit/miss counters.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.util.histogram import LatencyHistogram, percentile

__all__ = ["LatencyHistogram", "MetricsRegistry", "percentile", "storage_snapshot"]


def storage_snapshot(cache: Any, plan_store: Any = None) -> dict[str, Any]:
    """The ``/stats`` storage section for a trace cache + plan store.

    Cold-load counters come from
    :meth:`~repro.api.cache.TraceCache.storage_stats`; per-format
    totals are reported as count / mean / max milliseconds.
    """
    stats = cache.storage_stats()
    cold_loads = {}
    for fmt, entry in sorted(stats["cold_loads"].items()):
        count = int(entry["count"])
        cold_loads[fmt] = {
            "count": count,
            "mean_ms": 1e3 * entry["seconds"] / count if count else 0.0,
            "max_ms": 1e3 * entry["max_s"],
        }
    return {
        "directory": stats["directory"],
        "disk_entries": stats["disk_entries"],
        "cold_loads": cold_loads,
        "plan_store": None if plan_store is None else plan_store.stats(),
    }


class MetricsRegistry:
    """Per-endpoint latency histograms, created on first observation."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: dict[str, LatencyHistogram] = {}

    def observe(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            histogram = self._histograms.get(endpoint)
            if histogram is None:
                histogram = self._histograms[endpoint] = LatencyHistogram()
        histogram.observe(seconds)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        with self._lock:
            items = sorted(self._histograms.items())
        return {endpoint: histogram.snapshot() for endpoint, histogram in items}
