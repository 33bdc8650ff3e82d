"""Metrics registry: counters, gauges, and histograms with a funnel.

One process-global :class:`MetricsRegistry` absorbs the framework's
operational counters — replayed events, cache hits/misses/rebuilds,
failed points, per-stage wall-clock — so they stop living as
ad-hoc attributes scattered over cache and engine instances and start
surviving process boundaries.

Cross-process funnel
--------------------

Pool workers accumulate into their own process-local registry and
periodically ship a **delta** (:meth:`MetricsRegistry.flush_delta`):
counter increments, gauge last-values, and raw histogram observations
since the previous flush.  The parent merges deltas with
:meth:`MetricsRegistry.merge_delta`; because deltas are disjoint
increments, merging is order-independent and idempotent-per-delta, and
an aggregate over N workers equals a single-process run of the same
work.  Histograms keep raw observations (these are stage-granularity
series — hundreds of points, not millions), so merged percentiles are
exact rather than approximated from buckets.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "merge_counter_totals",
]


def merge_counter_totals(prior: dict | None, snapshot: dict | None) -> dict:
    """Fold a snapshot's counters into prior cross-sequence totals.

    Used by resumed run manifests: ``prior`` holds the counter totals
    accumulated by earlier sequences of the same run ID, ``snapshot``
    is this session's :meth:`MetricsRegistry.snapshot`.  Returns a new
    ``{name: total}`` map; non-numeric values are ignored.
    """
    merged = {
        str(k): float(v) for k, v in (prior or {}).items()
        if isinstance(v, (int, float))
    }
    for name, value in ((snapshot or {}).get("counters") or {}).items():
        if isinstance(value, (int, float)):
            merged[name] = merged.get(name, 0.0) + value
    return merged


class Counter:
    """Monotonically increasing count (plus the delta since last flush)."""

    __slots__ = ("value", "_delta")

    def __init__(self) -> None:
        self.value = 0
        self._delta = 0

    def inc(self, n: int = 1) -> None:
        self.value += n
        self._delta += n


class Gauge:
    """Last-written value (bus occupancy, queue depth, ...)."""

    __slots__ = ("value", "_dirty")

    def __init__(self) -> None:
        self.value: float | None = None
        self._dirty = False

    def set(self, v: float) -> None:
        self.value = v
        self._dirty = True


class Histogram:
    """Raw-observation histogram with exact percentiles."""

    __slots__ = ("values", "_flushed")

    def __init__(self) -> None:
        self.values: list[float] = []
        self._flushed = 0

    def observe(self, v: float) -> None:
        self.values.append(v)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return math.fsum(self.values)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile (``p`` in [0, 100]); NaN when empty."""
        if not self.values:
            return math.nan
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        ordered = sorted(self.values)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> dict:
        """Count/sum/min/mean/percentiles/max digest for export."""
        if not self.values:
            return {"count": 0}
        total = self.sum
        return {
            "count": len(self.values),
            "sum": total,
            "min": min(self.values),
            "mean": total / len(self.values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": max(self.values),
        }


class MetricsRegistry:
    """Named metric instruments, created on first use.

    ``counter``/``gauge``/``histogram`` are get-or-create and safe to
    call from the smpi runtime's rank threads (creation is locked;
    updates on the returned instruments are simple attribute writes,
    atomic enough under the GIL for our integer/append operations).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- instruments --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter())
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge())
        return g

    def histogram(self, name: str) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(name, Histogram())
        return h

    # -- snapshots and the cross-process funnel -----------------------------
    def counters(self, prefix: str = "") -> dict[str, int]:
        """Current counter values (optionally filtered by name prefix)."""
        return {
            n: c.value for n, c in self._counters.items()
            if n.startswith(prefix)
        }

    def snapshot(self) -> dict:
        """Full JSON-ready snapshot (histograms as summaries)."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {
                n: g.value for n, g in self._gauges.items()
                if g.value is not None
            },
            "histograms": {
                n: h.summary() for n, h in self._histograms.items()
            },
        }

    def flush_delta(self) -> dict:
        """Changes since the previous flush (the worker -> parent unit).

        Returns ``{"counters": {name: increment}, "gauges": {name:
        value}, "histograms": {name: [observations]}}`` — empty maps
        when nothing changed, so an idle flush is a tiny payload.
        """
        counters = {}
        for n, c in self._counters.items():
            if c._delta:
                counters[n] = c._delta
                c._delta = 0
        gauges = {}
        for n, g in self._gauges.items():
            if g._dirty:
                gauges[n] = g.value
                g._dirty = False
        histograms = {}
        for n, h in self._histograms.items():
            if len(h.values) > h._flushed:
                histograms[n] = h.values[h._flushed:]
                h._flushed = len(h.values)
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge_delta(self, delta: dict | None) -> None:
        """Absorb a :meth:`flush_delta` payload from another process."""
        if not delta:
            return
        for n, inc in delta.get("counters", {}).items():
            self.counter(n).inc(inc)
        for n, v in delta.get("gauges", {}).items():
            self.gauge(n).set(v)
        for n, values in delta.get("histograms", {}).items():
            self.histogram(n).values.extend(values)

    def reset(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The process-global registry all framework instrumentation writes to.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global :class:`MetricsRegistry`."""
    return _REGISTRY
