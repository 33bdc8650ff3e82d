"""Production/consumption pattern analysis (paper §V-A, Table II, Fig. 5).

The tracer defines one *production interval* of a buffer as the time
between two consecutive sends of that buffer and one *consumption
interval* as the period between two consecutive receives of the same
buffer.  Within those intervals it records the per-element last store
and first load.  This module reduces those profiles to the two paper
tables:

* **Potential for advancing sends** (Table II(a)) — the percent of the
  production phase at which the 1st element / first quarter / first
  half / the whole message has reached its final version.  The "1st
  element" column is the earliest final version of *any* element
  (paper: "the first final version of any element is produced at
  66.3 % of the production interval" for Sweep3D); the fractional
  columns use the leading prefix of the buffer, matching the
  contiguous-chunk transfer order.
* **Potential for post-postponing receptions** (Table II(b)) — the
  percent of the consumption phase that can be passed having received
  nothing / the first quarter / the first half of the message: the
  earliest first-load among the elements *not yet received*.

An ideal pattern produces the prefix fraction ``f`` at exactly ``f`` of
the interval and needs it at ``f`` — the "ideal" rows of the tables.

Each statistic is one min or max over a segment of a profile's raw
times (``np.fmin``/``np.fmax``, which skip NaN as ``nanmin``/``nanmax``
do), and only the reduced values are mapped into the interval by
:meth:`~repro.trace.records.AccessProfile.normalize`.  That map is
monotone non-decreasing, so it commutes with min and max: the rows are
bit for bit those of normalizing every element first (bar the underflow
that ``normalize`` names), without a per-profile copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from ..trace.records import AccessProfile, IRecv, ISend, Recv, Send, TraceSet

__all__ = [
    "ConsumptionStats",
    "IDEAL_CONSUMPTION",
    "IDEAL_PRODUCTION",
    "ProductionStats",
    "consumption_stats",
    "consumption_table",
    "iter_profiles",
    "production_stats",
    "production_table",
    "scatter_points",
]


@dataclass(frozen=True)
class ProductionStats:
    """Fractions of the production phase (0..1; NaN = no data)."""

    first_element: float
    quarter: float
    half: float
    whole: float

    def as_percent(self) -> dict[str, float]:
        """Row formatted as percentages (paper Table II units)."""
        return {f.name: 100.0 * getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ConsumptionStats:
    """Fractions of the consumption phase passable per received part."""

    nothing: float
    quarter: float
    half: float

    def as_percent(self) -> dict[str, float]:
        return {f.name: 100.0 * getattr(self, f.name) for f in fields(self)}


#: Reference rows (paper Table II, "ideal").
IDEAL_PRODUCTION = ProductionStats(0.0, 0.25, 0.50, 1.0)
IDEAL_CONSUMPTION = ConsumptionStats(0.0, 0.25, 0.50)


def _reduce_parts(ufunc, t: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced over the three parts of ``t`` that the quarter
    and half bounds cut: ``t[:q]``, ``t[q:h]`` and ``t[h:]`` with
    ``q = ceil(n/4)`` and ``h = ceil(n/2)``.  An empty part is NaN; one
    pass when every part holds an element (``n >= 3``)."""
    n = t.shape[0]
    q, h = (n + 3) // 4, (n + 1) // 2
    if 0 < q < h < n:
        return ufunc.reduceat(t, (0, q, h))
    return np.array([ufunc.reduce(t[a:b]) if a < b else math.nan
                     for a, b in ((0, q), (q, h), (h, n))])


def production_stats(profile: AccessProfile) -> ProductionStats:
    """Reduce one production profile to its Table II(a) row."""
    if profile.kind != "production":
        raise ValueError("expected a production profile")
    t = profile.times
    if t.shape[0] == 0:
        return ProductionStats(math.nan, math.nan, math.nan, math.nan)
    # The earliest last store of any element, then the latest of the
    # leading quarter, half and whole: the running max over the parts.
    # All-NaN reduces to NaN.
    raw = np.empty(4)
    raw[0] = np.fmin.reduce(t)
    np.fmax.accumulate(_reduce_parts(np.fmax, t), out=raw[1:])
    return ProductionStats(*profile.normalize(raw).tolist())


def consumption_stats(profile: AccessProfile) -> ConsumptionStats:
    """Reduce one consumption profile to its Table II(b) row."""
    if profile.kind != "consumption":
        raise ValueError("expected a consumption profile")
    t = profile.times
    if t.shape[0] == 0:
        return ConsumptionStats(math.nan, math.nan, math.nan)
    # The earliest first load among the elements beyond nothing, the
    # first quarter and the first half: the running min over the parts
    # from the back.  An empty or never-loaded suffix is never needed,
    # so it passes the whole phase.
    raw = np.fmin.accumulate(_reduce_parts(np.fmin, t)[::-1])[::-1]
    return ConsumptionStats(*(
        1.0 if math.isnan(v) else v for v in profile.normalize(raw).tolist()
    ))


def iter_profiles(
    trace: TraceSet,
    kind: str,
    channel: int | None = None,
    min_elements: int = 1,
    rank: int | None = None,
) -> Iterator[tuple[int, int, AccessProfile]]:
    """Yield ``(rank, record_index, profile)`` for matching profiles."""
    if kind not in ("production", "consumption"):
        raise ValueError(f"invalid kind {kind!r}")
    for proc in trace:
        if rank is not None and proc.rank != rank:
            continue
        for i, rec in enumerate(proc.records):
            if kind == "production" and isinstance(rec, (Send, ISend)):
                p = rec.production
            elif kind == "consumption" and isinstance(rec, (Recv, IRecv)):
                p = rec.consumption
            else:
                continue
            if p is None or p.elements < min_elements:
                continue
            if channel is not None and rec.channel != channel:
                continue
            yield proc.rank, i, p


def _aggregate(rows: Iterable, cls):
    """Per-column mean of ``rows``, skipping NaN (NaN when none is left)."""
    rows = list(rows)
    names = [f.name for f in fields(cls)]
    if not rows:
        return cls(**{n: math.nan for n in names})
    mat = np.array([[getattr(r, n) for n in names] for r in rows], dtype=float)
    out = {}
    for j, n in enumerate(names):
        col = mat[:, j]
        col = col[~np.isnan(col)]
        out[n] = float(np.average(col)) if col.size else math.nan
    return cls(**out)


def production_table(
    trace: TraceSet,
    channel: int | None = None,
    min_elements: int = 1,
) -> ProductionStats:
    """Average Table II(a) row over all production profiles of a trace."""
    return _aggregate(
        (production_stats(p) for _, _, p in
         iter_profiles(trace, "production", channel, min_elements)),
        ProductionStats,
    )


def consumption_table(
    trace: TraceSet,
    channel: int | None = None,
    min_elements: int = 1,
) -> ConsumptionStats:
    """Average Table II(b) row over all consumption profiles of a trace."""
    return _aggregate(
        (consumption_stats(p) for _, _, p in
         iter_profiles(trace, "consumption", channel, min_elements)),
        ConsumptionStats,
    )


def scatter_points(
    trace: TraceSet,
    kind: str,
    channel: int | None = 0,
    rank: int | None = None,
    min_elements: int = 2,
    max_points: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Figure 5 scatter data: ``(normalized_times, element_offsets)``.

    Pools the raw access streams of every matching profile (the trace
    must have been recorded with ``record_streams=True``).  The x axis
    is the normalized time within the production/consumption interval;
    the y axis the element offset within the transferred buffer —
    exactly the axes of paper Figure 5.
    """
    xs: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    for _, _, p in iter_profiles(trace, kind, channel, min_elements, rank):
        stream = p.normalized_stream()
        if stream is None:
            continue
        offsets, times = stream
        xs.append(times)
        ys.append(offsets)
    if not xs:
        return np.empty(0), np.empty(0, dtype=np.intp)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    if max_points is not None and x.shape[0] > max_points:
        idx = np.linspace(0, x.shape[0] - 1, max_points).astype(np.intp)
        x, y = x[idx], y[idx]
    return x, y
