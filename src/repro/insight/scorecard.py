"""Overlap scorecards: attained overlap against the attainable bound.

The *attainable* side comes from the trace's production/consumption
patterns (paper Table II): chunk ``i`` of ``K`` cannot be sent before
the fraction ``p(i/K)`` of the production phase at which its prefix is
final, and its reception can be postponed until the fraction
``c((i-1)/K)`` of the consumption phase at which the not-yet-received
elements are first needed.  The window a chunk's transfer can float in
without blocking either side is therefore ``(1 - p(i/K)) +
c((i-1)/K)`` of a phase; the **attainable overlap bound** is the mean
window over chunks, clamped to ``[0, 1]`` (docs/MODEL.md §7).  An
ideal pattern (``p(f) = f``, ``c(f) = f``) yields per-chunk windows of
``1 - 1/K`` except for the last chunk, whose postponement is capped by
the half-phase consumption sample — with 4 chunks, 0.6875 — while
Sweep3D's late production (first value at 66 % of the phase) and POP's
immediate consumption pin the bound near zero, which is exactly the
paper's §V explanation of their small gains.

The *attained* side compares a baseline replay against its overlapped
counterpart: per-rank blocked-time reduction and the makespan speedup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.patterns import (
    ConsumptionStats,
    ProductionStats,
    consumption_table,
    production_table,
)
from ..dimemas.results import SimResult

__all__ = ["OverlapScorecard", "RankScore", "attainable_overlap_bound",
           "scorecard"]


def _interp(points: list[tuple[float, float]], x: float) -> float:
    """Piecewise-linear interpolation over NaN-filtered ``points``."""
    pts = [(a, b) for a, b in points if not math.isnan(b)]
    if not pts:
        return math.nan
    pts.sort()
    if x <= pts[0][0]:
        return pts[0][1]
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x <= x1:
            if x1 <= x0:
                return y1
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return pts[-1][1]


def attainable_overlap_bound(
    production: ProductionStats,
    consumption: ConsumptionStats,
    chunks: int = 4,
) -> float:
    """Fraction of communication blocking the patterns allow hiding.

    NaN when the trace carries no access profiles at all (nothing to
    bound against).
    """
    p_pts = [(0.0, production.first_element), (0.25, production.quarter),
             (0.5, production.half), (1.0, production.whole)]
    c_pts = [(0.0, consumption.nothing), (0.25, consumption.quarter),
             (0.5, consumption.half)]
    windows = []
    for i in range(1, chunks + 1):
        p_i = _interp(p_pts, i / chunks)
        c_prev = _interp(c_pts, (i - 1) / chunks)
        if math.isnan(p_i) and math.isnan(c_prev):
            continue
        advance = 0.0 if math.isnan(p_i) else max(0.0, 1.0 - p_i)
        postpone = 0.0 if math.isnan(c_prev) else max(0.0, c_prev)
        windows.append(min(1.0, advance + postpone))
    if not windows:
        return math.nan
    return sum(windows) / len(windows)


@dataclass(frozen=True)
class RankScore:
    """Blocked-time accounting of one rank, baseline vs overlapped."""

    rank: int
    blocked_base: float
    blocked_overlapped: float

    @property
    def attained_fraction(self) -> float:
        """Share of the baseline blocking the overlap removed."""
        if self.blocked_base <= 0:
            return 0.0
        return max(0.0, 1.0 - self.blocked_overlapped / self.blocked_base)


@dataclass
class OverlapScorecard:
    """Attained vs attainable overlap of one (baseline, overlapped) pair."""

    variant: str
    speedup: float
    attainable_bound: float
    per_rank: list[RankScore]
    production: ProductionStats
    consumption: ConsumptionStats
    chunks: int = 4

    @property
    def blocked_base(self) -> float:
        return sum(r.blocked_base for r in self.per_rank)

    @property
    def blocked_overlapped(self) -> float:
        return sum(r.blocked_overlapped for r in self.per_rank)

    @property
    def attained_fraction(self) -> float:
        """Aggregate share of baseline blocked time eliminated."""
        base = self.blocked_base
        if base <= 0:
            return 0.0
        return max(0.0, 1.0 - self.blocked_overlapped / base)

    @property
    def realized_share(self) -> float:
        """Attained / attainable — how much of the pattern-allowed
        headroom the transformation actually converted (NaN when the
        bound is unknown; may exceed 1: the bound is a per-message
        model, chunk pipelining can beat it)."""
        bound = self.attainable_bound
        if math.isnan(bound) or bound <= 0:
            return math.nan
        return self.attained_fraction / bound

    def to_dict(self) -> dict:
        def _f(x: float) -> float | None:
            return None if (x != x) else x

        return {
            "variant": self.variant,
            "speedup": self.speedup,
            "attainable_bound": _f(self.attainable_bound),
            "attained_fraction": self.attained_fraction,
            "realized_share": _f(self.realized_share),
            "blocked_base_seconds": self.blocked_base,
            "blocked_overlapped_seconds": self.blocked_overlapped,
            "chunks": self.chunks,
            "per_rank": [
                {
                    "rank": r.rank,
                    "blocked_base": r.blocked_base,
                    "blocked_overlapped": r.blocked_overlapped,
                    "attained_fraction": r.attained_fraction,
                }
                for r in self.per_rank
            ],
        }


def _blocked_by_rank(result: SimResult) -> list[float]:
    out = []
    for rank in range(result.nranks):
        total = 0.0
        if rank < len(result.states):
            for s, t0, t1 in result.states[rank]:
                if s != "Running":
                    total += t1 - t0
        out.append(total)
    return out


def scorecard(
    trace,
    base: SimResult,
    overlapped: SimResult,
    variant: str = "real",
    chunks: int = 4,
    channel: int | None = None,
) -> OverlapScorecard:
    """Score one overlapped replay against its baseline.

    ``trace`` is the *original* (untransformed) trace whose access
    patterns define the attainable bound; ``channel`` restricts the
    pattern tables (None = all channels, matching ``repro-analyze``).
    """
    return _score(production_table(trace, channel=channel),
                  consumption_table(trace, channel=channel),
                  base, overlapped, variant, chunks)


def _score(
    production: ProductionStats,
    consumption: ConsumptionStats,
    base: SimResult,
    overlapped: SimResult,
    variant: str,
    chunks: int,
) -> OverlapScorecard:
    """:func:`scorecard` on pattern tables the caller already built."""
    bound = attainable_overlap_bound(production, consumption, chunks=chunks)
    blocked_b = _blocked_by_rank(base)
    blocked_o = _blocked_by_rank(overlapped)
    nranks = min(base.nranks, overlapped.nranks)
    per_rank = [
        RankScore(r, blocked_b[r], blocked_o[r]) for r in range(nranks)
    ]
    speedup = (base.duration / overlapped.duration
               if overlapped.duration > 0 else math.inf)
    return OverlapScorecard(
        variant=variant,
        speedup=speedup,
        attainable_bound=bound,
        per_rank=per_rank,
        production=production,
        consumption=consumption,
        chunks=chunks,
    )
