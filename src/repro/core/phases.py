"""Phase-level overlap potential (the paper's future-work direction).

Paper §VII: *"The results of this paper showed us that overlap at the
level of MPI calls is very limited by application's
production/consumption patterns.  Therefore, at first place, we want to
find ways to exploit overlap at the level of the application's
computation phases."*

This module implements the analysis that direction needs (following
Sancho et al., SC'06, whom the paper extends): it decomposes every
consumption interval into *independent work* — computation performed
before any element of the incoming message is first needed — and
*dependent work*, and every production interval into the part before
and after the first final value exists.  The independent/early parts
are exactly the computation a phase-level restructuring could move
across the communication to hide it, beyond what MPI-level chunking
achieves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..trace.records import TraceSet
from .patterns import iter_profiles

__all__ = ["PhasePotential", "phase_overlap_potential"]


@dataclass
class PhasePotential:
    """Aggregate phase-structure of one traced application.

    All quantities are virtual-time seconds summed over all profiled
    intervals of all ranks.
    """

    #: Consumption intervals: compute before the first inbound element
    #: is needed (reorderable across the receive).
    independent_consumption: float = 0.0
    #: Consumption intervals: compute after the first need (dependent).
    dependent_consumption: float = 0.0
    #: Production intervals: compute before the first final value
    #: exists (reorderable across the previous send).
    pre_production: float = 0.0
    #: Production intervals: compute once final values start appearing.
    late_production: float = 0.0
    #: Number of intervals of each kind analyzed.
    consumption_intervals: int = 0
    production_intervals: int = 0

    @property
    def independent_fraction(self) -> float:
        """Share of consumption-phase compute that is independent work."""
        total = self.independent_consumption + self.dependent_consumption
        return self.independent_consumption / total if total > 0 else 0.0

    @property
    def preproduction_fraction(self) -> float:
        """Share of production-phase compute preceding any final value."""
        total = self.pre_production + self.late_production
        return self.pre_production / total if total > 0 else 0.0

    @property
    def reorderable_seconds(self) -> float:
        """Upper bound of compute movable across communication by a
        phase-level restructuring (the future-work headroom)."""
        return self.independent_consumption + self.pre_production

    def __str__(self) -> str:
        return (
            f"phase potential: independent consumption "
            f"{self.independent_consumption * 1e3:.3f} ms "
            f"({self.independent_fraction * 100:.1f}% of consumption phases), "
            f"pre-production {self.pre_production * 1e3:.3f} ms "
            f"({self.preproduction_fraction * 100:.1f}% of production phases)"
        )


def phase_overlap_potential(
    trace: TraceSet,
    channel: int | None = None,
    min_elements: int = 1,
) -> PhasePotential:
    """Measure the phase-level overlap headroom of a traced execution.

    For every consumption profile, the time from the interval start to
    the earliest first-load is independent work; for every production
    profile, the time up to the earliest last-store is pre-production.
    Intervals whose buffers are never accessed contribute their full
    span to the reorderable side (nothing in the phase touches the
    message).
    """
    pot = PhasePotential()
    (pot.independent_consumption, pot.dependent_consumption,
     pot.consumption_intervals) = _split_at_first_access(
        iter_profiles(trace, "consumption", channel, min_elements))
    (pot.pre_production, pot.late_production,
     pot.production_intervals) = _split_at_first_access(
        iter_profiles(trace, "production", channel, min_elements))
    return pot


def _split_at_first_access(profiles) -> tuple[float, float, int]:
    """Interval time before and after the earliest access, summed over
    the profiles with a positive span, and how many those are.

    The earliest raw time is clipped into its interval (clipping is
    monotone, so it commutes with the minimum); an interval nothing
    touches counts whole on the early side.
    """
    before = after = 0.0
    count = 0
    for _, _, p in profiles:
        if p.span <= 0:
            continue
        first = np.fmin.reduce(p.times) if p.elements else math.nan
        first = p.interval_end if math.isnan(first) else float(p.clip(first))
        before += first - p.interval_start
        after += p.interval_end - first
        count += 1
    return before, after, count
