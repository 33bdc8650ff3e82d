"""Paper table/figure data generators (Table II, Figure 5).

These functions reduce traced applications to exactly the rows and
scatter series the paper prints, so benchmarks and the report can
present paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..apps import get_app
from ..core.patterns import (
    ConsumptionStats,
    ProductionStats,
    consumption_table,
    production_table,
    scatter_points,
)
from .pipeline import AppExperiment

__all__ = [
    "PAPER_CONSUMPTION",
    "PAPER_PRODUCTION",
    "PatternRow",
    "pattern_row",
    "figure5_series",
]

#: Paper Table II(a) — percent of production phase (as fractions).
PAPER_PRODUCTION: dict[str, ProductionStats] = {
    "bt": ProductionStats(0.991, 0.9937, 0.9956, 0.9998),
    "cg": ProductionStats(0.0398, 0.2798, 0.5199, 0.9997),
    "sweep3d": ProductionStats(0.663, 0.948, 0.982, 0.998),
    "pop": ProductionStats(0.955, 0.9662, 0.9775, 0.9999),
    "specfem3d": ProductionStats(0.953, 0.9648, 0.9765, 0.9887),
    "alya": ProductionStats(0.988, float("nan"), float("nan"), float("nan")),
}

#: Paper Table II(b) — percent of consumption phase passable.
PAPER_CONSUMPTION: dict[str, ConsumptionStats] = {
    "bt": ConsumptionStats(0.1368, 0.1371, 0.1374),
    "cg": ConsumptionStats(0.02175, 0.1835, 0.3453),
    "sweep3d": ConsumptionStats(0.0002, 0.0003, 0.0004),
    "pop": ConsumptionStats(0.03525, 0.0353, 0.03534),
    "specfem3d": ConsumptionStats(0.00032, 0.00034, 0.00036),
    "alya": ConsumptionStats(0.004, float("nan"), float("nan")),
}


@dataclass(frozen=True)
class PatternRow:
    """Measured Table II row of one application."""

    app: str
    production: ProductionStats
    consumption: ConsumptionStats


def pattern_row(exp: AppExperiment, channel: int | None = "auto") -> PatternRow:
    """Measure an application's Table II row from its original trace.

    By default (``"auto"``) point-to-point application traffic is
    analyzed — except for Alya, whose instrumented kernel communicates
    through reduction collectives (paper Table II note), so its row
    pools all channels.  Pass an explicit channel (or None for all) to
    override.
    """
    if channel == "auto":
        channel = None if exp.app_name == "alya" else 0
    trace = exp.trace("original")
    return PatternRow(
        app=exp.app_name,
        production=production_table(trace, channel=channel),
        consumption=consumption_table(trace, channel=channel),
    )


def figure5_series(
    app: str,
    kind: str,
    nranks: int = 16,
    rank: int | None = None,
    max_points: int = 20000,
    app_params: dict | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Figure 5 scatter data for one application.

    Returns ``(normalized_times, element_offsets)`` pooled from the raw
    access streams — the exact axes of the paper's figure: *"The x axis
    represents the normalized time within the corresponding computation
    interval, while the y axis represents an element's offset within
    the transferred buffer."*  The raw streams are not cacheable, so
    the application is traced here, outside any experiment.
    """
    trace = get_app(app, **(app_params or {})).trace(
        nranks=nranks, record_streams=True,
    ).trace
    return scatter_points(
        trace, kind, channel=0, rank=rank, max_points=max_points,
    )
