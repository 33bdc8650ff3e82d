"""Ideal-pattern overlapped trace generation.

Paper §III-C: *"in order to stress the influence of
production/consumption patterns, the tool generates the second
overlapped trace which assumes that the application's
production/consumption patterns are ideal ... by uniformly
distributing the chunked transmissions/receptions throughout the
original computation bursts."*

Under the ideal model, for a message of ``n`` chunks:

* chunk ``c`` is fully produced at ``(c+1)/n`` of the production
  interval (so the first quarter of the message exists after 25 % of
  the computation — the "ideal" row of paper Table II(a));
* chunk ``c`` is first needed at ``c/n`` of the consumption interval
  (having received a quarter lets the receiver pass 25 % of the
  phase — the "ideal" row of Table II(b)),

which makes the overlappable computation for chunk ``i`` exactly the
paper's Equation 1: sum of the production times of the later chunks
plus the consumption times of the earlier ones.

This module is a thin, documented front-end over
:func:`repro.core.transform.overlap_transform` with
``schedule="ideal"``; like it, it returns the new trace as a
:class:`~repro.trace.columnar.ColumnarTrace`.
"""

from __future__ import annotations

from ..obs import traced
from ..trace.columnar import ColumnarTrace
from ..trace.records import TraceSet
from .chunking import DEFAULT_CHUNKS
from .transform import OverlapConfig, TransformStats, overlap_transform

__all__ = ["ideal_transform"]


@traced("transform.ideal")
def ideal_transform(
    trace: TraceSet,
    chunks: int = DEFAULT_CHUNKS,
    double_buffering: bool = True,
    transform_collectives: bool = True,
) -> tuple[ColumnarTrace, TransformStats]:
    """Produce the ideal-pattern overlapped trace (paper's second trace)."""
    config = OverlapConfig(
        chunks=chunks,
        schedule="ideal",
        double_buffering=double_buffering,
        transform_collectives=transform_collectives,
    )
    return overlap_transform(trace, config)
