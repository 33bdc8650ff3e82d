"""ASCII Gantt rendering of reconstructed timelines.

A terminal stand-in for the Paraver window of paper Figure 4: one row
per rank, one character per time bin, colour replaced by a character
per state.  Good enough to *"qualitatively inspect differences between
the non-overlapped and overlapped executions"* right in a test log.
:func:`render_heatmap` draws the same grid as the share of each bin
one state takes (Paraver's 2-D analyzer view).
"""

from __future__ import annotations

import numpy as np

from ..dimemas.results import SimResult
from .timeline import sample_states, time_window

__all__ = ["STATE_CHARS", "render_comparison", "render_gantt", "render_heatmap"]

#: Character legend of the Gantt view.
STATE_CHARS: dict[str | None, str] = {
    "Running": "#",
    "Send": "s",
    "Waiting a message": "r",
    "Wait/WaitAll": "w",
    "Group communication": "g",
    "Idle": ".",
    None: " ",
}

_LEGEND = "legend: # running   s send-blocked   r recv-wait   w waitall   g collective"

#: Character ramp of the heatmap, from 0% to 100% of a bin.
_BLOCKS = " .:-=+*#%@"


def render_gantt(
    result: SimResult,
    width: int = 96,
    t0: float | None = None,
    t1: float | None = None,
    title: str | None = None,
    legend: bool = True,
) -> str:
    """Render one timeline as text.

    ``t0``/``t1`` clip the view (defaults: the whole run).  Each rank
    becomes a row of ``width`` state characters.
    """
    grid, lo, hi = sample_states(result, width, t0, t1)
    lines: list[str] = []
    if title:
        lines.append(title)
    span_us = (hi - lo) * 1e6
    lines.append(f"time window: {lo * 1e6:.1f} .. {hi * 1e6:.1f} us  ({span_us:.1f} us)")
    for rank, row in enumerate(grid):
        body = "".join(STATE_CHARS.get(s, "?") for s in row)
        lines.append(f"rank {rank:>3} |{body}|")
    if legend:
        lines.append(_LEGEND)
    return "\n".join(lines)


def render_comparison(
    original: SimResult,
    overlapped: SimResult,
    width: int = 96,
    t0: float | None = None,
    t1: float | None = None,
    labels: tuple[str, str] = ("non-overlapped", "overlapped"),
) -> str:
    """Stacked view of two executions on a shared time axis.

    The shared axis makes the makespan difference directly visible —
    the comparison the paper draws in Figure 4 for NAS-CG.
    """
    hi = t1 if t1 is not None else max(original.duration, overlapped.duration)
    a = render_gantt(original, width, t0, hi, title=f"--- {labels[0]} ---", legend=False)
    b = render_gantt(overlapped, width, t0, hi, title=f"--- {labels[1]} ---", legend=False)
    dur_a, dur_b = original.duration, overlapped.duration
    pct = 100.0 * (dur_a - dur_b) / dur_a if dur_a > 0 else 0.0
    tail = (
        f"makespan: {dur_a * 1e6:.1f} us -> {dur_b * 1e6:.1f} us "
        f"({pct:+.1f}% improvement)"
    )
    return "\n".join([a, "", b, "", tail, _LEGEND])


def render_heatmap(
    result: SimResult,
    state: str = "Running",
    width: int = 64,
    t0: float | None = None,
    t1: float | None = None,
) -> str:
    """Rank-vs-time density of one state (Paraver's 2-D analyzer view).

    Each cell shows what share of the bin the rank spent in ``state``,
    using a 10-level character ramp.
    """
    lo, hi = time_window(result, width, t0, t1)
    bin_w = (hi - lo) / width
    lines = [f"share of '{state}' per (rank, {bin_w * 1e6:.1f} us bin)"]
    for rank in range(result.nranks):
        cover = np.zeros(width)
        for s, a, b in result.states[rank]:
            if s != state:
                continue
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            first = int((a - lo) / bin_w)
            last = min(int((b - lo) / bin_w), width - 1)
            for k in range(first, last + 1):
                ka, kb = lo + k * bin_w, lo + (k + 1) * bin_w
                cover[k] += min(b, kb) - max(a, ka)
        frac = np.clip(cover / bin_w, 0.0, 1.0)
        row = "".join(_BLOCKS[int(round(f * (len(_BLOCKS) - 1)))] for f in frac)
        lines.append(f"rank {rank:>3} |{row}|")
    lines.append(f"ramp: '{_BLOCKS}' = 0%..100%")
    return "\n".join(lines)
