"""Timeline sampling utilities shared by the renderers.

Paraver draws each process as a horizontal band whose colour encodes
the process state over time.  For text/SVG rendering we discretize a
:class:`~repro.dimemas.results.SimResult` into fixed-width bins; each
bin takes the state that covers most of it (majority resampling, which
is also what Paraver does when zoomed out).
"""

from __future__ import annotations

from collections import defaultdict

from ..dimemas.results import SimResult

__all__ = ["iteration_bounds", "sample_states", "time_window"]


def time_window(
    result: SimResult,
    bins: int,
    t0: float | None = None,
    t1: float | None = None,
) -> tuple[float, float]:
    """The ``(t0, t1)`` window a view of ``bins`` columns draws.

    ``t0`` defaults to 0 and ``t1`` to the makespan; an empty window
    widens to one picosecond.  Raises :class:`ValueError` when ``bins``
    is below 1.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo = 0.0 if t0 is None else t0
    hi = result.duration if t1 is None else t1
    if hi <= lo:
        hi = lo + 1e-12
    return lo, hi


def sample_states(
    result: SimResult,
    bins: int,
    t0: float | None = None,
    t1: float | None = None,
) -> tuple[list[list[str | None]], float, float]:
    """Majority-resample every rank's states into ``bins`` columns.

    Returns ``(grid, t0, t1)`` where ``grid[rank][b]`` is the dominant
    state name of bin ``b`` (None = idle/no coverage).
    """
    lo, hi = time_window(result, bins, t0, t1)
    width = (hi - lo) / bins

    grid: list[list[str | None]] = []
    for rank in range(result.nranks):
        cover: list[dict[str, float]] = [defaultdict(float) for _ in range(bins)]
        for state, a, b in result.states[rank]:
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            first = int((a - lo) / width)
            last = min(int((b - lo) / width), bins - 1)
            for k in range(first, last + 1):
                ka, kb = lo + k * width, lo + (k + 1) * width
                cover[k][state] += min(b, kb) - max(a, ka)
        row: list[str | None] = []
        for k in range(bins):
            if cover[k]:
                row.append(max(cover[k].items(), key=lambda kv: kv[1])[0])
            else:
                row.append(None)
        grid.append(row)
    return grid, lo, hi


def iteration_bounds(
    result: SimResult, first: int, count: int, name: str = "iteration",
    rank: int = 0,
) -> tuple[float, float]:
    """Time window covering iterations ``first .. first+count-1``.

    Iteration boundaries come from the user events the applications
    emit (``comm.event("iteration", i)``) — this is how the Figure 4
    view ("the first five iterations") is sliced.
    """
    marks = result.event_times(name, rank=rank)
    if not marks:
        raise ValueError(f"no {name!r} events on rank {rank}")
    times = [t for t, v in marks if first <= v < first + count + 1]
    if not times:
        raise ValueError(f"iterations {first}..{first + count - 1} not found")
    lo = min(times)
    after = [t for t, v in marks if v >= first + count]
    hi = min(after) if after else result.duration
    return lo, hi
