"""Network-configuration sweeps.

Paper §V: *"Dimemas allows us to simulate various network
configurations, so we can evaluate the impact of overlapping on future
networks."*  These helpers produce the duration-vs-parameter series
behind such studies (and behind Figure 6's searches), plus a small
text renderer so examples and reports can show the curves without a
plotting stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..obs import span as _span
from .parallel import PointFailure, engine_or_serial
from .pipeline import AppExperiment, VARIANTS

__all__ = ["SweepResult", "ascii_series", "bandwidth_sweep", "latency_sweep"]


@dataclass(frozen=True)
class SweepResult:
    """One parameter sweep: x values and per-variant durations."""

    parameter: str
    xs: tuple[float, ...]
    durations: dict[str, tuple[float, ...]]

    def speedups(self, variant: str) -> tuple[float, ...]:
        """Speedup of ``variant`` over the original, per x value."""
        base = self.durations["original"]
        return tuple(b / d for b, d in zip(base, self.durations[variant]))

    def crossover(self, variant: str = "real") -> float | None:
        """First x at which ``variant`` stops beating the original by
        more than 0.1 % (None when it always wins)."""
        for x, s in zip(self.xs, self.speedups(variant)):
            if s < 1.001:
                return x
        return None


def _sweep(
    exp: AppExperiment,
    parameter: str,
    xs: tuple[float, ...],
    variants: tuple[str, ...],
    engine,
) -> SweepResult:
    """Run one (variant x value) grid through ``engine``; without one,
    a private serial engine replays on ``exp`` itself."""
    with engine_or_serial(engine) as engine, _span(
            "sweep", parameter=parameter, app=exp.app_name,
            points=len(xs) * len(variants)):
        points = [
            replace(engine.point_for(exp, v), **{parameter: x})
            for v in variants
            for x in xs
        ]
        durs = engine.durations(points)
        # A degraded engine hands back PointFailure sentinels for points
        # that failed; the sweep keeps its shape with NaN holes.
        flat = [math.nan if isinstance(d, PointFailure) else d for d in durs]
        durations = {
            v: tuple(flat[i * len(xs):(i + 1) * len(xs)])
            for i, v in enumerate(variants)
        }
        return SweepResult(parameter, xs, durations)


def bandwidth_sweep(
    exp: AppExperiment,
    bandwidths: list[float] | None = None,
    variants: tuple[str, ...] = VARIANTS,
    engine=None,
) -> SweepResult:
    """Durations across link bandwidths (MB/s), all variants.

    With a parallel :class:`~repro.experiments.parallel.ExperimentEngine`
    the whole (variant x bandwidth) grid is fanned across workers.
    """
    xs = tuple(bandwidths or (15.625, 31.25, 62.5, 125.0, 250.0, 500.0, 1000.0))
    return _sweep(exp, "bandwidth_mbps", xs, variants, engine)


def latency_sweep(
    exp: AppExperiment,
    latencies: list[float] | None = None,
    variants: tuple[str, ...] = VARIANTS,
    engine=None,
) -> SweepResult:
    """Durations across per-message latencies (seconds), all variants.

    ``engine`` fans the grid across workers as in
    :func:`bandwidth_sweep`.
    """
    xs = tuple(latencies or (1e-6, 2e-6, 4e-6, 8e-6, 16e-6, 32e-6, 64e-6))
    return _sweep(exp, "latency", xs, variants, engine)


def ascii_series(
    sweep: SweepResult,
    width: int = 64,
    height: int = 12,
) -> str:
    """Plain-text plot of the sweep (one mark per variant).

    The y axis is the simulated duration (linear); the x axis follows
    the sweep order.  Marks: ``o`` original, ``r`` real-pattern
    overlap, ``i`` ideal-pattern overlap (later marks overwrite).
    """
    marks = {"original": "o", "real": "r", "ideal": "i"}
    all_vals = np.array([d for series in sweep.durations.values() for d in series])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi <= lo:
        hi = lo + 1e-12
    grid = [[" "] * width for _ in range(height)]
    n = len(sweep.xs)
    for variant, series in sweep.durations.items():
        ch = marks.get(variant, "?")
        for k, d in enumerate(series):
            col = int(round(k * (width - 1) / max(n - 1, 1)))
            row = int(round((hi - d) / (hi - lo) * (height - 1)))
            grid[row][col] = ch
    lines = [f"duration vs {sweep.parameter}  "
             f"[{lo * 1e3:.3f} .. {hi * 1e3:.3f} ms]"]
    lines += ["|" + "".join(row) + "|" for row in grid]
    lines.append("x: " + "  ".join(f"{x:g}" for x in sweep.xs))
    lines.append("legend: o original   r real overlap   i ideal overlap")
    return "\n".join(lines)
