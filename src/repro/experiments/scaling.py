"""Scale studies: overlap benefit as a function of process count.

The paper's motivation is scale (§I: communication delays *"might
substantially decrease the application performance, specially at large
scale"*), and its two data points — CG at 4 processes (Figure 4) and
the pool at 64 (Figure 6) — imply a trend this module makes explicit:
trace the same application at a ladder of process counts and track how
the overlap speedups and the communication share evolve.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dimemas.machine import MachineConfig
from .parallel import GridPoint, _normalize_params, engine_or_serial

__all__ = ["ScalePoint", "ScalingStudy", "scaling_study"]


@dataclass(frozen=True)
class ScalePoint:
    """Measurements at one process count."""

    nranks: int
    duration_original: float
    duration_real: float
    duration_ideal: float
    comm_fraction: float      # 1 - parallel efficiency of the original

    @property
    def speedup_real(self) -> float:
        return self.duration_original / self.duration_real

    @property
    def speedup_ideal(self) -> float:
        return self.duration_original / self.duration_ideal


@dataclass(frozen=True)
class ScalingStudy:
    """A ladder of scale points for one application."""

    app: str
    points: tuple[ScalePoint, ...]

    def series(self, attr: str) -> list[float]:
        """One attribute across the ladder (e.g. ``"speedup_ideal"``)."""
        return [getattr(p, attr) for p in self.points]

    def render(self) -> str:
        lines = [
            f"scaling study — {self.app}",
            f"{'ranks':>6} {'T_orig(ms)':>11} {'real':>7} {'ideal':>7} "
            f"{'comm%':>6}",
        ]
        for p in self.points:
            lines.append(
                f"{p.nranks:>6} {p.duration_original * 1e3:>11.3f} "
                f"{p.speedup_real:>7.4f} {p.speedup_ideal:>7.4f} "
                f"{p.comm_fraction * 100:>5.1f}%"
            )
        return "\n".join(lines)


def scaling_study(
    app: str,
    rank_counts: tuple[int, ...] = (4, 16, 64),
    machine: MachineConfig | None = None,
    app_params: dict | None = None,
    engine=None,
) -> ScalingStudy:
    """Measure overlap benefits across a ladder of process counts.

    Uses the application's Table I platform by default.  Returns one
    :class:`ScalePoint` per count (each backed by a fresh trace at that
    scale — problem size is held constant, so this is a strong-scaling
    ladder like the paper's).  The whole (rank count x variant) ladder
    runs as one grid through ``engine`` — each scale is an independent
    trace, so this is the best-parallelizing study in the harness;
    without one, a private serial engine runs it.
    """
    mach = machine or MachineConfig.paper_testbed(app)
    params = _normalize_params(app_params)
    grid = {
        (n, v): GridPoint(app=app, variant=v, nranks=n,
                          app_params=params, machine=mach)
        for n in rank_counts
        for v in ("original", "real", "ideal")
    }
    with engine_or_serial(engine) as engine:
        res = dict(zip(grid, engine.run_grid(grid.values())))
    points = []
    for n in rank_counts:
        orig = res[(n, "original")]
        points.append(ScalePoint(
            nranks=n,
            duration_original=orig.duration,
            duration_real=res[(n, "real")].duration,
            duration_ideal=res[(n, "ideal")].duration,
            comm_fraction=1.0 - orig.parallel_efficiency,
        ))
    return ScalingStudy(app=app, points=tuple(points))
