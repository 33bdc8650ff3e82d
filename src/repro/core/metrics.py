"""Comparison metrics between simulated executions.

Small helpers shared by the experiment harness and the benchmarks:
speedups, improvement percentages, and convergence utilities for the
bandwidth searches of paper Figure 6(b)/(c).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Comparison", "improvement_percent", "speedup"]


def speedup(t_baseline: float, t_new: float) -> float:
    """Classic speedup ``T_baseline / T_new`` (>1 means ``new`` is faster)."""
    if t_new <= 0:
        raise ValueError(f"new time must be positive, got {t_new}")
    return t_baseline / t_new


def improvement_percent(t_baseline: float, t_new: float) -> float:
    """Relative runtime reduction in percent (paper's "8% improvement")."""
    if t_baseline <= 0:
        raise ValueError(f"baseline time must be positive, got {t_baseline}")
    return 100.0 * (t_baseline - t_new) / t_baseline


@dataclass(frozen=True)
class Comparison:
    """A non-overlapped vs overlapped timing comparison."""

    t_original: float
    t_overlapped: float

    @property
    def speedup(self) -> float:
        return speedup(self.t_original, self.t_overlapped)

    @property
    def improvement_percent(self) -> float:
        return improvement_percent(self.t_original, self.t_overlapped)

    @property
    def wins(self) -> bool:
        """True when the overlapped execution is at least as fast."""
        return self.t_overlapped <= self.t_original * (1 + 1e-12)

    def __str__(self) -> str:
        return (
            f"original={self.t_original:.6f}s overlapped={self.t_overlapped:.6f}s "
            f"speedup={self.speedup:.4f} ({self.improvement_percent:+.2f}%)"
        )
