"""Timeline visualization and profiling (the framework's Paraver stage)."""

from .compare import ExecutionComparison, compare
from .critical import (
    CriticalPath,
    CriticalPathError,
    PathSegment,
    critical_path,
    render_path,
)
from .gantt import STATE_CHARS, render_comparison, render_gantt, render_heatmap
from .stats import CommStats, comm_stats, profile_table, state_matrix
from .svg import STATE_COLORS, render_svg, write_svg
from .timeline import iteration_bounds, sample_states

__all__ = [
    "CommStats", "CriticalPath", "CriticalPathError", "ExecutionComparison",
    "PathSegment", "STATE_CHARS", "STATE_COLORS", "critical_path", "render_path",
    "comm_stats", "compare", "iteration_bounds", "profile_table",
    "render_comparison", "render_gantt", "render_heatmap", "render_svg",
    "sample_states", "state_matrix", "write_svg",
]
