"""Experiment harness: the paper's evaluation, end to end.

* :mod:`repro.experiments.pipeline` — trace/transform/replay bundles;
* :mod:`repro.experiments.parallel` — process-pool experiment engine;
* :mod:`repro.experiments.bandwidth` — Figure 6(b)/(c) searches;
* :mod:`repro.experiments.calibration` — Table I bus calibration;
* :mod:`repro.experiments.cache` — persistent trace/result caches;
* :mod:`repro.experiments.checkpoint` — graceful drain and the run
  listing; a campaign resumes from its result cache;
* :mod:`repro.experiments.tables` — Table II / Figure 5 data;
* :mod:`repro.experiments.resilience` — fault-injection resilience
  sweeps (how much overlap masks a degraded platform);
* :mod:`repro.experiments.report` — the full paper-vs-measured report.
"""

from .bandwidth import (
    BandwidthSearch,
    bisect_bandwidth,
    equivalent_bandwidth,
    relaxation_bandwidth,
    search_bandwidths,
)
from .cache import SimResultCache, TraceCache, trace_digest
from .calibration import bus_sensitivity, calibrate_buses, saturation_knee
from .checkpoint import CampaignInterrupted, graceful_drain, list_runs
from .parallel import (
    DegradedBracketError,
    ExperimentEngine,
    GridExecutionError,
    GridPoint,
    PointFailure,
    expand_grid,
)
from .pipeline import AppExperiment, VARIANTS
from .tables import (
    PAPER_CONSUMPTION,
    PAPER_PRODUCTION,
    PatternRow,
    figure5_series,
    pattern_row,
)
from .resilience import ResilienceReport, ResilienceRow, resilience_sweep
from .scaling import ScalePoint, ScalingStudy, scaling_study
from .sweeps import SweepResult, ascii_series, bandwidth_sweep, latency_sweep

__all__ = [
    "AppExperiment", "BandwidthSearch", "CampaignInterrupted",
    "DegradedBracketError", "ExperimentEngine",
    "GridExecutionError", "GridPoint",
    "PointFailure",
    "PAPER_CONSUMPTION", "PAPER_PRODUCTION", "PatternRow",
    "VARIANTS", "bisect_bandwidth",
    "bus_sensitivity", "calibrate_buses",
    "equivalent_bandwidth", "expand_grid", "figure5_series",
    "graceful_drain", "list_runs", "pattern_row",
    "relaxation_bandwidth", "saturation_knee", "search_bandwidths",
    "ResilienceReport", "ResilienceRow", "resilience_sweep",
    "ScalePoint", "ScalingStudy", "SimResultCache", "TraceCache",
    "scaling_study", "trace_digest",
    "SweepResult", "ascii_series", "bandwidth_sweep", "latency_sweep",
]
