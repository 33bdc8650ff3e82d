"""``repro.insight`` — simulated-time attribution and overlap explanation.

The paper's deliverable is not a number but an *explanation*: why a
code overlaps well or badly (production/consumption patterns, bus
serialization, late senders — §V).  The replay reproduces the numbers;
this package answers "where did the simulated time go, and which
resource ate the overlap benefit":

* :mod:`~repro.insight.channel` — the analysis-event channel: a
  collector filled with wait intervals and resource occupancy
  transitions by one fold over the replay log, the log the invariant
  auditor reads too.  Off by default; without it (and without an
  audit) the replay keeps no log, and the disabled path is one
  ``is None`` branch per blocking, queueing, start and release,
  nothing in the per-record dispatch loop.
* :mod:`~repro.insight.attribution` — classifies every recorded wait
  interval by root cause (late sender, rendezvous dependency chain,
  bus/port contention, in-flight transfer, collective sync) and folds
  them into per-rank / per-phase :class:`WaitAttribution` tables.
* :mod:`~repro.insight.scorecard` — the overlap scorecard: attained
  overlap (blocked-time reduction, speedup) against the *attainable*
  bound derived from the trace's production/consumption patterns.
* :mod:`~repro.insight.explain` — the differential explainer over an
  (original, real, ideal) triple: attributes the speedup — or its
  absence — across ranks, phases, and resources, mechanizing the
  paper's §V discussion of why Sweep3D/POP gain little.
* :mod:`~repro.insight.report` — text, JSON (schema:
  ``docs/schema/repro-explain.schema.json``), and self-contained HTML
  renderings; the ``repro-explain`` CLI front-end lives in
  :mod:`repro.cli`.
"""

from .attribution import (
    CAUSES,
    WaitAttribution,
    WaitSegment,
    attribute,
    classify_wait,
)
from .channel import InsightCollector, collect
from .explain import Explanation, explain_experiment, explain_traces
from .scorecard import (
    OverlapScorecard,
    RankScore,
    attainable_overlap_bound,
    scorecard,
)
from .report import render_html, render_text, to_json

__all__ = [
    "CAUSES",
    "Explanation",
    "InsightCollector",
    "OverlapScorecard",
    "RankScore",
    "WaitAttribution",
    "WaitSegment",
    "attainable_overlap_bound",
    "attribute",
    "classify_wait",
    "collect",
    "explain_experiment",
    "explain_traces",
    "render_html",
    "render_text",
    "scorecard",
    "to_json",
]
