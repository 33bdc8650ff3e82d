"""``repro.obs`` — the framework's self-observability layer.

The paper's methodology makes an opaque execution observable; this
package does the same for our own pipeline.  Four pieces, collection
decoupled from aggregation and export (the Caliper/Benchpark shape):

* :mod:`~repro.obs.spans` — hierarchical span tracer with a
  near-zero-cost disabled path (``span("replay.drain_queue")``);
* :mod:`~repro.obs.metrics` — process-global registry of counters,
  gauges, and histograms with a cross-process delta funnel;
* :mod:`~repro.obs.manifest` — run IDs, JSONL event logs, and final
  ``manifest.json`` documents; pool workers funnel their events and
  metrics back through task results so one run means one log;
* :mod:`~repro.obs.export` — Perfetto/Chrome trace JSON (with the
  simulated-Dimemas-time overlay) and plain-text summary tables;
* :mod:`~repro.obs.logs` — the structured stderr logger behind the
  CLI's ``-v`` / ``--quiet``.

Enabling everything costs microseconds per pipeline *stage*; enabling
nothing costs one global check per instrumentation point, which is the
contract the fast-path benchmark tests pin down.
"""

from .manifest import (
    RunContext,
    collect_worker_payload,
    configure_worker,
    count_sessions,
    current_run,
    git_revision,
    new_run_id,
    worker_config,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_counter_totals,
)
from .spans import SpanRecord, disable, enable, flush, is_enabled, span, traced
from .export import (
    insight_to_chrome,
    span_summary_table,
    spans_to_chrome,
    write_chrome_trace,
    write_insight_trace,
    write_metrics,
)
from .logs import configure as configure_logging
from .logs import get_logger

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunContext",
    "SpanRecord",
    "collect_worker_payload",
    "configure_logging",
    "configure_worker",
    "count_sessions",
    "current_run",
    "disable",
    "enable",
    "flush",
    "get_logger",
    "get_registry",
    "git_revision",
    "insight_to_chrome",
    "is_enabled",
    "merge_counter_totals",
    "new_run_id",
    "span",
    "span_summary_table",
    "spans_to_chrome",
    "traced",
    "worker_config",
    "write_chrome_trace",
    "write_insight_trace",
    "write_metrics",
]
