"""Exporters: Perfetto/Chrome trace JSON and plain-text summaries.

The span tree collected by :mod:`repro.obs.spans` (parent process and
pool workers alike) exports to the Chrome trace-event format, which
both ``chrome://tracing`` and https://ui.perfetto.dev load directly.
Each OS process becomes a Perfetto process track and each thread a
thread track; replay spans that carry ``sim_seconds`` additionally
paint a *simulated-time* track, so the Dimemas-clock cost of a replay
sits visually next to its host wall-clock cost.

For terminals, :func:`span_summary_table` aggregates the same spans
into a per-stage table in the style of
:func:`repro.paraver.stats.profile_table`.
"""

from __future__ import annotations

import json
from pathlib import Path

from .metrics import MetricsRegistry

__all__ = [
    "insight_to_chrome", "span_summary_table",
    "spans_to_chrome", "write_chrome_trace", "write_insight_trace",
    "write_metrics",
]

#: Synthetic thread id of the simulated-time overlay track.
_SIM_TID = 999_999

#: Synthetic process id base of the wait-attribution overlay tracks
#: (one Perfetto process per analyzed replay variant, counting down).
INSIGHT_PID = 999_998


def _as_dicts(span_records) -> list[dict]:
    return [s if isinstance(s, dict) else s.to_dict() for s in span_records]


def spans_to_chrome(span_records, sim_overlay: bool = True) -> dict:
    """Chrome trace-event document of a span set.

    ``span_records`` may mix :class:`~repro.obs.spans.SpanRecord`
    objects and their dict form (worker spans arrive as dicts).  With
    ``sim_overlay`` on, every span annotated with ``sim_seconds`` also
    emits an event on a dedicated "simulated time" track of the same
    process, anchored at the span's start.
    """
    records = _as_dicts(span_records)
    if not records:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(s["t0"] for s in records)
    events: list[dict] = []
    seen: set[tuple] = set()

    def meta(pid: int, tid: int, what: str, name: str) -> None:
        if (pid, tid, what) in seen:
            return
        seen.add((pid, tid, what))
        events.append({
            "ph": "M", "pid": pid, "tid": tid, "name": what,
            "args": {"name": name},
        })

    tids: dict[tuple, int] = {}
    for s in records:
        pid = s.get("pid") or 0
        tid = tids.setdefault((pid, s.get("tid")), len(
            [k for k in tids if k[0] == pid]
        ) + 1)
        meta(pid, 0, "process_name", f"repro pid {pid}")
        meta(pid, tid, "thread_name", f"thread {tid}")
        ts = (s["t0"] - origin) * 1e6
        dur = max(s["t1"] - s["t0"], 0.0) * 1e6
        events.append({
            "ph": "X", "pid": pid, "tid": tid, "name": s["name"],
            "cat": s["name"].split(".", 1)[0], "ts": ts, "dur": dur,
            "args": dict(s.get("attrs") or {}),
        })
        sim = (s.get("attrs") or {}).get("sim_seconds")
        if sim_overlay and sim is not None:
            meta(pid, _SIM_TID, "thread_name", "simulated (Dimemas) time")
            events.append({
                "ph": "X", "pid": pid, "tid": _SIM_TID,
                "name": f"{s['name']} [simulated]", "cat": "simulated",
                "ts": ts, "dur": float(sim) * 1e6,
                "args": {"host_wall_seconds": s["t1"] - s["t0"],
                         "sim_seconds": sim},
            })
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, span_records,
                       sim_overlay: bool = True) -> Path:
    """Write the Perfetto-loadable trace JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(spans_to_chrome(span_records, sim_overlay)))
    return path


def insight_to_chrome(tracks) -> dict:
    """Chrome trace of wait-attribution overlays on *simulated* time.

    ``tracks`` is an iterable of ``(label, attribution, collector)``
    triples — a :class:`repro.insight.WaitAttribution` plus its
    optional :class:`repro.insight.InsightCollector` (duck-typed: this
    module stays import-independent of :mod:`repro.insight`).  Each
    triple becomes one Perfetto process (pid counting down from
    :data:`INSIGHT_PID`) holding

    * one thread track per rank painting its cause-labelled wait
      slices, and
    * ``active transfers`` / ``queued transfers`` counter tracks from
      the collector's occupancy timeline.

    Timestamps are simulated seconds rendered as microseconds, so the
    overlay aligns with the simulated-time track
    :func:`spans_to_chrome` emits.
    """
    events: list[dict] = []
    for i, (label, attr, col) in enumerate(tracks):
        pid = INSIGHT_PID - i
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": f"insight: {label} (simulated time)"},
        })
        ranks_seen: set[int] = set()
        for seg in attr.segments:
            tid = seg.rank + 1
            if seg.rank not in ranks_seen:
                ranks_seen.add(seg.rank)
                events.append({
                    "ph": "M", "pid": pid, "tid": tid,
                    "name": "thread_name",
                    "args": {"name": f"rank {seg.rank} wait causes"},
                })
            events.append({
                "ph": "X", "pid": pid, "tid": tid, "name": seg.cause,
                "cat": "wait", "ts": seg.t0 * 1e6,
                "dur": (seg.t1 - seg.t0) * 1e6,
                "args": {"state": seg.state, "src": seg.src,
                         "size": seg.size},
            })
        if col is not None:
            for t, active, queued in col.occupancy:
                events.append({
                    "ph": "C", "pid": pid, "tid": 0,
                    "name": "network occupancy", "ts": t * 1e6,
                    "args": {"active": active, "queued": queued},
                })
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_insight_trace(path: str | Path, tracks) -> Path:
    """Write the wait-attribution overlay trace JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(insight_to_chrome(tracks)))
    return path


def span_summary_table(span_records, width: int = 28) -> str:
    """Per-stage aggregate of a span set (profile_table style).

    One row per span name: calls, total/mean/max wall, and the share
    of the observed interval (first start to last end) the stage
    covered.  Shares can exceed 100 % — stages nest and workers run
    concurrently; the column answers "where would tuning pay", not
    "what sums to one".
    """
    records = _as_dicts(span_records)
    if not records:
        return "(no spans recorded)"
    t_lo = min(s["t0"] for s in records)
    t_hi = max(s["t1"] for s in records)
    wall = max(t_hi - t_lo, 1e-12)
    agg: dict[str, list[float]] = {}
    for s in records:
        dur = max(s["t1"] - s["t0"], 0.0)
        row = agg.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur
        row[2] = max(row[2], dur)
    header = (f"{'stage':<{width}} {'calls':>7} {'total s':>10} "
              f"{'mean ms':>10} {'max ms':>10} {'% wall':>7}")
    lines = [header]
    for name in sorted(agg, key=lambda n: -agg[n][1]):
        calls, total, peak = agg[name]
        lines.append(
            f"{name[:width]:<{width}} {int(calls):>7} {total:>10.3f} "
            f"{1e3 * total / calls:>10.3f} {1e3 * peak:>10.3f} "
            f"{100 * total / wall:>6.1f}%"
        )
    lines.append(f"observed wall-clock: {wall:.3f} s "
                 f"({len(records)} spans)")
    return "\n".join(lines)


def write_metrics(path: str | Path, registry: MetricsRegistry,
                  run_id: str | None = None) -> Path:
    """Write the registry snapshot as JSON; returns the path."""
    doc = {"run_id": run_id, "metrics": registry.snapshot()}
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1, default=repr) + "\n")
    return path
