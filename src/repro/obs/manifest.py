"""Run manifests: one ID, one event log, one summary per run.

Every observed CLI/engine run gets a **run ID** and a directory::

    <obs-dir>/<run-id>/
        events.jsonl     # append-only structured event log
        manifest.json    # written at finalize: args, git rev, timings,
                         # metric snapshot, failure detail
        trace.json       # Perfetto/Chrome trace of the span tree
                         # (written by the CLI when profiling)

Worker processes of the parallel experiment engine do not write here
directly — their spans, metric deltas, and events ride back to the
parent piggy-backed on task results (:func:`collect_worker_payload` /
:meth:`RunContext.absorb_worker`), so a parallel grid produces *one*
coherent event log and metric set instead of N partial ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Any, TextIO

from .. import __version__
from . import spans
from .metrics import get_registry, merge_counter_totals

__all__ = [
    "RunContext", "collect_worker_payload", "configure_worker",
    "count_sessions", "current_run", "git_revision", "new_run_id",
    "worker_config",
]


def new_run_id() -> str:
    """Sortable, collision-proof run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def git_revision() -> str | None:
    """The repository revision this run executed, when discoverable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def count_sessions(run_dir: str | Path) -> int:
    """Sessions started in a run directory: its ``run_start`` events.

    Every session appends one to ``events.jsonl`` as it opens, while
    ``manifest.json`` is written only when a session finishes, so a
    SIGKILLed session is counted here and missing from the manifest.
    """
    try:
        text = (Path(run_dir) / "events.jsonl").read_text(encoding="utf-8")
    except OSError:
        return 0
    sessions = 0
    for line in text.splitlines():
        if "run_start" not in line:
            continue
        try:
            sessions += json.loads(line).get("kind") == "run_start"
        except ValueError:
            pass  # the torn last line of a killed session
    return sessions


#: The active run of this process (at most one; None when unobserved).
_CURRENT: "RunContext | None" = None


def current_run() -> "RunContext | None":
    """The process's active :class:`RunContext`, if a run is open."""
    return _CURRENT


class RunContext:
    """Lifecycle and sinks of one observed run.

    Opens the run directory and the JSONL event log immediately;
    :meth:`finalize` snapshots the metrics registry, drains the span
    tracer, and publishes ``manifest.json``.  Reentrant use is not
    supported — one run per process at a time.
    """

    def __init__(
        self,
        out_dir: str | Path,
        argv: list[str] | None = None,
        command: str | None = None,
        run_id: str | None = None,
        seed: int | None = None,
        resume: bool = False,
    ):
        global _CURRENT
        if resume and run_id is None:
            raise ValueError("resume requires an explicit run_id")
        self.run_id = run_id or new_run_id()
        self.dir = Path(out_dir) / self.run_id
        if resume and not self.dir.is_dir():
            raise FileNotFoundError(
                f"cannot resume run {self.run_id!r}: no run directory "
                f"under {out_dir}"
            )
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.argv = list(argv) if argv is not None else list(sys.argv)
        self.seed = seed
        self.started = time.time()
        self._t0 = time.perf_counter()
        self.worker_events = 0
        self.worker_pids: set[int] = set()
        self.spans: list[dict] = []
        #: Monotone run-sequence number: 1 for a fresh run, and one more
        #: than the sessions already started for every resume of the
        #: same run ID (killed sessions included).
        self.run_seq = 1
        #: Metric totals accumulated by earlier sequences of this run
        #: (merged into the *manifest document* at finalize; the live
        #: registry stays session-local so per-session assertions like
        #: "zero points re-executed" keep meaning something).
        self._prior_counters: dict[str, float] = {}
        self._events_path = self.dir / "events.jsonl"
        self.manifest_path = self.dir / "manifest.json"
        if resume:
            prior = self._load_prior_manifest()
            self.run_seq = count_sessions(self.dir) + 1
            # merged_counters already folds every earlier sequence in;
            # fall back to the plain snapshot for pre-resume manifests.
            merged = (prior.get("merged_counters")
                      or (prior.get("metrics") or {}).get("counters") or {})
            self._prior_counters = {
                str(k): float(v) for k, v in merged.items()
                if isinstance(v, (int, float))
            }
        self._events: TextIO | None = self._events_path.open(
            "a", buffering=1, encoding="utf-8",
        )
        _CURRENT = self
        self.record("run_start", command=command, argv=self.argv,
                    pid=os.getpid(), run_seq=self.run_seq)
        if resume:
            self.record("resumed_from", run_id=self.run_id,
                        prior_seq=self.run_seq - 1)

    def _load_prior_manifest(self) -> dict:
        """The previous sequence's manifest ({} when absent/corrupt)."""
        try:
            doc = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return {}
        return doc if isinstance(doc, dict) else {}

    # -- event log -----------------------------------------------------------
    def record(self, kind: str, **fields: Any) -> None:
        """Append one structured event to ``events.jsonl``."""
        if self._events is None:
            return
        event = {"ts": time.time(), "kind": kind, "run": self.run_id}
        event.update(fields)
        try:
            self._events.write(json.dumps(event, default=repr) + "\n")
        except (OSError, ValueError):
            pass  # a full disk must never take the run down

    # -- the worker funnel ---------------------------------------------------
    def absorb_worker(self, payload: dict | None) -> None:
        """Merge one worker task's observability payload into this run.

        ``payload`` is what :func:`collect_worker_payload` produced in
        the worker: metric deltas feed the parent registry, spans join
        the parent's span set (keeping the worker PID for per-process
        Perfetto tracks), and events append to the shared log.
        """
        if not payload:
            return
        pid = payload.get("pid")
        if pid is not None:
            self.worker_pids.add(pid)
        get_registry().merge_delta(payload.get("metrics"))
        for sp in payload.get("spans", ()):
            sp.setdefault("pid", pid)
            self.spans.append(sp)
        for ev in payload.get("events", ()):
            self.worker_events += 1
            self.record("worker", pid=pid, **ev)

    def drain_spans(self) -> list[dict]:
        """All spans of the run so far: local (drained now) + absorbed."""
        pid = os.getpid()
        for rec in spans.flush():
            d = rec.to_dict()
            d["pid"] = pid
            self.spans.append(d)
        return self.spans

    # -- finalize ------------------------------------------------------------
    def finalize(self, status: str = "ok", **extra: Any) -> dict:
        """Write ``manifest.json`` and close the event log.

        Returns the manifest document.  Idempotent: a second call
        rewrites the manifest with updated timings.
        """
        global _CURRENT
        self.drain_spans()
        wall = time.perf_counter() - self._t0
        snapshot = get_registry().snapshot()
        merged = merge_counter_totals(self._prior_counters, snapshot)
        manifest = {
            "run_id": self.run_id,
            "command": self.command,
            "argv": self.argv,
            "seed": self.seed,
            "status": status,
            "version": __version__,
            "python": sys.version.split()[0],
            "git_rev": git_revision(),
            "started": self.started,
            "wall_seconds": wall,
            "pid": os.getpid(),
            "run_seq": self.run_seq,
            "worker_pids": sorted(self.worker_pids),
            "worker_events": self.worker_events,
            "spans": len(self.spans),
            "metrics": snapshot,
            # Counter totals across every sequence of this run ID (the
            # per-session snapshot above stays untouched so session
            # assertions keep their meaning).
            "merged_counters": merged,
        }
        manifest.update(extra)
        self.record("run_end", status=status, wall_seconds=wall)
        tmp = self.manifest_path.with_name(
            f"{self.manifest_path.name}.{os.getpid()}.tmp"
        )
        tmp.write_text(json.dumps(manifest, indent=1, default=repr) + "\n")
        tmp.replace(self.manifest_path)
        if self._events is not None:
            self._events.close()
            self._events = None
        if _CURRENT is self:
            _CURRENT = None
        return manifest


# --------------------------------------------------------------------------- #
# Worker-process side of the funnel.
# --------------------------------------------------------------------------- #

def worker_config() -> dict:
    """Picklable observability spec for pool-worker initializers."""
    return {"spans": spans.is_enabled()}


def configure_worker(spec: dict | None) -> None:
    """Apply a :func:`worker_config` spec inside a worker process.

    A forked worker inherits the parent registry mid-flight, including
    its un-flushed counter deltas and span buffer; both are drained
    here (and discarded) so the worker's first payload ships only what
    *this process* observed — otherwise every worker would re-report
    the parent's pre-fork activity and the funnel would double-count.
    """
    get_registry().flush_delta()
    spans.flush()
    if spec and spec.get("spans"):
        spans.enable()
    else:
        spans.disable()


def collect_worker_payload(events: list[dict] | None = None) -> dict:
    """Everything a worker observed since its last task completed.

    Cheap when idle: an empty metrics delta and no spans serialize to
    a few bytes riding the existing result pickle.
    """
    return {
        "pid": os.getpid(),
        "metrics": get_registry().flush_delta(),
        "spans": [rec.to_dict() for rec in spans.flush()],
        "events": events or [],
    }
