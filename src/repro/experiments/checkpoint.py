"""Interrupting and resuming a campaign: graceful drain, run listing.

The paper's evaluation campaigns (bandwidth/latency/bus sweeps, the
full report, scaling ladders, calibrations) are long grids of
deterministic replays.  A campaign needs no state of its own to be
killable and resumable:

* every finished replay lands in the content-addressed
  :class:`~repro.experiments.cache.SimResultCache` (checksummed,
  published atomically, discarded and recomputed when damaged), so a
  second session on the same cache directory replays only the points
  the first one did not finish;
* the run directory (:class:`~repro.obs.RunContext`) keeps the
  manifest and the event log of every session of one run ID.

A kill at any instant therefore costs at most the replays that had not
reached the cache, never a wrong number.  This module adds the rest:

* :func:`graceful_drain` — SIGTERM/SIGINT turn into a *drain* that
  raises :class:`CampaignInterrupted`, which the CLI maps to the
  "interrupted, resumable" exit code 5.  A second signal forces the
  hard-interrupt path (exit 130).
* :func:`list_runs` — the runs under an obs dir with their status and
  progress (``repro-report --list-runs``).
"""

from __future__ import annotations

import contextlib
import json
import logging
import signal
from pathlib import Path
from typing import Any, Iterator

from ..obs import count_sessions

__all__ = [
    "CampaignInterrupted",
    "graceful_drain",
    "list_runs",
    "render_runs_table",
]

_log = logging.getLogger("repro.experiments.checkpoint")


class CampaignInterrupted(BaseException):
    """The campaign drained after SIGTERM/SIGINT.

    ``run_id`` names the run to pass to ``--resume``: set when a run
    was open and the engine had a result cache to resume from, None
    otherwise (the CLI then falls back to the conventional 130 exit).
    ``remaining`` counts grid points left undone when the drain stopped
    a grid, and is None when it stopped the campaign elsewhere.

    Like :class:`KeyboardInterrupt` it derives from
    :class:`BaseException`: the signal handler may raise it anywhere in
    the main thread, and an ``except Exception`` that turns failures
    into report rows or failed points must not swallow it.
    """

    def __init__(self, run_id: str | None = None,
                 remaining: int | None = None):
        self.run_id = run_id
        self.remaining = remaining
        self.resumable = run_id is not None
        what = f"run {run_id}" if run_id else "campaign"
        left = ("" if remaining is None
                else f"; {remaining} grid point(s) left undone")
        super().__init__(f"{what} interrupted{left}")


# --------------------------------------------------------------------------- #
# Graceful drain: SIGTERM/SIGINT -> stop, exit 5.
# --------------------------------------------------------------------------- #

@contextlib.contextmanager
def graceful_drain(engine) -> Iterator[None]:
    """Install drain-on-signal handling around a campaign.

    The first SIGTERM or SIGINT drains the campaign.  A mediated
    ``engine`` (see :attr:`ExperimentEngine.mediated`) stops
    dispatching, awaits the points already running in its pool, and
    raises :class:`CampaignInterrupted` from its next scheduling step.
    Any other campaign runs entirely in this thread, with nothing in
    flight to wait for, so the handler raises the engine's
    :class:`CampaignInterrupted` at once.  A second signal escalates to
    ``KeyboardInterrupt`` (the conventional hard-interrupt path, exit
    130).

    Outside the main thread — or wherever ``signal.signal`` is
    unavailable — this is a no-op wrapper; the engine can still be
    drained programmatically via :meth:`ExperimentEngine.request_drain`.
    """
    seen = {"count": 0}

    def _handler(signum, frame):
        seen["count"] += 1
        if seen["count"] > 1:
            raise KeyboardInterrupt
        _log.warning(
            "%s received: draining campaign; signal again to force-quit",
            signal.Signals(signum).name,
        )
        engine.request_drain()
        if not engine.mediated:
            raise engine._interrupted()

    previous: dict[int, Any] = {}
    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _handler)
    except ValueError:
        # Not the main thread: signals cannot be routed here.
        previous = {}
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


# --------------------------------------------------------------------------- #
# Operator tooling: which runs can I resume?
# --------------------------------------------------------------------------- #

def list_runs(obs_dir: str | Path) -> list[dict]:
    """Enumerate the runs under an obs dir, newest first.

    One record per run directory: ``run_id``; ``command``, ``status``
    and ``replays`` (the run's ``replay.runs`` counter merged over its
    sessions) from the manifest of its last finished session;
    ``run_seq``, the sessions started (killed ones included); and
    whether the run looks resumable (it did not finish ``ok``).
    """
    root = Path(obs_dir)
    out: list[dict] = []
    if not root.is_dir():
        return out
    for run_dir in sorted((d for d in root.iterdir() if d.is_dir()),
                          reverse=True):
        manifest_path = run_dir / "manifest.json"
        sessions = count_sessions(run_dir)
        if not sessions and not manifest_path.exists():
            continue
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError):
            manifest = {}
        status = manifest.get("status", "unknown")
        merged = manifest.get("merged_counters") or {}
        out.append({
            "run_id": run_dir.name,
            "command": manifest.get("command"),
            "status": status,
            "run_seq": sessions,
            "replays": int(merged.get("replay.runs", 0)),
            "resumable": status != "ok",
            "started": manifest.get("started"),
        })
    return out


def render_runs_table(runs: list[dict]) -> str:
    """Human-readable ``--list-runs`` table."""
    if not runs:
        return "no runs found"
    lines = [f"{'run-id':<26} {'seq':>3} {'status':<12} {'replays':>7} "
             f"{'resumable':>9}  command"]
    for r in runs:
        lines.append(
            f"{r['run_id']:<26} {r['run_seq']:>3} {r['status']:<12} "
            f"{r['replays']:>7} "
            f"{'yes' if r['resumable'] else 'no':>9}  {r['command'] or '-'}"
        )
    return "\n".join(lines)
