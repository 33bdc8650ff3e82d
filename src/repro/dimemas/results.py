"""Replay results: reconstructed timelines and their statistics.

The replay simulator reconstructs each rank's time-behaviour as a list
of state intervals (the exact information Paraver renders in paper
Figure 4) plus the set of message flights.  :class:`SimResult` is the
lingua franca of the analysis side: :mod:`repro.paraver` renders it,
:mod:`repro.trace.prv` serializes it, and the experiment harness reads
its ``duration``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["MessageFlight", "SimResult", "STATE_NAMES"]

#: The state vocabulary of reconstructed timelines.
STATE_NAMES = (
    "Running",
    "Send",
    "Waiting a message",
    "Wait/WaitAll",
    "Group communication",
    "Idle",
)


class MessageFlight(NamedTuple):
    """One delivered message: logical send/receive times and key.

    A named tuple: immutable and hashable, built with no Python-level
    ``__init__`` — a 64-rank replay builds about 15k of them.
    """

    src: int
    dst: int
    t_send: float     # sender executed the send record
    t_start: float    # wire occupancy began (after resource queueing)
    t_recv: float     # payload arrived at the destination
    size: int
    tag: int

    @property
    def flight_time(self) -> float:
        """End-to-end delay from send call to delivery."""
        return self.t_recv - self.t_send

    @property
    def queue_delay(self) -> float:
        """Time spent waiting for buses/ports before hitting the wire."""
        return self.t_start - self.t_send


@dataclass
class SimResult:
    """The reconstructed execution of one trace on one platform."""

    nranks: int
    #: Simulated makespan: max over ranks of their end time (seconds).
    duration: float
    #: Per-rank completion times.
    rank_end: list[float]
    #: Per-rank state intervals ``(state, t0, t1)``, time-ordered.
    states: list[list[tuple[str, float, float]]]
    #: All delivered messages, ordered by send time.
    messages: list[MessageFlight]
    #: Per-rank user events ``(t, name, value)``.
    events: list[list[tuple[float, int | str, int]]] = field(default_factory=list)
    #: Network diagnostics (peak concurrent transfers, busy seconds).
    network_stats: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # State accounting.
    # ------------------------------------------------------------------ #
    def time_in_state(self, state: str, rank: int | None = None) -> float:
        """Total seconds spent in ``state`` (one rank or all ranks).

        A rank with no recorded intervals contributes 0 — ``states``
        may legitimately be shorter than ``nranks`` (e.g. a result
        restored from ``to_dict(include_states=False)`` output).
        """
        if rank is None:
            ranks = range(min(self.nranks, len(self.states)))
        elif 0 <= rank < len(self.states):
            ranks = (rank,)
        else:
            return 0.0
        return sum(
            t1 - t0
            for r in ranks
            for (s, t0, t1) in self.states[r]
            if s == state
        )

    def state_summary(self) -> dict[str, float]:
        """Seconds per state summed over ranks (Paraver profile view)."""
        out: dict[str, float] = defaultdict(float)
        for intervals in self.states:
            for s, t0, t1 in intervals:
                out[s] += t1 - t0
        return dict(out)

    @property
    def compute_time(self) -> float:
        """Total Running seconds over all ranks."""
        return self.time_in_state("Running")

    @property
    def blocked_time(self) -> float:
        """Total seconds blocked in any communication state."""
        return sum(
            v for k, v in self.state_summary().items() if k != "Running"
        )

    @property
    def parallel_efficiency(self) -> float:
        """Running time / (makespan * ranks) — Paraver's efficiency metric."""
        denom = self.duration * self.nranks
        return self.compute_time / denom if denom > 0 else 0.0

    # ------------------------------------------------------------------ #
    # Event helpers (iteration slicing for Figure 4-style views).
    # ------------------------------------------------------------------ #
    def event_times(self, name: str, rank: int = 0) -> list[tuple[float, int]]:
        """``(time, value)`` of every event ``name`` on ``rank``.

        Empty for a rank with no event list (empty traces, results
        restored without per-rank events) rather than an IndexError.
        """
        if not 0 <= rank < len(self.events):
            return []
        return [(t, v) for (t, n, v) in self.events[rank] if n == name]

    def window(self, t0: float, t1: float) -> "SimResult":
        """Clip the result to ``[t0, t1]`` (for per-iteration views)."""
        def clip(intervals):
            out = []
            for s, a, b in intervals:
                a2, b2 = max(a, t0), min(b, t1)
                if b2 > a2:
                    out.append((s, a2, b2))
            return out

        return SimResult(
            nranks=self.nranks,
            duration=t1 - t0,
            rank_end=[min(e, t1) - t0 for e in self.rank_end],
            states=[
                [(s, a - t0, b - t0) for s, a, b in clip(iv)] for iv in self.states
            ],
            messages=[
                MessageFlight(
                    m.src, m.dst, m.t_send - t0, m.t_start - t0,
                    m.t_recv - t0, m.size, m.tag,
                )
                for m in self.messages
                if t0 <= m.t_send and m.t_recv <= t1
            ],
            events=[
                [(t - t0, n, v) for (t, n, v) in evs if t0 <= t <= t1]
                for evs in self.events
            ],
            network_stats=dict(self.network_stats),
        )

    # ------------------------------------------------------------------ #
    # Interop.
    # ------------------------------------------------------------------ #
    def to_dict(self, include_messages: bool = True,
                include_states: bool = True) -> dict:
        """Plain-data form of the result (JSON-serializable)."""
        out: dict = {
            "nranks": self.nranks,
            "duration": self.duration,
            "rank_end": list(self.rank_end),
            "state_summary": self.state_summary(),
            "parallel_efficiency": self.parallel_efficiency,
            "network_stats": dict(self.network_stats),
        }
        if include_states:
            out["states"] = [
                [[s, t0, t1] for (s, t0, t1) in iv] for iv in self.states
            ]
        if include_messages:
            out["messages"] = [
                {
                    "src": m.src, "dst": m.dst, "t_send": m.t_send,
                    "t_start": m.t_start, "t_recv": m.t_recv,
                    "size": m.size, "tag": m.tag,
                }
                for m in self.messages
            ]
        out["events"] = [
            [[t, n, v] for (t, n, v) in evs] for evs in self.events
        ]
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "SimResult":
        """Rebuild a result from :meth:`to_dict` output.

        Floats survive the JSON round-trip exactly (``repr`` encoding),
        so a cache-restored result is bit-identical to the simulated
        one; derived keys (``state_summary``, ``parallel_efficiency``)
        are recomputed, not read.
        """
        return cls(
            nranks=int(doc["nranks"]),
            duration=doc["duration"],
            rank_end=list(doc["rank_end"]),
            states=[
                [(s, t0, t1) for s, t0, t1 in intervals]
                for intervals in doc.get("states", [])
            ],
            messages=[MessageFlight(**m) for m in doc.get("messages", [])],
            events=[
                [(t, n, v) for t, n, v in evs] for evs in doc.get("events", [])
            ],
            network_stats=dict(doc.get("network_stats", {})),
        )

    def to_json(self, fp=None, **kwargs) -> str | None:
        """Dump :meth:`to_dict` as JSON (to a string, path, or stream)."""
        import json
        from pathlib import Path

        doc = json.dumps(self.to_dict(**kwargs), indent=1)
        if fp is None:
            return doc
        if isinstance(fp, (str, Path)):
            Path(fp).write_text(doc)
        else:
            fp.write(doc)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimResult(nranks={self.nranks}, duration={self.duration:.6f}s, "
            f"messages={len(self.messages)})"
        )
