"""Deadlock post-mortems: structured diagnosis of stalled replays.

A replay that cannot make progress used to surface as a bare error
string; at production scale ("millions of simulations") that is not a
diagnosis, it is a shrug.  This module turns the final state of a
stalled :class:`~repro.dimemas.replay._Simulation` into a structured
:class:`DeadlockReport`:

* the blocked operation of every unfinished rank (op kind, peer, tag,
  message size, trace record index, block label);
* every pending message whose handshake never completed, classified by
  what is missing (sender never sent / receiver never posted / stuck in
  the network queue) plus records left unmatched at matching time;
* a detected **wait-chain cycle** — the classic "rank 0 waits on rank 1
  waits on rank 0" signature — derived from the wait-for graph of the
  blocked operations;
* collectives some ranks entered and others never reached.

The report rides on :class:`DeadlockError` (raised when the event
queue drains with blocked ranks) and on :class:`SimulationTimeout`
(raised when the configurable watchdog trips on ``max_events`` /
``max_sim_time`` — converting a runaway simulation into a diagnosable
failure instead of a hang).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "BlockedOp",
    "DeadlockError",
    "DeadlockReport",
    "PendingMessage",
    "PerturbationStall",
    "ReplayError",
    "SimulationTimeout",
    "build_report",
]


@dataclass(frozen=True)
class BlockedOp:
    """The operation one unfinished rank is stuck in."""

    rank: int
    #: Record class name ("Send", "Recv", "Wait", "GlobalOp", ...) or
    #: "end" when the rank ran past its last record without finishing.
    op: str
    #: Index into the rank's record stream (None once past the end).
    record_index: int | None
    #: Peer rank of a point-to-point op (None for Wait/collectives).
    peer: int | None = None
    tag: int | None = None
    size: int | None = None
    #: Timeline label the rank blocked under ("Send", "Waiting a
    #: message", "Wait/WaitAll", "Group communication", ...).
    state: str | None = None
    #: Ranks this op is waiting on (edges of the wait-for graph).
    waiting_on: tuple[int, ...] = ()
    #: Extra context ("unmatched receive", request ids, ...).
    detail: str = ""

    def describe(self) -> str:
        where = "end of trace" if self.record_index is None else f"record {self.record_index}"
        bits = [f"rank {self.rank}: blocked in {self.op} at {where}"]
        if self.peer is not None:
            bits.append(f"peer={self.peer}")
        if self.tag is not None:
            bits.append(f"tag={self.tag}")
        if self.size is not None:
            bits.append(f"size={self.size}")
        if self.waiting_on:
            bits.append("waiting on rank(s) " + ",".join(map(str, self.waiting_on)))
        if self.detail:
            bits.append(self.detail)
        return "  ".join(bits)


@dataclass(frozen=True)
class PendingMessage:
    """A message whose send/receive handshake never completed."""

    src: int
    dst: int
    tag: int
    size: int
    rendezvous: bool
    #: Did the sender execute its send record?
    sent: bool
    #: Did the receiver post the matching receive?
    recv_posted: bool
    #: Did the transfer acquire resources and hit the wire?
    started: bool

    def describe(self) -> str:
        if not self.sent and not self.recv_posted:
            missing = "neither endpoint reached"
        elif not self.sent:
            missing = "sender never sent"
        elif not self.recv_posted:
            missing = "receiver never posted"
        elif not self.started:
            missing = "queued in the network (resources never freed)"
        else:
            missing = "in flight when the simulation stopped"
        proto = "rendezvous" if self.rendezvous else "eager"
        return (
            f"message {self.src}->{self.dst} tag={self.tag} "
            f"size={self.size} ({proto}): {missing}"
        )


@dataclass
class DeadlockReport:
    """Everything known about why a replay could not complete."""

    #: Per-rank blocked operations (unfinished ranks only).
    blocked: list[BlockedOp] = field(default_factory=list)
    #: Messages with an incomplete handshake.
    pending: list[PendingMessage] = field(default_factory=list)
    #: A wait-chain cycle through the blocked ranks (``[0, 1, 0]``
    #: means rank 0 waits on rank 1 waits on rank 0); empty when the
    #: stall is not cyclic (e.g. a dropped record, a lone rank).
    cycle: list[int] = field(default_factory=list)
    #: Collectives entered by some ranks but not all.
    stuck_collectives: list[str] = field(default_factory=list)
    #: Records left unpaired by message matching (malformed trace).
    unmatched: list[str] = field(default_factory=list)
    #: Simulation clock when the replay stopped.
    sim_time: float = 0.0
    #: Events the loop executed before stopping.
    events_executed: int = 0

    @property
    def blocked_ranks(self) -> list[int]:
        """Ranks that never finished, ascending."""
        return sorted(op.rank for op in self.blocked)

    def render(self, limit: int = 16) -> str:
        """Human-readable multi-line report (bounded output)."""
        lines = [
            f"{len(self.blocked)} rank(s) blocked at t={self.sim_time:.9g}s "
            f"after {self.events_executed} event(s)"
        ]
        for op in self.blocked[:limit]:
            lines.append("  " + op.describe())
        if len(self.blocked) > limit:
            lines.append(f"  ... and {len(self.blocked) - limit} more rank(s)")
        if self.cycle:
            lines.append(
                "wait cycle: " + " -> ".join(f"rank {r}" for r in self.cycle)
            )
        if self.unmatched:
            lines.append("unmatched records (malformed trace):")
            lines.extend("  " + u for u in self.unmatched[:limit])
        if self.pending:
            lines.append("pending messages:")
            lines.extend("  " + p.describe() for p in self.pending[:limit])
            if len(self.pending) > limit:
                lines.append(f"  ... and {len(self.pending) - limit} more")
        if self.stuck_collectives:
            lines.append("stuck collectives:")
            lines.extend("  " + c for c in self.stuck_collectives[:limit])
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly form (for logs and tooling)."""
        from dataclasses import asdict
        return {
            "blocked": [asdict(b) for b in self.blocked],
            "pending": [asdict(p) for p in self.pending],
            "cycle": list(self.cycle),
            "stuck_collectives": list(self.stuck_collectives),
            "unmatched": list(self.unmatched),
            "sim_time": self.sim_time,
            "events_executed": self.events_executed,
        }


class ReplayError(RuntimeError):
    """Replay could not complete (stalled ranks, malformed trace).

    Lives here (not in :mod:`repro.dimemas.replay`) so the error
    hierarchy has no import cycle; replay re-exports it, so
    ``from repro.dimemas.replay import ReplayError`` keeps working.
    """


class DeadlockError(ReplayError):
    """The event queue drained while simulated ranks were still blocked.

    Carries a :class:`DeadlockReport` as ``.report``; the message keeps
    the historical "replay stalled" wording so existing handlers and
    log filters continue to match.
    """

    def __init__(self, report: DeadlockReport):
        self.report = report
        super().__init__("replay stalled (deadlock):\n" + report.render())


class SimulationTimeout(ReplayError):
    """The watchdog stopped a runaway simulation.

    ``.report`` snapshots the in-flight state at the moment the budget
    (``max_events`` / ``max_sim_time``) was exhausted; ``.reason``
    names which budget tripped.
    """

    def __init__(self, reason: str, report: DeadlockReport, detail: str = ""):
        self.reason = reason
        self.report = report
        extra = f" {detail}" if detail else ""
        super().__init__(
            f"simulation watchdog expired ({reason}){extra} "
            f"at t={report.sim_time:.9g}s "
            f"after {report.events_executed} event(s):\n" + report.render()
        )


class PerturbationStall(SimulationTimeout):
    """The watchdog tripped while a platform perturbation was active.

    An outage or degradation window can *legitimately* stall a replay
    past its simulated-time budget; blaming a generic runaway would
    send the user chasing a phantom bug.  ``.window`` names the
    perturbation window the simulation was stuck in (or headed into)
    when the budget ran out, and the message carries it too — the
    post-mortem explains the fault that caused it.  Subclasses
    :class:`SimulationTimeout`, so every existing handler and exit-code
    mapping keeps working.
    """

    def __init__(self, reason: str, report: DeadlockReport, window: str):
        self.window = window
        super().__init__(
            reason, report,
            detail=f"while platform perturbation [{window}] was active",
        )


# --------------------------------------------------------------------------- #
# Report construction.
# --------------------------------------------------------------------------- #

def _find_cycle(edges: dict[int, tuple[int, ...]]) -> list[int]:
    """Any directed cycle in the wait-for graph, as ``[a, b, ..., a]``."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {r: WHITE for r in edges}
    parent: dict[int, int] = {}

    for start in sorted(edges):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(edges.get(start, ())))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in edges:
                    continue
                if color[nxt] == GRAY:
                    # Unwind the gray chain from node back to nxt.
                    cycle = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    cycle.append(cycle[0])
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return []


def _blocked_op(runner, sim, posted: list[dict[int, int]]) -> BlockedOp:
    """Describe what one unfinished rank is stuck on.

    Reads the packed columns of the simulation's replay plan (see
    :mod:`repro.trace.columnar`) — the record objects no longer exist
    at replay time — and ``posted``, the plan's
    :meth:`~repro.dimemas.replay._ReplayPlan.requests`.
    """
    from .replay import resolve_wait
    from ..trace.columnar import OP_NAMES

    rank = runner.rank
    idx = runner.idx
    plan = sim.plan
    rc = plan.col.ranks[rank]
    if idx >= rc.n:
        return BlockedOp(
            rank=rank, op="end", record_index=None, state=runner._block_label,
            detail="ran past the last record without finishing",
        )
    kind = OP_NAMES[rc.op[idx]]
    peer = tag = size = None
    if kind in ("Send", "ISend", "Recv", "IRecv"):
        peer, tag, size = rc.peer[idx], rc.tag[idx], rc.size[idx]
    waiting: list[int] = []
    detail = ""

    if kind in ("Send", "ISend"):
        tr = sim.send_tr[rank][idx]
        if tr is None:
            detail = "unmatched send (no receive pairs with it)"
        elif peer is not None:
            waiting.append(peer)
    elif kind in ("Recv", "IRecv"):
        tr = sim.recv_tr[rank][idx]
        if tr is None:
            detail = "unmatched receive (no send pairs with it)"
        elif peer is not None:
            waiting.append(peer)
    elif kind == "Wait":
        pids, missing = resolve_wait(
            plan.wait_requests(rank, idx), posted[rank],
            plan.rendezvous_flags(sim.cfg.eager_threshold),
        )
        for pid in pids:
            tr = sim.transfers[pid]
            if not tr.arrived:
                # The other end: the sender of a receive request, the
                # receiver of a send request.
                waiting.append(tr.src if tr.dst == rank else tr.dst)
        if missing:
            detail = f"request(s) {missing[:8]} were never posted"
    elif kind == "GlobalOp":
        rec = plan.colls[rank][idx]
        group = sim.coll._groups.get((rec.context, rec.seq), [])
        entered = {r.rank for r, _, _ in group}
        waiting.extend(
            r.rank for r in sim.runners
            if not r.finished and r.rank not in entered and r.rank != rank
        )
        detail = f"collective {rec.op.value} seq={rec.seq}"

    return BlockedOp(
        rank=rank, op=kind, record_index=idx, peer=peer, tag=tag,
        size=size, state=runner._block_label,
        waiting_on=tuple(dict.fromkeys(waiting)), detail=detail,
    )


def build_report(sim, unmatched: list[str] | None = None) -> DeadlockReport:
    """Post-mortem of a stalled or watchdog-stopped ``_Simulation``."""
    posted = sim.plan.requests()
    blocked = [_blocked_op(r, sim, posted)
               for r in sim.runners if not r.finished]
    pending = [
        PendingMessage(
            src=t.src, dst=t.dst, tag=t.tag, size=t.size,
            rendezvous=t.rendezvous,
            sent=t.send_time is not None,
            recv_posted=t.recv_post_time is not None,
            started=t.start_time is not None,
        )
        for t in sim.transfers
        if not t.arrived and (t.send_time is not None or t.recv_post_time is not None)
    ]
    edges = {op.rank: op.waiting_on for op in blocked}
    return DeadlockReport(
        blocked=blocked,
        pending=pending,
        cycle=_find_cycle(edges),
        stuck_collectives=sim.coll.stuck(),
        unmatched=list(unmatched or ()),
        sim_time=sim.loop.now,
        events_executed=sim.loop.executed,
    )
