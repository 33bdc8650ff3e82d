"""Trace-driven replay: reconstructing time-behaviour on a platform.

This is the Dimemas stage of the pipeline (paper Figure 3): it takes
the per-process traces (original or overlapped) and *"off-line
reconstructs the application's time-behavior on a configurable
parallel platform"*.

Execution model
---------------

Each rank replays its record stream sequentially on a private clock:

* ``CpuBurst`` — advances the clock by ``duration * cpu_ratio``
  (state: Running);
* ``Send`` — eager protocol (size ≤ eager threshold, or forced by the
  record): zero sender cost — the paper assumes OS-bypass NICs that
  *"perform communication operations without interrupting the main
  processor"* (§I), so an eager send only enqueues the transfer, which
  then competes for buses/ports on its own; rendezvous: the sender
  blocks until delivery, and the transfer cannot start before the
  receiver has posted;
* ``ISend`` / ``IRecv`` — zero-cost posting;
* ``Recv`` — blocks until the matching message is delivered;
* ``Wait`` — blocks until all referenced requests complete (eager send
  requests are buffered and complete immediately, everything else at
  delivery);
* ``GlobalOp`` — synchronizes all ranks, then applies the analytic
  collective cost model (only present in non-decomposed traces);
* ``Event`` — timestamps a user event.

Matching is resolved *statically* with
:func:`repro.core.matching.match_columnar` (MPI posting-order
semantics), so replay, runtime, and transformation always agree on
message pairings.  The network applies the linear cost model with
finite buses and ports (:mod:`repro.dimemas.network`).

Causality: a rank executes communication records only when the global
event clock has caught up with its private clock, so all resource
contention resolves in global time order.

Hot path
--------

Replaying is the inner loop of every experiment (a single bandwidth
bisection issues ~60 replays of the same trace), so the per-trace
preprocessing is factored into a cached :class:`_ReplayPlan` built on
the packed columnar form (:mod:`repro.trace.columnar`): message
matching and burst coalescing run once per trace *content*, and the
dispatch loop walks plain int/float lists instead of record objects.
Per eager threshold the plan also keeps each pair's protocol and each
Wait's pairs: the requests a Wait names are resolved to the pairs it
must wait for (every receive, rendezvous sends only) once, so a
replay's Wait indexes its transfers by pair and builds no request map.
Plans are keyed by the trace's **content digest** in a bounded LRU, so
a trace loaded from a cache (a different object with identical bytes)
reuses the existing plan instead of re-matching from scratch.

Per event the replay allocates little: an event is a ``(time, seq,
fn, arg)`` tuple (:mod:`repro.dimemas.engine`) whose ``fn`` is a
method or plain function and whose ``arg`` is the transfer, runner or
time it acts on, never a closure; a rank's cursor stays in locals
while :meth:`_RankRunner.advance` runs its CPU bursts; and a delivered
message becomes a :class:`~repro.dimemas.results.MessageFlight` named
tuple.

:func:`simulate` accepts either a :class:`~repro.trace.records.TraceSet`
or a :class:`~repro.trace.columnar.ColumnarTrace` — workers fed the
compact encoding replay it directly, no record objects ever built —
and both paths produce bitwise-identical results.

A replay stays out of the way of CPython's cyclic garbage collector.
It allocates a :class:`~repro.dimemas.network.Transfer` per message
pair (about 15k for a 64-rank BT trace) and a few objects per event,
enough to set off a full collection every second replay or so, and
each one walks every record object the caller holds.  So
:func:`simulate` pauses the collector for its whole span
(:func:`repro.gcpause.pause_collector`): plan lookup, event loop,
result collection and the audit and insight read-out.  No garbage
piles up meanwhile, because a drained replay holds no reference
cycle: a :class:`_RankRunner` keeps what ``advance`` reads (the loop,
the network's ``submit``, the eager threshold, the transfers and the
Wait table, the collective barrier), not the :class:`_Simulation`
whose ``runners`` list holds it, and a transfer or the event heap
drops each callback once it fires.  Reference counting frees the
replay when :func:`simulate` returns.  A replay that raises
(deadlock, watchdog) may leave cycles behind, which the collector,
running again by then, reclaims.

Replay log
----------

When :func:`simulate` gets ``audit`` or ``insight``, ``_Simulation.log``
is a list the network and the rank runners append to in execution
order, and the auditor and the wait attribution read it once the loop
drains.  Otherwise it is None, which costs one ``is None`` branch per
block, resume, queueing, start and release.  The list is flat,
:data:`LOG_FIELDS` items per entry, so a long log adds no objects for
the cyclic GC to track; :func:`log_entries` regroups them:

* ``("queued", t, transfer, cause, queue_length)``;
* ``("start" or "release", t, transfer, active, queued)``, the counts
  taken after the change;
* ``("excess", t, transfer, seconds, None)``: perturbation delay;
* ``("block" or "resume", t, rank, record_index, state_label)``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..gcpause import pause_collector
from ..obs import get_registry, span as _span
from ..core.matching import match_columnar
from ..trace.columnar import (
    OP_COLL as _OP_COLL,
    OP_CPU as _OP_CPU,
    OP_EVENT as _OP_EVENT,
    OP_IRECV as _OP_IRECV,
    OP_ISEND as _OP_ISEND,
    OP_RECV as _OP_RECV,
    OP_SEND as _OP_SEND,
    OP_WAIT as _OP_WAIT,
    ColumnarTrace,
    columnar_of,
    gather_rows,
    new_rows,
)
from ..trace.records import CollOp, GlobalOp, TraceSet
from .collectives import collective_cost
from .engine import EventLoop, WatchdogExpired
from .machine import MachineConfig
from .network import Network, PerturbedNetwork, Transfer
from .postmortem import (
    DeadlockError,
    PerturbationStall,
    ReplayError,
    SimulationTimeout,
    build_report,
)
from .results import MessageFlight, SimResult

__all__ = [
    "DeadlockError",
    "PerturbationStall",
    "ReplayError",
    "SimulationTimeout",
    "LOG_FIELDS",
    "log_entries",
    "simulate",
]

_EPS = 1e-15

#: Items per replay-log entry (module docstring).
LOG_FIELDS = 5


def log_entries(log: list) -> Iterator[tuple]:
    """The entries of a replay log, in order."""
    return zip(*[iter(log)] * LOG_FIELDS)


class _CollectiveSync:
    """Barrier-style coordination of analytic GlobalOp records."""

    def __init__(self, nranks: int, cfg: MachineConfig, loop: EventLoop):
        self.nranks = nranks
        self.cfg = cfg
        self.loop = loop
        self._groups: dict[tuple, list] = {}
        #: Collectives fully synchronized (observability).
        self.completed = 0

    def enter(self, runner: "_RankRunner", rec: GlobalOp) -> None:
        group = self._groups.setdefault((rec.context, rec.seq), [])
        group.append((runner, runner.now, rec))
        expected = rec.members if rec.members > 0 else self.nranks
        if len(group) == expected:
            t_enter = max(t for _, t, _ in group)
            cost = collective_cost(rec, expected, self.cfg)
            t_done = t_enter + cost
            self.completed += 1
            del self._groups[(rec.context, rec.seq)]
            for r, _, _ in group:
                self.loop.at(t_done, r._resume, t_done)

    def stuck(self) -> list[str]:
        return [
            f"collective context={key[0]} seq={key[1]}: "
            f"only {len(g)} rank(s) entered"
            for key, g in self._groups.items()
        ]


class _RankRunner:
    """Sequential replay cursor of one rank."""

    __slots__ = (
        "rank", "ops", "durs", "events_at", "waits_at", "colls_at",
        "sizes", "rvs", "send_tr", "recv_tr", "transfers", "n",
        "idx", "now", "finished", "states", "events", "cpu_ratio",
        "_block_label", "_block_start", "log",
        "loop", "submit", "eager_threshold", "coll",
    )

    def __init__(self, sim: "_Simulation", rank: int):
        # No reference back to ``sim``, whose ``runners`` list holds
        # this runner: a drained replay is then acyclic and freed by
        # reference counting (see :func:`simulate`).
        self.rank = rank
        plan = sim.plan
        self.ops = plan.ops[rank]
        self.durs = plan.durs[rank]
        #: Effective compute scaling of this rank.  Equals the platform
        #: cpu_ratio unless a perturbation schedule marks the rank as a
        #: straggler; CPU noise likewise swaps in a stretched *copy* of
        #: the plan's burst durations (the shared plan is never touched).
        self.cpu_ratio = sim.cfg.cpu_ratio
        pert = sim.pert
        if pert is not None:
            self.cpu_ratio = sim.cfg.cpu_ratio * pert.cpu_factor(rank)
            noisy = pert.scale_cpu_durations(
                rank, self.ops, self.durs, _OP_CPU
            )
            if noisy is not None:
                self.durs = noisy
        self.events_at = plan.events[rank]
        self.waits_at = sim.waits[rank]
        self.colls_at = plan.colls[rank]
        rc = plan.col.ranks[rank]
        self.sizes = rc.size
        self.rvs = rc.rv
        self.send_tr = sim.send_tr[rank]
        self.recv_tr = sim.recv_tr[rank]
        self.transfers = sim.transfers
        self.n = len(self.ops)
        self.idx = 0
        self.now = 0.0
        self.finished = False
        self.states: list[tuple[str, float, float]] = []
        self.events: list[tuple[float, str, int]] = []
        self._block_label: str | None = None
        self._block_start = 0.0
        self.log = sim.log
        self.loop = sim.loop
        self.submit = sim.network.submit
        self.eager_threshold = sim.cfg.eager_threshold
        self.coll = sim.coll

    # -- state bookkeeping ---------------------------------------------------
    def _push_state(self, label: str, t0: float, t1: float) -> None:
        if t1 <= t0 + _EPS:
            return
        if self.states and self.states[-1][0] == label and abs(self.states[-1][2] - t0) < _EPS:
            prev = self.states[-1]
            self.states[-1] = (label, prev[1], t1)
        else:
            self.states.append((label, t0, t1))

    def _block(self, label: str) -> None:
        self._block_label = label
        self._block_start = self.now
        if self.log is not None:
            self.log.extend(("block", self.now, self.rank, self.idx, label))

    def _resume(self, t: float) -> None:
        """Completion callback: close the blocked state and continue."""
        if self.log is not None:
            self.log.extend(("resume", t, self.rank, self.idx,
                             self._block_label))
        if t < self.now:
            t = self.now
        if self._block_label is not None:
            self._push_state(self._block_label, self._block_start, t)
            self._block_label = None
        self.now = t
        self.idx += 1
        self.advance()

    # -- the replay loop ------------------------------------------------------
    def advance(self) -> None:
        """Replay records until this rank blocks, finishes, or runs
        ahead of the global clock.

        The cursor (``idx``, ``now``) lives in locals.  It is written
        back before every call that can read it or re-enter this method
        (``submit``, :meth:`_block`, ``on_arrived``, ``coll.enter``)
        and before a reschedule: once per side-effecting record, never
        per CPU burst or user event.
        """
        loop = self.loop
        network_submit = self.submit
        cpu_ratio = self.cpu_ratio
        ops = self.ops
        durs = self.durs
        send_tr = self.send_tr
        recv_tr = self.recv_tr
        states = self.states
        n = self.n
        idx = self.idx
        now = self.now
        while idx < n:
            op = ops[idx]
            if op == _OP_CPU:
                t1 = now + durs[idx] * cpu_ratio
                # :meth:`_push_state` ("Running", now, t1), inline and
                # with its test, so a NaN duration is recorded as there.
                if not t1 <= now + _EPS:
                    if (states and (last := states[-1])[0] == "Running"
                            and abs(last[2] - now) < _EPS):
                        states[-1] = ("Running", last[1], t1)
                    else:
                        states.append(("Running", now, t1))
                now = t1
                idx += 1
                continue
            if op == _OP_EVENT:
                name, value = self.events_at[idx]
                self.events.append((now, name, value))
                idx += 1
                continue
            # Side-effecting record: only execute once the global clock
            # has caught up (causal resource arbitration).
            self.idx = idx
            self.now = now
            if now > loop.now + 1e-12:
                loop.at(now, _RankRunner.advance, self)
                return

            if op == _OP_SEND or op == _OP_ISEND:
                tr = send_tr[idx]
                if tr is None:
                    # Unmatched send (malformed trace): no receive will
                    # ever pair with it.  Eager sends complete locally
                    # (buffered, like MPI); a rendezvous Send blocks
                    # forever and the post-mortem names it.  An ISend's
                    # dangling request is caught at its Wait.
                    rv = self.rvs[idx]
                    rendezvous = (
                        bool(rv) if rv >= 0
                        else self.sizes[idx] > self.eager_threshold
                    )
                    if op == _OP_ISEND or not rendezvous:
                        idx += 1
                        continue
                    self._block("Send")
                    return
                tr.send_time = now
                if not tr.rendezvous:
                    # Eager: enqueue the transfer and move on (OS-bypass
                    # NIC — zero sender cost for Send and ISend alike).
                    network_submit(tr)
                    idx += 1
                    continue
                if tr.recv_post_time is not None:
                    network_submit(tr)
                if op == _OP_ISEND:
                    idx += 1
                    continue
                self._block("Send")
                tr.on_arrived(self._resume)
                return

            if op == _OP_RECV or op == _OP_IRECV:
                tr = recv_tr[idx]
                if tr is None:
                    # Unmatched receive: nothing will ever arrive.  An
                    # IRecv's dangling request is caught at its Wait; a
                    # blocking Recv blocks forever (diagnosable).
                    if op == _OP_IRECV:
                        idx += 1
                        continue
                    self._block("Waiting a message")
                    return
                tr.recv_post_time = now
                if tr.rendezvous and tr.send_time is not None and tr.ready_time is None:
                    network_submit(tr)
                if op == _OP_IRECV:
                    idx += 1
                    continue
                if tr.arrived:
                    if tr.arrival_time > now:
                        now = tr.arrival_time
                    idx += 1
                    continue
                self._block("Waiting a message")
                tr.on_arrived(self._resume)
                return

            if op == _OP_WAIT:
                # The plan resolved the requests: the pairs to wait for
                # (eager send requests are buffered, complete at the
                # send call), or None for a request that belongs to an
                # unmatched ISend/IRecv or was never posted, which can
                # never complete.
                pids = self.waits_at[idx]
                if pids is None:
                    self._block("Wait/WaitAll")
                    return
                transfers = self.transfers
                pend: list[Transfer] = []
                latest = now
                for pid in pids:
                    tr = transfers[pid]
                    if tr.arrived:
                        if tr.arrival_time > latest:
                            latest = tr.arrival_time
                    else:
                        pend.append(tr)
                if not pend:
                    now = latest
                    idx += 1
                    continue
                self._block("Wait/WaitAll")
                remaining = len(pend)
                acc = [latest]

                def _done(t: float) -> None:
                    nonlocal remaining
                    acc[0] = max(acc[0], t)
                    remaining -= 1
                    if remaining == 0:
                        self._resume(acc[0])

                for tr in pend:
                    tr.on_arrived(_done)
                return

            if op == _OP_COLL:
                self._block("Group communication")
                self.coll.enter(self, self.colls_at[idx])
                return

            raise ReplayError(
                f"rank {self.rank}: cannot replay opcode {op} at index {idx}"
            )
        self.idx = idx
        self.now = now
        if not self.finished:
            self.finished = True


def _coalesce_columnar(col: ColumnarTrace) -> tuple[ColumnarTrace, list]:
    """Columns with maximal CpuBursts (copied only when needed), and per
    rank the new index of every old record.

    Build-time coalescing (:meth:`ProcessTrace.append_coalesced`) keeps
    tracer output burst-maximal, but transformed traces can reacquire
    adjacency (e.g. a Wait dropped between two burst pieces).  One
    comparison per rank finds the bursts that follow a burst; when
    there are none, the columns are returned as they are (and every
    index maps to itself).  Otherwise each run of adjacent bursts
    becomes one row of a :func:`new_rows` block, the row
    :func:`from_traceset` writes for one burst: its durations summed
    left to right, as the record walk added them, and its instruction
    count summed, or -1 when one is unknown.  :func:`gather_rows`
    builds the ranks from the kept rows and the block, so every column
    of the layout is carried.
    """
    # cont[i]: row i is a burst right after a burst, so it joins the row
    # before it.
    conts = []
    for rc in col.ranks:
        cpu = np.frombuffer(rc.op, dtype=np.uint8) == _OP_CPU
        cont = np.zeros(rc.n, dtype=bool)
        np.logical_and(cpu[1:], cpu[:-1], out=cont[1:])
        conts.append(cont)
    if not any(cont.any() for cont in conts):
        return col, [range(rc.n) for rc in col.ranks]

    cont = np.concatenate(conts)
    keep = ~cont
    starts = np.flatnonzero(keep)
    runs = np.diff(starts, append=cont.shape[0])
    merged = runs > 1
    heads, runs = starts[merged], runs[merged]
    dur = np.concatenate([np.frombuffer(rc.dur, dtype=np.float64)
                          for rc in col.ranks])
    instr = np.concatenate([np.frombuffer(rc.instr, dtype=np.int64)
                            for rc in col.ranks])
    dur_sum, instr_sum = dur[heads], instr[heads]
    unknown = instr_sum < 0
    for k in range(1, int(runs.max())):
        live = runs > k
        rows = heads[live] + k
        dur_sum[live] += dur[rows]
        instr_sum[live] += instr[rows]
        unknown[live] |= instr[rows] < 0
    instr_sum[unknown] = -1
    bursts = new_rows(heads.shape[0], _OP_CPU, dur=dur_sum, instr=instr_sum)

    pos = starts.copy()
    pos[merged] = cont.shape[0] + np.arange(heads.shape[0])
    first = np.cumsum([0] + [rc.n for rc in col.ranks])
    bounds = np.searchsorted(starts, first).tolist()
    ranks = gather_rows(col, [bursts], pos, bounds)
    new_index = np.cumsum(keep) - 1
    renumber = []
    for r, (rc, merged_rc) in enumerate(zip(col.ranks, ranks)):
        # Side tables are index-stable (only CpuBursts merge, and they
        # reference none); aux values still point at the right entries.
        merged_rc.waits = rc.waits
        merged_rc.events = rc.events
        merged_rc.colls = rc.colls
        renumber.append((new_index[first[r]:first[r + 1]] - bounds[r]).tolist())
    return ColumnarTrace(ranks, col.names, col.collops, meta=col.meta), renumber


class _ReplayPlan:
    """Platform-independent per-trace-content precomputation.

    Computed once per trace *content* (keyed by columnar digest) and
    shared by every subsequent :func:`simulate` call on equal bytes:
    the coalesced columns, per-rank opcode/duration lists for the
    dispatch loop, side-table lookups for the rare records, the
    message matching, and per eager threshold each pair's protocol and
    each Wait's pairs.  Everything else platform-dependent (network
    state, transfer timing) stays in :class:`_Simulation`.
    """

    __slots__ = (
        "digest", "col", "ops", "durs", "events", "colls",
        "unmatched", "pair_specs", "_rdv_cache", "_wait_cache",
    )

    def __init__(self, col: ColumnarTrace):
        self.digest = col.digest
        matching = match_columnar(col)
        col, renumber = _coalesce_columnar(col)
        self.col = col
        #: Plain per-rank lists: the dispatch loop indexes these.
        self.ops = [list(rc.op) for rc in col.ranks]
        self.durs = [list(rc.dur) for rc in col.ranks]
        #: Per-rank side-table lookups keyed by record index (a Wait's
        #: is :meth:`wait_table`'s, per eager threshold).
        self.events: list[dict[int, tuple[str, int]]] = []
        self.colls: list[dict[int, GlobalOp]] = []
        names = col.names
        collops = col.collops
        for rc in col.ranks:
            ev: dict[int, tuple[str, int]] = {}
            cl: dict[int, GlobalOp] = {}
            op = rc.op
            aux = rc.aux
            for i in range(rc.n):
                o = op[i]
                if o == _OP_EVENT:
                    ni, val = rc.events[aux[i]]
                    ev[i] = (names[ni], val)
                elif o == _OP_COLL:
                    t = rc.colls[aux[i]]
                    cl[i] = GlobalOp(
                        op=CollOp(collops[t[0]]), root=t[1], send_size=t[2],
                        recv_size=t[3], seq=t[4], context=t[5], members=t[6],
                    )
            self.events.append(ev)
            self.colls.append(cl)
        #: Matching-key descriptions of records no partner pairs with
        #: (empty for well-formed traces).  Malformed traces keep their
        #: pairs so the replay can diagnose the resulting stall instead
        #: of aborting before it starts.
        self.unmatched = matching.leftovers()
        #: Flattened pair prototypes for :class:`_Simulation`: one
        #: tuple ``(src, dst, si, ri, size, tag, rv, send_req,
        #: recv_req)`` per matched message, with the record indices
        #: renumbered into the coalesced columns and the request ids
        #: pre-resolved (None unless the endpoint is ISend/IRecv).
        #: The per-platform init loop then touches no columns at all;
        #: a pair's position here is its index (``pid``) everywhere.
        specs = []
        ranks = col.ranks
        for pair in matching.pairs:
            src, dst = pair.src, pair.dst
            si, ri = renumber[src][pair.send_index], renumber[dst][pair.recv_index]
            src_rc, dst_rc = ranks[src], ranks[dst]
            specs.append((
                src, dst, si, ri, pair.size, pair.tag, src_rc.rv[si],
                src_rc.req[si] if src_rc.op[si] == _OP_ISEND else None,
                dst_rc.req[ri] if dst_rc.op[ri] == _OP_IRECV else None,
            ))
        self.pair_specs = specs
        #: Per-eager-threshold rendezvous flags (one bool per pair)
        #: and Wait tables.  A campaign sweeps bandwidth/latency far
        #: more often than the eager threshold, so each usually holds
        #: a single entry.
        self._rdv_cache: dict[float, list[bool]] = {}
        self._wait_cache: dict[float, list[dict]] = {}

    def rendezvous_flags(self, eager_threshold: float) -> list[bool]:
        """Protocol choice per matched pair under ``eager_threshold``."""
        flags = self._rdv_cache.get(eager_threshold)
        if flags is None:
            flags = [
                bool(rv) if rv >= 0 else size > eager_threshold
                for (_s, _d, _si, _ri, size, _tag, rv, _sq, _rq)
                in self.pair_specs
            ]
            if len(self._rdv_cache) >= 8:
                self._rdv_cache.clear()
            self._rdv_cache[eager_threshold] = flags
        return flags

    def requests(self) -> list[dict[int, int]]:
        """Per rank, the pair each posted request id belongs to: ``pid``
        for an IRecv's request, ``~pid`` (negative) for an ISend's.

        The one request-to-pair rule; a request id posted twice on a
        rank keeps its last pair.  Requests of unmatched records are
        absent.  Built on demand: the replay reads it only through
        :meth:`wait_table`, the audit and the post-mortem once each.
        """
        posted: list[dict[int, int]] = [{} for _ in self.col.ranks]
        for pid, (src, dst, _si, _ri, _size, _tag, _rv, sreq, rreq) in (
                enumerate(self.pair_specs)):
            if sreq is not None:
                posted[src][sreq] = ~pid
            if rreq is not None:
                posted[dst][rreq] = pid
        return posted

    def wait_requests(self, rank: int, idx: int) -> tuple[int, ...]:
        """The request ids of the Wait at record ``idx`` of ``rank``."""
        rc = self.col.ranks[rank]
        return rc.waits[rc.aux[idx]]

    def wait_table(
        self, eager_threshold: float,
    ) -> list[dict[int, tuple[int, ...] | None]]:
        """Per rank, each Wait's record index mapped to the pairs it
        waits for under ``eager_threshold`` (:func:`resolve_wait`), or
        to None when one of its requests belongs to no pair: that Wait
        can never complete."""
        table = self._wait_cache.get(eager_threshold)
        if table is None:
            rdv = self.rendezvous_flags(eager_threshold)
            table = []
            for rc, ops, posted in zip(self.col.ranks, self.ops,
                                       self.requests()):
                waits, aux = rc.waits, rc.aux
                entries: dict[int, tuple[int, ...] | None] = {}
                for i, o in enumerate(ops):
                    if o == _OP_WAIT:
                        pids, missing = resolve_wait(
                            waits[aux[i]], posted, rdv)
                        entries[i] = None if missing else tuple(pids)
                table.append(entries)
            if len(self._wait_cache) >= 8:
                self._wait_cache.clear()
            self._wait_cache[eager_threshold] = table
        return table


def resolve_wait(
    reqs: tuple[int, ...], posted: dict[int, int], rdv: list[bool],
) -> tuple[list[int], list[int]]:
    """The pairs a Wait on ``reqs`` waits for, and its requests that no
    pair posted.

    ``posted`` is one rank's :meth:`_ReplayPlan.requests`, ``rdv`` the
    pairs' rendezvous flags.  A Wait waits for every receive and for
    rendezvous sends only: an eager send request is buffered, complete
    at the send call.  Pairs keep the order of ``reqs``.
    """
    pids: list[int] = []
    missing: list[int] = []
    for req in reqs:
        ref = posted.get(req)
        if ref is None:
            missing.append(req)
        elif ref >= 0:
            pids.append(ref)
        elif rdv[~ref]:
            pids.append(~ref)
    return pids, missing


#: Content-digest-keyed plan LRU.  Bounded: an experiment campaign
#: cycles through a handful of (app, variant) traces, but a long-lived
#: worker process may see many more over its lifetime.
_plan_lru: "OrderedDict[str, _ReplayPlan]" = OrderedDict()
_PLAN_LRU_MAX = 64


def _plan_for(trace: "TraceSet | ColumnarTrace") -> _ReplayPlan:
    try:
        col = columnar_of(trace)
    except TypeError as exc:
        raise ReplayError(str(exc)) from None
    digest = col.digest
    plan = _plan_lru.get(digest)
    if plan is not None:
        _plan_lru.move_to_end(digest)
        return plan
    with _span("replay.plan", nranks=col.nranks):
        plan = _ReplayPlan(col)
    get_registry().counter("replay.plans_built").inc()
    _plan_lru[digest] = plan
    while len(_plan_lru) > _PLAN_LRU_MAX:
        _plan_lru.popitem(last=False)
    return plan


class _Simulation:
    """Shared replay state: loop, network, transfers, runners."""

    def __init__(
        self,
        trace: "TraceSet | ColumnarTrace",
        cfg: MachineConfig,
        logged: bool = False,
        pert=None,
    ):
        plan = _plan_for(trace)
        self.plan = plan
        col = plan.col
        self.nranks = col.nranks
        self.unmatched = plan.unmatched
        self.cfg = cfg
        self.loop = EventLoop()
        #: Active perturbation schedule (None = pristine platform).
        self.pert = pert
        # The pristine path builds the plain Network — the perturbed
        # arbiter exists only as a subclass, so disabling perturbation
        # provably removes every perturbation branch from the replay.
        self.network = (
            Network(self.loop, col.nranks, cfg) if pert is None
            else PerturbedNetwork(self.loop, col.nranks, cfg, pert)
        )
        self.coll = _CollectiveSync(col.nranks, cfg, self.loop)
        #: The replay log (module docstring).
        self.log: list | None = [] if logged else None
        self.network.log = self.log

        #: Per-rank, per-record-index transfer slots (None = unmatched
        #: or not a point-to-point record).  Flat list indexing here is
        #: the hottest lookup of the replay loop.
        self.send_tr: list[list[Transfer | None]] = [
            [None] * rc.n for rc in col.ranks
        ]
        self.recv_tr: list[list[Transfer | None]] = [
            [None] * rc.n for rc in col.ranks
        ]
        #: One transfer per matched pair, indexed by pair (``pid``).
        transfers: list[Transfer] = []
        self.transfers = transfers
        #: The plan's Wait table for this platform's eager threshold.
        self.waits = plan.wait_table(cfg.eager_threshold)

        send_tr = self.send_tr
        recv_tr = self.recv_tr
        append = transfers.append
        rdv = plan.rendezvous_flags(cfg.eager_threshold)
        for spec, rendezvous in zip(plan.pair_specs, rdv):
            src, dst, si, ri, size, tag, _rv, _sreq, _rreq = spec
            tr = Transfer(src, dst, size, tag, rendezvous)
            append(tr)
            send_tr[src][si] = tr
            recv_tr[dst][ri] = tr

        self.runners = [_RankRunner(self, r) for r in range(col.nranks)]

    def blocked_on(self, rank: int, idx: int) -> tuple[Transfer, ...]:
        """The transfers record ``idx`` of ``rank`` waited for when it
        blocked, arrived ones included: a Send's or Recv's own, a
        Wait's pairs (:func:`resolve_wait`), none for a collective or
        for a Wait that can never complete."""
        op = self.plan.ops[rank][idx]
        if op == _OP_SEND:
            return (self.send_tr[rank][idx],)
        if op == _OP_RECV:
            return (self.recv_tr[rank][idx],)
        transfers = self.transfers
        return tuple(transfers[pid]
                     for pid in self.waits[rank].get(idx) or ())


@pause_collector
def simulate(
    trace: "TraceSet | ColumnarTrace",
    machine: MachineConfig | None = None,
    max_events: int | None = None,
    max_sim_time: float | None = None,
    audit=None,
    insight=None,
    perturb=None,
) -> SimResult:
    """Replay ``trace`` on ``machine`` and reconstruct its timeline.

    ``trace`` may be a record-object :class:`TraceSet` or a packed
    :class:`~repro.trace.columnar.ColumnarTrace`; the two forms replay
    bitwise-identically (the object form is packed into columns first).

    Raises :class:`~repro.dimemas.postmortem.DeadlockError` (a
    :class:`ReplayError`) when the replay stalls — e.g. a rendezvous
    cycle or an inconsistent trace — carrying a structured
    :class:`~repro.dimemas.postmortem.DeadlockReport` of the blocked
    ranks, pending messages, and any wait cycle.

    ``max_events`` / ``max_sim_time`` bound the simulation (overriding
    the same-named :class:`MachineConfig` fields); exceeding either
    raises :class:`~repro.dimemas.postmortem.SimulationTimeout` with
    the same post-mortem snapshot, so a runaway replay is always
    diagnosable, never a hang.

    ``audit`` enables the integrity auditor: an
    :class:`~repro.audit.AuditConfig`, a level string
    (``"basic"``/``"full"``), or ``None`` for off.  With a config whose
    ``strict`` flag is set, any violation raises
    :class:`~repro.audit.IntegrityError`; otherwise the report lands on
    ``audit.report``.

    ``insight`` takes a :class:`repro.insight.InsightCollector`, which
    is filled from the replay log once the loop drains: every wait
    interval with the transfers it blocked on, queueing causes and bus
    occupancy.  Attribution never perturbs the simulation — an
    attributed replay is bitwise-identical to a plain one — and with
    neither ``audit`` nor ``insight`` the replay keeps no log.

    ``perturb`` applies a :class:`repro.perturb.PerturbationSchedule`
    (degraded bandwidth/latency windows, outages, CPU noise,
    stragglers) in simulated time; it overrides any schedule carried by
    ``machine.perturb``.  Perturbed replays are bitwise-reproducible
    per schedule seed; with no (or a zero-magnitude) schedule the
    replay uses the plain :class:`Network` and is bitwise-identical to
    an unperturbed one.  A watchdog expiry while a perturbation window
    is active raises the typed
    :class:`~repro.dimemas.postmortem.PerturbationStall` naming the
    window.

    The cyclic garbage collector is paused while the replay runs and
    left as the caller had it, on or off, whether the replay returns or
    raises (module docstring, :mod:`repro.gcpause`).
    """
    cfg = machine or MachineConfig()
    pert = perturb if perturb is not None else cfg.perturb
    if pert is not None:
        # MachineConfig normalizes on construction; the explicit kwarg
        # path normalizes here so both entrances agree that a no-op
        # schedule *is* the pristine platform.
        pert = pert.normalized()
        if pert.is_noop():
            pert = None
    acfg = auditor = None
    if audit is not None:
        # Imported lazily: repro.audit depends on this package for its
        # error taxonomy, and the unaudited hot path should not pay for
        # (or depend on) the audit machinery at all.
        from ..audit.auditor import AuditConfig, InvariantAuditor
        acfg = AuditConfig.coerce(audit)
        auditor = InvariantAuditor(acfg) if acfg is not None else None
    metrics = get_registry()
    t_begin = time.perf_counter()
    sp = _span("replay.simulate", nranks=trace.nranks)
    with sp:
        logged = auditor is not None or insight is not None
        sim = _Simulation(trace, cfg, logged=logged, pert=pert)
        for runner in sim.runners:
            sim.loop.at(0.0, _RankRunner.advance, runner)
        budget_events = (max_events if max_events is not None
                         else cfg.max_events)
        budget_time = (max_sim_time if max_sim_time is not None
                       else cfg.max_sim_time)
        try:
            with _span("replay.drain_queue", nranks=sim.nranks):
                sim.loop.run(max_events=budget_events,
                             max_time=budget_time)
        except WatchdogExpired as w:
            metrics.counter("replay.watchdog_expired").inc()
            report = build_report(sim, sim.unmatched)
            if pert is not None:
                window = pert.blocking_window(report.sim_time)
                if window is not None:
                    # A degraded platform legitimately stalling past
                    # the budget is a diagnosis, not a runaway: name
                    # the perturbation window instead of a bare
                    # timeout.
                    raise PerturbationStall(
                        w.reason, report, window) from None
            raise SimulationTimeout(w.reason, report) from None

        if any(not r.finished for r in sim.runners) or sim.coll._groups:
            metrics.counter("replay.deadlocks").inc()
            raise DeadlockError(build_report(sim, sim.unmatched))

        # Sort raw tuples (native comparison), then build the flights in
        # final order — cheaper than sorting dataclasses through a key
        # lambda.  The enumeration index reproduces the stable-sort tie
        # order on equal (t_send, src, dst).
        raw = [
            (t.send_time, t.src, t.dst, i, t.start_time, t.arrival_time,
             t.size, t.tag)
            for i, t in enumerate(sim.transfers)
            if t.arrival_time is not None and t.send_time is not None
        ]
        raw.sort()
        messages = [
            MessageFlight(src, dst, t_send, t_start, t_recv, size, tag)
            for (t_send, src, dst, _i, t_start, t_recv, size, tag) in raw
        ]
        result = SimResult(
            nranks=sim.nranks,
            duration=max((r.now for r in sim.runners), default=0.0),
            rank_end=[r.now for r in sim.runners],
            states=[r.states for r in sim.runners],
            messages=messages,
            events=[r.events for r in sim.runners],
            network_stats={
                "peak_active_transfers": sim.network.peak_active,
                "wire_busy_seconds": sim.network.busy_seconds,
                "events_executed": sim.loop.executed,
            },
        )
        if insight is not None:
            insight.read_log(sim)
        if auditor is not None:
            report = auditor.finish(sim, result)
            if acfg.strict and not report.ok:
                from ..audit.auditor import IntegrityError
                raise IntegrityError(report)
        # End-of-replay metric rollup: a handful of dict operations per
        # *replay*, never per event, so the disabled-observability path
        # stays within noise of uninstrumented code.
        wall = time.perf_counter() - t_begin
        metrics.counter("replay.runs").inc()
        metrics.counter("replay.events").inc(sim.loop.executed)
        metrics.counter("replay.queue_scan_steps").inc(
            sim.network.scan_steps)
        metrics.counter("replay.collectives").inc(sim.coll.completed)
        metrics.counter("replay.messages").inc(len(messages))
        metrics.histogram("replay.wall_seconds").observe(wall)
        if wall > 0:
            metrics.histogram("replay.events_per_second").observe(
                sim.loop.executed / wall
            )
        if result.duration > 0:
            metrics.histogram("replay.bus_occupancy").observe(
                sim.network.busy_seconds / result.duration
            )
        sp.annotate(
            events=sim.loop.executed, sim_seconds=result.duration,
            messages=len(messages),
        )
        return result
