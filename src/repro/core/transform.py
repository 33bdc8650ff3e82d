"""The automatic overlap transformation (the paper's core contribution).

Rewrites a traced (non-overlapped) execution into the trace of the
*potential* overlapped execution, applying the four mechanisms of
paper §II at the MPI level:

* **Message chunking** — every transformable message is split into
  ``chunks`` contiguous-element chunks (paper setting: 4).
* **Advancing sends** — each chunk is transmitted (as a non-blocking
  send) at the virtual time its final version was produced: *"the
  tracer emits a Dimemas send record of every chunk at the moment of
  the last update of that chunk"* (§III-C).
* **Post-postponing receptions** — the receiver posts non-blocking
  receives for all chunks at the original receive point and waits for
  each chunk only *"at the point where that chunk is needed for the
  first time"* (§III-C).
* **Double buffering** — chunks of the next iteration may arrive while
  the current iteration is still consuming: chunk transfers are eager
  and the sender's completion waits are deferred to the next send of
  the same message stream.  (With ``double_buffering=False`` — the
  single-buffer ablation — chunk sends become rendezvous and complete
  at the original send point.)

The rewriting is purely trace-level: it moves communication records
through the recorded computation bursts (splitting bursts where chunk
boundaries fall) without altering the total computation, which is how
the framework isolates the effect of overlap from cache/locality
side-effects the paper criticizes in code-restructuring studies.

Two schedules are supported (§III-C, "two overlapped traces"):

* ``schedule="real"`` — chunk times taken from the measured
  production/consumption access profiles;
* ``schedule="ideal"`` — chunk transmissions/receptions uniformly
  distributed through the adjacent computation intervals, modelling the
  best possible production/consumption pattern (paper Eq. 1).

Causality rules
---------------

A chunk send may only move to an *earlier* point when there is store
evidence it was fully produced by then.  Chunks without evidence (no
profile, or a never-stored chunk) keep the original send's position in
the record stream — moving them to the same *virtual time* is not
enough, because zero-duration regions (e.g. a reduction-tree relay
that receives and immediately forwards) would let the forward jump
ahead of the receive it depends on.  For the same reason the ideal
schedule distributes chunk events only through the contiguous
computation region bounded by the adjacent communication records: the
data a process forwards right after a receive has no computation in
which it could have been produced earlier.

Output form
-----------

The transformation writes the derived trace straight into
:class:`~repro.trace.columnar.RankColumns`, the replay's own input, and
returns a :class:`~repro.trace.columnar.ColumnarTrace`: the chunk
ISends and IRecvs, their Waits, the pieces of every burst and the Waits
it strips become column rows, and each record it keeps is copied field
by field from the original's columns (an access profile into the
``profiles`` side table).  No derived record object is built;
:meth:`~repro.trace.columnar.ColumnarTrace.to_traceset` gives them
back.  The original is read from its columns too, and from its record
objects only for what the columns do not hold: the access profiles and
the ``buf`` meta that names a buffer.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..gcpause import pause_collector
from ..obs import get_registry, traced
from ..trace.columnar import (
    OP_CPU,
    OP_EVENT,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    ROW_DEFAULTS,
    ColumnarTrace,
    RankColumns,
    columnar_of,
    gather_rows,
    new_rows,
)
from ..trace.records import CHANNEL_CHUNK, ProcessTrace, TraceSet
from .chunking import (
    DEFAULT_CHUNKS,
    _clip,
    chunk_needed_times,
    chunk_ready_times,
    plan_chunks,
)
from .matching import MessagePair, match_columnar, match_messages

__all__ = [
    "OverlapConfig",
    "TransformStats",
    "chunk_sub",
    "overlap_transform",
]

_MAX_CHUNKS = 256
_MAX_SUB = 1 << 16


def chunk_sub(channel: int, sub: int, c: int) -> int:
    """Pack an original (channel, sub) and a chunk index into a chunk key.

    Chunked messages travel on :data:`CHANNEL_CHUNK`; the original
    channel and sub id are folded into the new ``sub`` so that chunk
    streams of distinct original messages never collide.
    """
    if not 0 <= c < _MAX_CHUNKS:
        raise ValueError(f"chunk index {c} out of range [0, {_MAX_CHUNKS})")
    if not 0 <= sub < _MAX_SUB:
        raise ValueError(f"sub id {sub} out of range [0, {_MAX_SUB})")
    if channel < 0 or channel > 0xF:
        raise ValueError(f"channel {channel} out of range [0, 15]")
    return (channel << 24) | (sub << 8) | c


@dataclass(frozen=True)
class OverlapConfig:
    """Configuration of the overlap transformation.

    The defaults reproduce the paper's experimental setup; each flag
    disables one mechanism for the ablation benchmarks.
    """

    chunks: int = DEFAULT_CHUNKS
    #: Extension beyond the paper's fixed chunk count: when set, each
    #: message is split into ``ceil(size / chunk_bytes)`` chunks, capped
    #: by ``chunks`` — small messages stay whole, large ones split
    #: finer.  ``None`` (default) reproduces the paper's fixed scheme.
    chunk_bytes: int | None = None
    advance_sends: bool = True
    postpone_receptions: bool = True
    double_buffering: bool = True
    #: "real" uses measured access profiles; "ideal" distributes chunk
    #: events uniformly through the adjacent computation (paper's
    #: second overlapped trace).
    schedule: str = "real"
    #: Also transform the point-to-point messages that collectives were
    #: decomposed into (when their buffers carry profiles).
    transform_collectives: bool = True

    def __post_init__(self) -> None:
        if self.schedule not in ("real", "ideal"):
            raise ValueError(f"schedule must be 'real' or 'ideal', got {self.schedule!r}")
        if self.chunks < 1 or self.chunks > _MAX_CHUNKS:
            raise ValueError(f"chunks must be in [1, {_MAX_CHUNKS}]")
        if self.chunk_bytes is not None and self.chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1 or None")

    def chunks_for(self, size: int) -> int:
        """Chunk count for a message of ``size`` bytes."""
        if self.chunk_bytes is None:
            return self.chunks
        return max(1, min(self.chunks, -(-size // self.chunk_bytes)))


@dataclass
class TransformStats:
    """What the transformation did (reported alongside the new trace)."""

    messages_total: int = 0
    messages_transformed: int = 0
    chunks_created: int = 0
    sends_advanced: int = 0
    waits_postponed: int = 0
    skipped_no_profile: int = 0
    skipped_zero_size: int = 0


# --------------------------------------------------------------------------- #
# What the transformation reads of one original rank.
# --------------------------------------------------------------------------- #

class _Rank:
    """One original rank: its columns, its record objects (read for
    profiles and ``buf`` meta only), and the bounds derived from them."""

    __slots__ = ("records", "rc", "starts", "comm", "waits_of", "next_req",
                 "prev_recv", "next_send", "next_send_row", "next_recv_time")

    def __init__(self, proc: ProcessTrace, rc: RankColumns):
        self.records = proc.records
        self.rc = rc
        op = np.frombuffer(rc.op, dtype=np.uint8)
        # Virtual start of every record plus the rank's end, summed the
        # way ProcessTrace.virtual_starts sums the same durations.
        starts = np.zeros(rc.n + 1)
        np.cumsum(np.frombuffer(rc.dur, dtype=np.float64), out=starts[1:])
        self.starts: list[float] = starts.tolist()
        #: Rows of the communication records (neither burst nor event).
        self.comm: list[int] = np.flatnonzero(
            (op != OP_CPU) & (op != OP_EVENT)).tolist()
        #: request id -> the row of the (last) Wait that completes it.
        self.waits_of: dict[int, int] = {}
        for i in np.flatnonzero(op == OP_WAIT).tolist():
            for q in rc.waits[rc.aux[i]]:
                self.waits_of[q] = i
        #: Chunk requests are numbered past every request of the rank.
        self.next_req = max(0, max(rc.req, default=0)) + 1
        self.prev_recv, self.next_send = self._buffer_lifecycle(
            np.flatnonzero((op >= OP_SEND) & (op <= OP_IRECV)).tolist())
        #: Filled by :func:`_stream_neighbors`.
        self.next_send_row: dict[int, int | None] = {}
        self.next_recv_time: dict[int, float] = {}

    def _buffer_lifecycle(self, ptp: list[int]):
        """Buffer-identity causality bounds (from the ``buf`` record meta).

        For every send row: the virtual time of the last receive into
        the same buffer before it (data arrival — an ideal-schedule send
        of that buffer cannot move before it).  For every receive row:
        the virtual time of the next send of the same buffer after it
        (the forward point — a postponed wait cannot move past it).
        """
        op, records, starts = self.rc.op, self.records, self.starts
        marks = [(i, buf) for i in ptp
                 if (buf := records[i].meta.get("buf")) is not None]
        prev_recv: dict[int, float] = {}
        seen: dict[int, float] = {}
        for i, buf in marks:
            if op[i] <= OP_ISEND:
                prev_recv[i] = seen.get(buf, 0.0)
            else:
                seen[buf] = starts[i]
        next_send: dict[int, float] = {}
        upcoming: dict[int, float] = {}
        for i, buf in reversed(marks):
            if op[i] >= OP_RECV:
                next_send[i] = upcoming.get(buf, math.inf)
            else:
                upcoming[buf] = starts[i]
        return prev_recv, next_send

    # The contiguous computation region around a record: the start of
    # the nearest communication record before it (0.0 at the head) and
    # after it (the rank's end at the tail).  These bound how far the
    # ideal schedule may spread chunk events without crossing a
    # communication dependency.
    def region_start(self, i: int) -> float:
        k = bisect.bisect_left(self.comm, i)
        return self.starts[self.comm[k - 1]] if k else 0.0

    def region_end(self, i: int) -> float:
        k = bisect.bisect_right(self.comm, i)
        return self.starts[self.comm[k]] if k < len(self.comm) else self.starts[-1]


def _stream_neighbors(col: ColumnarTrace, ranks: list[_Rank]) -> None:
    """Per matching key, each message's successor on that key: for every
    send the row of the next send (None at the stream's end), for every
    receive the virtual time of the next receive (the rank's end at the
    tail)."""
    for (src, dst, *_), _, _, pairs in match_columnar(col).by_key():
        next_row = ranks[src].next_send_row
        next_time = ranks[dst].next_recv_time
        starts = ranks[dst].starts
        for p, nxt in zip(pairs, pairs[1:] + [None]):
            if nxt is None:
                next_row[p.send_index] = None
                next_time[p.recv_index] = starts[-1]
            else:
                next_row[p.send_index] = nxt.send_index
                next_time[p.recv_index] = starts[nxt.recv_index]


# --------------------------------------------------------------------------- #
# Per-rank edit script, written as column rows.
# --------------------------------------------------------------------------- #

#: Row kinds, in the two low bits of a row id (see :class:`_Rows`); 0
#: is an original row.
_PTP, _WAIT, _PIECE = 1, 2, 3
#: Fields of an inserted ISend/IRecv row: op, peer, tag, size, sub,
#: context, req.
_PTP_FIELDS = 7


class _Rows:
    """The rows the transformation inserts, on every rank, in column form.

    Each kind has its own table: chunk ISends and IRecvs
    (``_PTP_FIELDS`` ints each), Waits (their request tuples) and burst
    pieces (their durations).  A row is named by an id, ``j << 2 |
    kind`` for the ``j``-th row of its table; original row ``i`` of a
    rank is ``(base + i) << 2``, ``base`` counting the rows of the
    ranks before it.
    """

    __slots__ = ("rendezvous", "ptp", "waits", "pieces")

    def __init__(self, rendezvous: int):
        #: The ``rv`` column of a chunk ISend.
        self.rendezvous = rendezvous
        self.ptp: list[int] = []
        self.waits: list[tuple[int, ...]] = []
        self.pieces: list[float] = []

    def next_ptp(self) -> int:
        """The id the next ISend/IRecv row gets (they follow by 4)."""
        return (len(self.ptp) // _PTP_FIELDS) << 2 | _PTP

    def wait(self, requests: tuple[int, ...]) -> int:
        """Insert a Wait row on ``requests``; returns its id."""
        self.waits.append(requests)
        return (len(self.waits) - 1) << 2 | _WAIT

    def piece(self, duration: float) -> int:
        """Insert a burst piece of ``duration`` seconds; returns its id."""
        self.pieces.append(duration)
        return (len(self.pieces) - 1) << 2 | _PIECE


class _Edits:
    """One rank's edit script: rows removed, Waits stripped of requests,
    and inserted rows placed by record index or by virtual time."""

    __slots__ = ("table", "base", "removed", "before", "timed", "at_end",
                 "strip")

    def __init__(self, table: _Rows, base: int):
        self.table = table
        self.base = base
        self.removed: set[int] = set()
        self.before: dict[int, list[int]] = defaultdict(list)
        #: ``(virtual time, sequence number, id)``.
        self.timed: list[tuple[float, int, int]] = []
        self.at_end: list[int] = []
        self.strip: dict[int, set[int]] = defaultdict(set)

    def add_timed(self, t: float, rid: int) -> None:
        self.timed.append((t, len(self.timed), rid))


def _rebuild(src: _Rank, ed: _Edits) -> tuple[list[int], list[tuple]]:
    """Apply an edit script, splitting CPU bursts at timed insertions.

    Returns the ids of the derived rank's rows in order, and its
    profile side table.  Every burst is written anew as the difference
    of the prefix sums around it (without an instruction count), and
    burst pieces shorter than 1e-15 s are dropped at split points, so
    total compute is preserved up to one femtosecond per insertion —
    negligible against microsecond-scale bursts, and bounded for tests.
    """
    rc, starts, records = src.rc, src.starts, src.records
    op, waits, aux = rc.op, rc.waits, rc.aux
    table, base = ed.table, ed.base << 2
    before, removed, strip = ed.before, ed.removed, ed.strip
    timed = sorted(ed.timed)
    nt = len(timed)
    k = 0
    order: list[int] = []
    push = order.append
    piece = table.piece
    profiles: list[tuple] = []

    for i in range(rc.n):
        o = op[i]
        if o == OP_CPU:
            cur, t1 = starts[i], starts[i + 1]
            while k < nt and timed[k][0] < t1 - 1e-15:
                tt = max(timed[k][0], cur)
                if tt > cur + 1e-15:
                    push(piece(tt - cur))
                cur = tt
                push(timed[k][2])
                k += 1
            if t1 > cur + 1e-15:
                push(piece(t1 - cur))
            continue
        # Non-burst record: flush timed insertions due up to its time.
        t0 = starts[i]
        while k < nt and timed[k][0] <= t0 + 1e-15:
            push(timed[k][2])
            k += 1
        ids = before.get(i)
        if ids:
            order.extend(ids)
        if i in removed:
            continue
        drop = strip.get(i)
        if drop is not None:
            kept = tuple(q for q in waits[aux[i]] if q not in drop)
            if kept:
                push(table.wait(kept))
            continue
        if OP_SEND <= o <= OP_IRECV:
            rec = records[i]
            p = rec.production if o <= OP_ISEND else rec.consumption
            if p is not None:
                profiles.append((
                    len(order), 0 if p.kind == "production" else 1,
                    p.interval_start, p.interval_end, p.times,
                ))
        push(base + (i << 2))
    order.extend(t[2] for t in timed[k:])
    order.extend(ed.at_end)
    return order, profiles


def _columns(col: ColumnarTrace, table: _Rows,
             rebuilt: list[tuple[list[int], list[tuple]]]) -> list[RankColumns]:
    """The derived ranks' columns, gathered in one pass over the whole
    trace from the original rows and the three tables of inserted ones."""
    ptp = np.frombuffer(array("q", table.ptp), dtype=np.int64).reshape(-1, _PTP_FIELDS)
    n_ptp, n_waits, n_pieces = len(ptp), len(table.waits), len(table.pieces)
    is_send = ptp[:, 0] == OP_ISEND
    blocks = [
        new_rows(n_ptp, ptp[:, 0],
                 rv=np.where(is_send, table.rendezvous, ROW_DEFAULTS["rv"]),
                 peer=ptp[:, 1], tag=ptp[:, 2], size=ptp[:, 3],
                 channel=CHANNEL_CHUNK, sub=ptp[:, 4], context=ptp[:, 5],
                 req=ptp[:, 6]),
        # An inserted Wait's aux is ``~j``: its request tuple is
        # table.waits[j]; an original Wait's aux indexes its rank's table.
        new_rows(n_waits, OP_WAIT, aux=-1 - np.arange(n_waits)),
        new_rows(n_pieces, OP_CPU, dur=table.pieces),
    ]
    ids = np.fromiter(chain.from_iterable(order for order, _ in rebuilt),
                      dtype=np.int64)
    # Each table's rows follow the original rows in one concatenation.
    first = np.cumsum([0, col.total_records(), n_ptp, n_waits])
    bounds = np.cumsum([0] + [len(order) for order, _ in rebuilt]).tolist()
    out = gather_rows(col, blocks, first[ids & 3] + (ids >> 2), bounds)
    for d, rc, (_, profiles) in zip(out, col.ranks, rebuilt):
        # Renumber the Waits into the derived rank's wait table.
        aux = np.frombuffer(d.aux, dtype=np.int64)
        w = np.flatnonzero(np.frombuffer(d.op, dtype=np.uint8) == OP_WAIT)
        d.waits = [rc.waits[x] if x >= 0 else table.waits[~x]
                   for x in aux[w].tolist()]
        aux[w] = np.arange(len(w))
        d.events = list(rc.events)
        d.colls = list(rc.colls)
        d.profiles = profiles
    return out


# --------------------------------------------------------------------------- #
# The transformation proper.
# --------------------------------------------------------------------------- #

@traced("transform.overlap")
@pause_collector
def overlap_transform(
    trace: TraceSet,
    config: OverlapConfig | None = None,
    **kwargs,
) -> tuple[ColumnarTrace, TransformStats]:
    """Rewrite an original trace into the overlapped-execution trace.

    Parameters may be given as an :class:`OverlapConfig` or as keyword
    arguments (``chunks=4, schedule="ideal", ...``).  Returns the new
    trace as a :class:`~repro.trace.columnar.ColumnarTrace` (its record
    objects through ``to_traceset()``) and a :class:`TransformStats`
    summary.  The input trace is not modified.

    The original must be a :class:`TraceSet`: its record objects carry
    the access profiles and buffer ids.  A trace that already holds
    chunked messages, in either form, raises :class:`ValueError`.

    The cyclic garbage collector is paused while the new trace is built
    and left as the caller had it (:mod:`repro.gcpause`): the
    transformation leaves no reference cycle behind.
    """
    if config is None:
        config = OverlapConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either an OverlapConfig or keyword arguments, not both")

    col = columnar_of(trace)
    for rc in col.ranks:
        op = np.frombuffer(rc.op, dtype=np.uint8)
        chunked = np.frombuffer(rc.channel, dtype=np.int64) == CHANNEL_CHUNK
        if np.any(chunked & (op >= OP_SEND) & (op <= OP_IRECV)):
            raise ValueError(
                "input trace already contains chunked messages; "
                "overlap_transform must run on an original trace"
            )
    if not isinstance(trace, TraceSet):
        raise TypeError(
            "overlap_transform reads the access profiles and buffer ids "
            "of the original's record objects: pass its TraceSet"
        )

    stats = TransformStats()
    pairs = match_messages(trace)
    stats.messages_total = len(pairs)

    ranks = [_Rank(proc, rc) for proc, rc in zip(trace.processes, col.ranks)]
    _stream_neighbors(col, ranks)
    # Chunk sends are eager under double buffering, else rendezvous.
    table = _Rows(rendezvous=int(not config.double_buffering))
    rows = table.ptp
    bases = np.cumsum([0] + [rc.n for rc in col.ranks]).tolist()
    edits = [_Edits(table, base) for base in bases[:-1]]

    double_buffering = config.double_buffering
    for pair in pairs:
        src, dst = pair.src, pair.dst
        si, ri = pair.send_index, pair.recv_index
        s, r = ranks[src], ranks[dst]

        # The point where the original reception *completed*: the Recv
        # record itself, or the Wait record of a non-blocking receive.
        # Chunk waits may never move before it — the original program
        # had no data before that point, and moving synchronization
        # earlier can deadlock the replay (e.g. the IRecv/Send/Waitall
        # halo idiom where posting, sends, and wait share one virtual
        # instant).
        complete_idx = ri
        recv_wait = None
        if r.rc.op[ri] == OP_IRECV:
            rreq = r.rc.req[ri]
            recv_wait = r.waits_of.get(rreq)
            if recv_wait is not None:
                complete_idx = recv_wait
        t_complete = r.starts[complete_idx]

        decision = _plan_message(pair, config, s, r, complete_idx, t_complete)
        if decision is None:
            continue
        plan, send_times, wait_times, ts = decision
        n = plan.nchunks
        stats.messages_transformed += 1
        stats.chunks_created += n
        advanced_before = ts - 1e-12
        postponed_after = t_complete + 1e-12
        stats.sends_advanced += sum([t < advanced_before for t in send_times])
        stats.waits_postponed += sum([t > postponed_after for t in wait_times])
        sizes = plan.sizes.tolist()
        sub0 = chunk_sub(pair.channel, pair.sub, 0)
        tag, context = pair.tag, pair.context
        se, re_ = edits[src], edits[dst]

        # ---- sender side ------------------------------------------------ #
        se.removed.add(si)
        if s.rc.op[si] == OP_ISEND:
            sreq = s.rc.req[si]
            wi = s.waits_of.get(sreq)
            if wi is not None:
                se.strip[wi].add(sreq)
        req0 = s.next_req + 1
        s.next_req += n
        here = se.before[si]
        rid = table.next_ptp()
        for c in range(n):
            rows.extend((OP_ISEND, dst, tag, sizes[c], sub0 + c, context,
                         req0 + c))
            # Only chunks with evidence of earlier production move; the
            # rest keep the original send's position in the stream (see
            # "Causality rules" above).
            if send_times[c] < ts - 1e-15:
                se.add_timed(send_times[c], rid + 4 * c)
            else:
                here.append(rid + 4 * c)
        waitall = table.wait(tuple(range(req0, req0 + n)))
        nsi = s.next_send_row.get(si)
        if double_buffering and nsi is not None:
            se.before[nsi].append(waitall)
        elif double_buffering:
            se.at_end.append(waitall)
        else:
            here.append(waitall)

        # ---- receiver side ------------------------------------------------ #
        re_.removed.add(ri)
        if recv_wait is not None:
            re_.strip[recv_wait].add(rreq)
        req0 = r.next_req + 1
        r.next_req += n
        rid = table.next_ptp()
        for c in range(n):
            rows.extend((OP_IRECV, src, tag, sizes[c], sub0 + c, context,
                         req0 + c))
        re_.before[ri].extend(range(rid, rid + 4 * n, 4))
        immediate_waits: list[int] = []
        for c in range(n):
            # Waits that cannot be postponed keep the original
            # completion point's position in the record stream
            # (index-anchored, after the IRecv postings and any sends in
            # between); only genuinely-postponed waits move by time.
            wid = table.wait((req0 + c,))
            if wait_times[c] <= t_complete + 1e-15:
                immediate_waits.append(wid)
            else:
                re_.add_timed(wait_times[c], wid)
        re_.before[complete_idx].extend(immediate_waits)

    new_ranks = _columns(col, table, [_rebuild(s, ed) for s, ed in zip(ranks, edits)])
    meta = dict(trace.meta)
    meta["overlap"] = {
        "chunks": config.chunks,
        "schedule": config.schedule,
        "advance_sends": config.advance_sends,
        "postpone_receptions": config.postpone_receptions,
        "double_buffering": config.double_buffering,
    }
    stats.skipped_no_profile = stats.messages_total - stats.messages_transformed - stats.skipped_zero_size
    reg = get_registry()
    reg.counter("transform.runs").inc()
    reg.counter("transform.messages_transformed").inc(stats.messages_transformed)
    reg.counter("transform.chunks_created").inc(stats.chunks_created)
    return (ColumnarTrace(new_ranks, list(col.names), list(col.collops), meta),
            stats)


def _minimum(x: float, bound: float) -> float:
    """``np.minimum(x, bound)`` on one float: NaN propagates, a tie
    returns ``bound``."""
    return x if not x >= bound else bound


def _plan_message(pair: MessagePair, config: OverlapConfig, s: _Rank,
                  r: _Rank, complete_idx: int, t_complete: float):
    """Decide chunk plan and schedules for one message.

    Returns ``(plan, send_times, wait_times, ts)`` or None when the
    message is left untouched.  The 1-4 chunk times are lists of
    Python floats, each computed with the IEEE operations, in the
    order, of the NumPy expression written beside it: at this size a
    NumPy call costs far more than its arithmetic.  Wait times are
    never before ``t_complete``.
    """
    if pair.size <= 0:
        return None
    if pair.channel != 0 and not config.transform_collectives:
        return None

    ts = s.starts[pair.send_index]
    production = s.records[pair.send_index].production
    consumption = r.records[pair.recv_index].consumption

    elements = None
    if production is not None:
        elements = len(production.times)
    if consumption is not None:
        if elements is None:
            elements = len(consumption.times)
        elif len(consumption.times) != elements:
            consumption = None  # inconsistent view; trust the sender
    if elements is None:
        if config.schedule == "ideal":
            # No profile: fall back to the element count recorded off the
            # MPI call (a one-element reduction stays unchunkable, paper
            # Table II note on Alya), then to byte granularity.
            elements = s.rc.elements[pair.send_index]
            if elements <= 0:
                elements = pair.size
        else:
            return None
    if elements <= 0:
        return None

    plan = plan_chunks(pair.size, elements, config.chunks_for(pair.size))
    n = plan.nchunks

    # -- sender schedule ------------------------------------------------------
    if not config.advance_sends:
        send_times = [ts] * n
    elif config.schedule == "ideal":
        # Uniform production through the production interval (previous
        # send of the buffer -> this send), never before the buffer's
        # own data arrived (forwarded buffers), falling back to the
        # adjacent compute region when no profile exists.
        if production is not None:
            p_start = production.interval_start
        else:
            p_start = s.region_start(pair.send_index)
        p_start = max(p_start, s.prev_recv.get(pair.send_index, 0.0))
        span = max(ts - p_start, 0.0)
        # np.minimum(ts - span + (np.arange(1, n + 1) / n) * span, ts)
        base = ts - span
        send_times = [_minimum(base + (c / n) * span, ts) for c in range(1, n + 1)]
    elif production is not None:
        # np.minimum(np.where(np.isnan(ready), ts, ready), ts)
        ready = chunk_ready_times(production, plan).tolist()
        send_times = [ts if t != t else _minimum(t, ts) for t in ready]
    else:
        send_times = [ts] * n

    # -- receiver schedule ------------------------------------------------------
    if not config.postpone_receptions:
        wait_times = [t_complete] * n
    else:
        t_next = r.next_recv_time[pair.recv_index]
        t_fwd = r.next_send.get(pair.recv_index, math.inf)
        upper = max(min(t_next, t_fwd), t_complete)
        if config.schedule == "ideal":
            # Uniform consumption through the consumption interval (this
            # receive -> next receive of the buffer), never past the
            # point where the buffer is forwarded, falling back to the
            # adjacent compute region when no profile exists.
            if consumption is not None:
                c_end = consumption.interval_end
            else:
                c_end = r.region_end(complete_idx)
            c_end = min(c_end, t_fwd)
            span = max(c_end - t_complete, 0.0)
            # np.clip(t_complete + (np.arange(n) / n) * span, t_complete, upper)
            wait_times = [_clip(t_complete + (c / n) * span, t_complete, upper)
                          for c in range(n)]
        elif consumption is not None:
            # np.clip(np.where(np.isnan(needed), end, needed), t_complete, upper)
            needed = chunk_needed_times(consumption, plan).tolist()
            end = consumption.interval_end
            wait_times = [_clip(end if t != t else t, t_complete, upper)
                          for t in needed]
        else:
            wait_times = [t_complete] * n

    if any(t != t for t in send_times) or any(t != t for t in wait_times):
        return None
    return plan, send_times, wait_times, ts
