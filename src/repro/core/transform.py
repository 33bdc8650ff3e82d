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
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace

import numpy as np

from ..gcpause import pause_collector
from ..obs import get_registry, traced
from ..trace.records import (
    CHANNEL_CHUNK,
    CpuBurst,
    Event as EventRec,
    IRecv,
    ISend,
    ProcessTrace,
    Recv,
    Record,
    Send,
    TraceSet,
    Wait,
)
from .chunking import (
    DEFAULT_CHUNKS,
    chunk_needed_times,
    chunk_ready_times,
    plan_chunks,
)
from ..trace.columnar import columnar_of
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
# Per-rank edit script.
# --------------------------------------------------------------------------- #

@dataclass
class _Edits:
    removed: set[int] = field(default_factory=set)
    before_index: dict[int, list[Record]] = field(default_factory=lambda: defaultdict(list))
    timed: list[tuple[float, int, Record]] = field(default_factory=list)
    at_end: list[Record] = field(default_factory=list)
    wait_strip: dict[int, set[int]] = field(default_factory=lambda: defaultdict(set))
    _seq: int = 0

    def add_timed(self, t: float, rec: Record) -> None:
        self.timed.append((t, self._seq, rec))
        self._seq += 1


def _rebuild(proc: ProcessTrace, edits: _Edits) -> ProcessTrace:
    """Apply an edit script, splitting CPU bursts at timed insertions.

    Burst pieces shorter than 1e-15 s are dropped at split points, so
    total compute is preserved up to one femtosecond per insertion —
    negligible against microsecond-scale bursts, and bounded for tests.
    """
    starts = proc.virtual_starts()
    timed = sorted(edits.timed, key=lambda x: (x[0], x[1]))
    k = 0
    out: list[Record] = []

    for i, rec in enumerate(proc.records):
        t0, t1 = starts[i], starts[i + 1]
        if isinstance(rec, CpuBurst):
            cur = t0
            while k < len(timed) and timed[k][0] < t1 - 1e-15:
                tt = max(timed[k][0], cur)
                if tt > cur + 1e-15:
                    out.append(CpuBurst(tt - cur))
                cur = tt
                out.append(timed[k][2])
                k += 1
            if t1 > cur + 1e-15:
                out.append(CpuBurst(t1 - cur))
            continue
        # Non-burst record: flush timed insertions due up to its time.
        while k < len(timed) and timed[k][0] <= t0 + 1e-15:
            out.append(timed[k][2])
            k += 1
        out.extend(edits.before_index.get(i, ()))
        if i in edits.removed:
            continue
        if isinstance(rec, Wait) and i in edits.wait_strip:
            kept = tuple(q for q in rec.requests if q not in edits.wait_strip[i])
            if kept:
                out.append(Wait(kept, meta=dict(rec.meta)))
            continue
        out.append(replace(rec))

    while k < len(timed):
        out.append(timed[k][2])
        k += 1
    out.extend(edits.at_end)
    return ProcessTrace(proc.rank, out)


# --------------------------------------------------------------------------- #
# Stream context: previous/next records on the same matching key.
# --------------------------------------------------------------------------- #

def _compute_regions(trace: TraceSet) -> list[tuple]:
    """Per rank: for every record, the virtual-time bounds of the
    contiguous computation region around it.

    ``region_prev[i]`` is the virtual time of the nearest non-burst,
    non-event record strictly before ``i`` (0.0 at the stream head);
    ``region_next[i]`` the nearest one strictly after (trace end at the
    tail).  These bound how far the ideal schedule may spread chunk
    events without crossing a communication dependency.
    """
    out = []
    for proc in trace:
        starts = proc.virtual_starts()
        n = len(proc.records)
        prev = np.zeros(n)
        nxt = np.full(n, proc.virtual_duration)
        last = 0.0
        for i, rec in enumerate(proc.records):
            prev[i] = last
            if not isinstance(rec, (CpuBurst, EventRec)):
                last = starts[i]
        upcoming = proc.virtual_duration
        for i in range(n - 1, -1, -1):
            nxt[i] = upcoming
            if not isinstance(proc.records[i], (CpuBurst, EventRec)):
                upcoming = starts[i]
        out.append((prev, nxt))
    return out


def _buffer_lifecycle(trace: TraceSet):
    """Buffer-identity causality bounds (from the ``buf`` record meta).

    For every send record: the virtual time of the last receive into
    the same buffer before it (data arrival — an ideal-schedule send of
    that buffer cannot move before it).  For every receive record: the
    virtual time of the next send of the same buffer after it (the
    forward point — a postponed wait cannot move past it).
    """
    prev_recv: dict[tuple[int, int], float] = {}
    next_send: dict[tuple[int, int], float] = {}
    for proc in trace:
        starts = proc.virtual_starts()
        seen_recv: dict[int, float] = {}
        for i, rec in enumerate(proc.records):
            buf = rec.meta.get("buf") if isinstance(rec, (Send, ISend, Recv, IRecv)) else None
            if buf is None:
                continue
            if isinstance(rec, (Send, ISend)):
                prev_recv[(proc.rank, i)] = seen_recv.get(buf, 0.0)
            else:
                seen_recv[buf] = float(starts[i])
        upcoming: dict[int, float] = {}
        for i in range(len(proc.records) - 1, -1, -1):
            rec = proc.records[i]
            buf = rec.meta.get("buf") if isinstance(rec, (Send, ISend, Recv, IRecv)) else None
            if buf is None:
                continue
            if isinstance(rec, (Recv, IRecv)):
                next_send[(proc.rank, i)] = upcoming.get(buf, math.inf)
            else:
                upcoming[buf] = float(starts[i])
    return prev_recv, next_send


def _stream_neighbors(trace: TraceSet):
    """Per matching key, each message's successor on that key: for every
    send ``(rank, index)`` the index of the next send (None at the
    stream's end), for every receive the virtual time of the next
    receive (the rank's end at the tail)."""
    next_send_index: dict[tuple[int, int], int | None] = {}
    next_recv_time: dict[tuple[int, int], float] = {}
    by_key = match_columnar(columnar_of(trace)).by_key()
    for (src, dst, *_), _, _, pairs in by_key:
        starts = trace[dst].virtual_starts()
        for p, nxt in zip(pairs, pairs[1:] + [None]):
            if nxt is None:
                next_send_index[(src, p.send_index)] = None
                next_recv_time[(dst, p.recv_index)] = trace[dst].virtual_duration
            else:
                next_send_index[(src, p.send_index)] = nxt.send_index
                next_recv_time[(dst, p.recv_index)] = starts[nxt.recv_index]
    return next_send_index, next_recv_time


# --------------------------------------------------------------------------- #
# The transformation proper.
# --------------------------------------------------------------------------- #

@traced("transform.overlap")
@pause_collector
def overlap_transform(
    trace: TraceSet,
    config: OverlapConfig | None = None,
    **kwargs,
) -> tuple[TraceSet, TransformStats]:
    """Rewrite an original trace into the overlapped-execution trace.

    Parameters may be given as an :class:`OverlapConfig` or as keyword
    arguments (``chunks=4, schedule="ideal", ...``).  Returns the new
    :class:`TraceSet` and a :class:`TransformStats` summary.  The input
    trace is not modified.

    The cyclic garbage collector is paused while the new trace is built
    and left as the caller had it (:mod:`repro.gcpause`): the
    transformation leaves no reference cycle behind.
    """
    if config is None:
        config = OverlapConfig(**kwargs)
    elif kwargs:
        raise TypeError("pass either an OverlapConfig or keyword arguments, not both")

    for proc in trace:
        for rec in proc.records:
            if isinstance(rec, (Send, ISend, Recv, IRecv)) and rec.channel == CHANNEL_CHUNK:
                raise ValueError(
                    "input trace already contains chunked messages; "
                    "overlap_transform must run on an original trace"
                )

    stats = TransformStats()
    pairs = match_messages(trace)
    stats.messages_total = len(pairs)

    next_send_i, next_recv_t = _stream_neighbors(trace)
    regions = _compute_regions(trace)
    lifecycle = _buffer_lifecycle(trace)

    edits = [_Edits() for _ in range(trace.nranks)]
    req_counter = [_max_request_id(p) + 1 for p in trace.processes]

    def new_req(rank: int) -> int:
        req_counter[rank] += 1
        return req_counter[rank]

    # Map (rank, wait-record-index) for request -> Wait position lookup.
    wait_of_request = _index_waits(trace)

    for pair in pairs:
        sproc, rproc = trace[pair.src], trace[pair.dst]
        srec = sproc.records[pair.send_index]
        rrec = rproc.records[pair.recv_index]

        # The point where the original reception *completed*: the Recv
        # record itself, or the Wait record of a non-blocking receive.
        # Chunk waits may never move before it — the original program
        # had no data before that point, and moving synchronization
        # earlier can deadlock the replay (e.g. the IRecv/Send/Waitall
        # halo idiom where posting, sends, and wait share one virtual
        # instant).
        complete_idx = pair.recv_index
        if isinstance(rrec, IRecv):
            wi = wait_of_request.get((pair.dst, rrec.request))
            if wi is not None:
                complete_idx = wi
        t_complete = float(rproc.virtual_starts()[complete_idx])

        decision = _plan_message(
            trace, pair, config, regions, next_recv_t, complete_idx, t_complete,
            lifecycle,
        )
        if decision is None:
            continue
        plan, send_times, wait_times, ts = decision
        stats.messages_transformed += 1
        stats.chunks_created += plan.nchunks
        advanced_before = ts - 1e-12
        postponed_after = t_complete + 1e-12
        stats.sends_advanced += sum(t < advanced_before for t in send_times)
        stats.waits_postponed += sum(t > postponed_after for t in wait_times)
        sizes = plan.sizes.tolist()

        se, re_ = edits[pair.src], edits[pair.dst]

        # ---- sender side ------------------------------------------------ #
        se.removed.add(pair.send_index)
        if isinstance(srec, ISend):
            wi = wait_of_request.get((pair.src, srec.request))
            if wi is not None:
                se.wait_strip[wi].add(srec.request)
        chunk_reqs: list[int] = []
        for c in range(plan.nchunks):
            req = new_req(pair.src)
            chunk_reqs.append(req)
            isend = ISend(
                peer=pair.dst, tag=pair.tag, size=sizes[c],
                channel=CHANNEL_CHUNK, sub=chunk_sub(pair.channel, pair.sub, c),
                context=pair.context, request=req,
                rendezvous=not config.double_buffering,
            )
            # Only chunks with evidence of earlier production move; the
            # rest keep the original send's position in the stream (see
            # "Causality rules" above).
            if send_times[c] < ts - 1e-15:
                se.add_timed(float(send_times[c]), isend)
            else:
                se.before_index[pair.send_index].append(isend)
        waitall = Wait(tuple(chunk_reqs))
        nsi = next_send_i.get((pair.src, pair.send_index))
        if config.double_buffering and nsi is not None:
            se.before_index[nsi].append(waitall)
        elif config.double_buffering:
            se.at_end.append(waitall)
        else:
            se.before_index[pair.send_index].append(waitall)

        # ---- receiver side ------------------------------------------------ #
        re_.removed.add(pair.recv_index)
        if isinstance(rrec, IRecv):
            wi = wait_of_request.get((pair.dst, rrec.request))
            if wi is not None:
                re_.wait_strip[wi].add(rrec.request)
        immediate_waits: list[Record] = []
        for c in range(plan.nchunks):
            req = new_req(pair.dst)
            re_.before_index[pair.recv_index].append(
                IRecv(
                    peer=pair.src, tag=pair.tag, size=sizes[c],
                    channel=CHANNEL_CHUNK, sub=chunk_sub(pair.channel, pair.sub, c),
                    context=pair.context, request=req,
                )
            )
            # Waits that cannot be postponed keep the original
            # completion point's position in the record stream
            # (index-anchored, after the IRecv postings and any sends in
            # between); only genuinely-postponed waits move by time.
            if wait_times[c] <= t_complete + 1e-15:
                immediate_waits.append(Wait((req,)))
            else:
                re_.add_timed(float(wait_times[c]), Wait((req,)))
        re_.before_index[complete_idx].extend(immediate_waits)

    new_procs = [_rebuild(trace[r], edits[r]) for r in range(trace.nranks)]
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
    return TraceSet(new_procs, meta=meta), stats


def _max_request_id(proc: ProcessTrace) -> int:
    mx = 0
    for rec in proc.records:
        if isinstance(rec, (ISend, IRecv)):
            mx = max(mx, rec.request)
    return mx


def _index_waits(trace: TraceSet) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for proc in trace:
        for i, rec in enumerate(proc.records):
            if isinstance(rec, Wait):
                for req in rec.requests:
                    out[(proc.rank, req)] = i
    return out


def _minimum(x: float, bound: float) -> float:
    """``np.minimum(x, bound)`` on one float: NaN propagates, a tie
    returns ``bound``."""
    return x if not x >= bound else bound


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip(x, lo, hi)`` on one float (``lo <= hi``): NaN
    propagates, a tie keeps ``x``."""
    return lo if x < lo else hi if x > hi else x


def _plan_message(trace, pair: MessagePair, config: OverlapConfig,
                  regions, next_recv_t, complete_idx: int, t_complete: float,
                  lifecycle):
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

    sproc, rproc = trace[pair.src], trace[pair.dst]
    srec = sproc.records[pair.send_index]
    rrec = rproc.records[pair.recv_index]
    ts = float(sproc.virtual_starts()[pair.send_index])

    production = srec.production
    consumption = rrec.consumption

    elements = None
    if production is not None:
        elements = production.elements
    if consumption is not None:
        if elements is None:
            elements = consumption.elements
        elif consumption.elements != elements:
            consumption = None  # inconsistent view; trust the sender
    if elements is None:
        if config.schedule == "ideal":
            # No profile: fall back to the element count recorded off the
            # MPI call (a one-element reduction stays unchunkable, paper
            # Table II note on Alya), then to byte granularity.
            elements = srec.elements if srec.elements > 0 else pair.size
        else:
            return None
    if elements <= 0:
        return None

    plan = plan_chunks(pair.size, elements, config.chunks_for(pair.size))
    n = plan.nchunks

    # -- sender schedule ------------------------------------------------------
    prev_recv_of_buf, next_send_of_buf = lifecycle
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
            p_start = float(regions[pair.src][0][pair.send_index])
        p_start = max(p_start, prev_recv_of_buf.get((pair.src, pair.send_index), 0.0))
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
        t_next = next_recv_t[(pair.dst, pair.recv_index)]
        t_fwd = next_send_of_buf.get((pair.dst, pair.recv_index), math.inf)
        upper = float(max(min(t_next, t_fwd), t_complete))
        if config.schedule == "ideal":
            # Uniform consumption through the consumption interval (this
            # receive -> next receive of the buffer), never past the
            # point where the buffer is forwarded, falling back to the
            # adjacent compute region when no profile exists.
            if consumption is not None:
                c_end = consumption.interval_end
            else:
                c_end = float(regions[pair.dst][1][complete_idx])
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
