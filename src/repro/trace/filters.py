"""Trace slicing, projection, and normalization utilities.

Analysis often wants a *piece* of a trace: the first five iterations
(paper Figure 4), a subset of ranks, or a normalized record stream
after transformation.  These utilities cut trace sets while repairing
the structural invariants the cut breaks (unmatched messages, dangling
requests), so the result still validates and replays.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace as dc_replace

from ..core.matching import match_columnar
from .columnar import columnar_of
from .records import (
    CpuBurst,
    Event,
    GlobalOp,
    IRecv,
    ISend,
    ProcessTrace,
    Recv,
    Record,
    Send,
    TraceSet,
    Wait,
)

__all__ = [
    "merge_bursts",
    "repair",
    "select_ranks",
    "slice_iterations",
    "trace_stats",
]


def merge_bursts(trace: TraceSet, min_gap: float = 0.0) -> TraceSet:
    """Coalesce adjacent CpuBurst records (normalization).

    The overlap transformation splits bursts at chunk boundaries; for
    size/entropy comparisons it is convenient to re-merge them.  The
    instruction counts are summed when both sides carry them.
    """
    procs = []
    for proc in trace:
        out: list[Record] = []
        for rec in proc:
            if (
                isinstance(rec, CpuBurst)
                and out
                and isinstance(out[-1], CpuBurst)
            ):
                prev = out[-1]
                instr = (
                    prev.instructions + rec.instructions
                    if prev.instructions is not None and rec.instructions is not None
                    else None
                )
                out[-1] = CpuBurst(prev.duration + rec.duration, instructions=instr)
            else:
                out.append(dc_replace(rec))
        procs.append(ProcessTrace(proc.rank, out))
    return TraceSet(procs, meta=dict(trace.meta))


def repair(trace: TraceSet) -> TraceSet:
    """Restore structural invariants after an arbitrary cut.

    * keeps exactly the sends/receives the matcher pairs
      (:func:`repro.core.matching.match_columnar`);
    * drops non-blocking records whose Wait was cut, and strips waited
      requests whose posting was cut;
    * drops collective records that not all ranks retain.

    Dropping one record can orphan another (a dangling non-blocking
    send takes its partner's receive with it), so the pass iterates to
    a fixpoint.
    """
    out = _repair_once(trace)
    while out.total_records() != trace.total_records():
        trace, out = out, _repair_once(out)
    return out


def _repair_once(trace: TraceSet) -> TraceSet:
    paired: list[set[int]] = [set() for _ in range(trace.nranks)]
    for p in match_columnar(columnar_of(trace)).pairs:
        paired[p.src].add(p.send_index)
        paired[p.dst].add(p.recv_index)
    coll_count: dict[int, int] = defaultdict(int)
    for proc in trace:
        for rec in proc:
            if isinstance(rec, GlobalOp):
                coll_count[rec.seq] += 1
    keep_coll = {seq for seq, n in coll_count.items() if n == trace.nranks}

    procs = []
    for proc in trace:
        posted: set[int] = set()
        out: list[Record] = []
        for i, rec in enumerate(proc):
            if isinstance(rec, (Send, ISend, Recv, IRecv)):
                if i not in paired[proc.rank]:
                    continue
                if isinstance(rec, (ISend, IRecv)):
                    posted.add(rec.request)
            elif isinstance(rec, Wait):
                kept = tuple(q for q in rec.requests if q in posted)
                posted.difference_update(kept)
                if not kept:
                    continue
                rec = Wait(kept, meta=dict(rec.meta))
            elif isinstance(rec, GlobalOp) and rec.seq not in keep_coll:
                continue
            out.append(dc_replace(rec) if not isinstance(rec, Wait) else rec)
        # Drop dangling requests entirely: remove posted-but-unwaited.
        if posted:
            out = [
                r for r in out
                if not (isinstance(r, (ISend, IRecv)) and r.request in posted)
            ]
        procs.append(ProcessTrace(proc.rank, out))
    return TraceSet(procs, meta=dict(trace.meta))


def slice_iterations(
    trace: TraceSet,
    first: int,
    count: int,
    name: str = "iteration",
) -> TraceSet:
    """Cut iterations ``first .. first+count-1`` out of every rank.

    Boundaries come from the applications' iteration events; the result
    is repaired so it validates and replays on its own (messages that
    crossed the cut are dropped on both sides).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    procs = []
    for proc in trace:
        out: list[Record] = []
        keeping = False
        seen_any = False
        for rec in proc:
            if isinstance(rec, Event) and rec.name == name:
                keeping = first <= rec.value < first + count
                seen_any = seen_any or keeping
            if keeping:
                out.append(rec)
        if not seen_any:
            # Rank without iteration markers: keep nothing (repair will
            # drop its partners' halves too).
            out = []
        procs.append(ProcessTrace(proc.rank, out))
    cut = TraceSet(procs, meta={**trace.meta, "slice": (first, count)})
    return repair(cut)


def select_ranks(trace: TraceSet, ranks: list[int]) -> TraceSet:
    """Project the trace onto a rank subset (renumbered densely).

    Messages to/from dropped ranks are removed (with their waits) by
    :func:`repair`; collectives are dropped entirely (they involved the
    full communicator).
    """
    keep = sorted(set(ranks))
    if not keep:
        raise ValueError("need at least one rank")
    if keep[0] < 0 or keep[-1] >= trace.nranks:
        raise ValueError(f"ranks out of range [0, {trace.nranks})")
    renum = {old: new for new, old in enumerate(keep)}

    procs = []
    for old in keep:
        out: list[Record] = []
        for rec in trace[old]:
            if isinstance(rec, GlobalOp):
                continue
            if isinstance(rec, (Send, ISend, Recv, IRecv)):
                if rec.peer not in renum:
                    continue
                rec = dc_replace(rec, peer=renum[rec.peer])
            else:
                rec = dc_replace(rec)
            out.append(rec)
        procs.append(ProcessTrace(renum[old], out))
    cut = TraceSet(procs, meta={**trace.meta, "ranks": keep})
    return repair(cut)


def trace_stats(trace: TraceSet) -> dict:
    """Summary statistics of a trace (record mix, bytes, channels)."""
    kinds: dict[str, int] = defaultdict(int)
    bytes_per_channel: dict[int, int] = defaultdict(int)
    messages = 0
    for proc in trace:
        for rec in proc:
            kinds[type(rec).__name__] += 1
            if isinstance(rec, (Send, ISend)):
                messages += 1
                bytes_per_channel[rec.channel] += rec.size
    return {
        "nranks": trace.nranks,
        "records": trace.total_records(),
        "record_kinds": dict(kinds),
        "messages": messages,
        "bytes_per_channel": dict(bytes_per_channel),
        "virtual_compute_seconds": trace.total_virtual_compute(),
    }
