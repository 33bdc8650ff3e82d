"""Static send/receive matching over recorded traces.

The overlap transformation rewrites *both* endpoints of every message
(the sender's chunked transmissions must agree with the receiver's
chunked receptions), so it first needs to know which receive record
each send record pairs with.  Matching replays MPI's non-overtaking
rule offline: records with the same key ``(src, dst, channel, tag,
sub)`` match in record order — the same discipline the runtime matcher
(:mod:`repro.smpi.matching`) and the replay simulator use, so all
three stages agree on pairings.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass

from ..trace.records import IRecv, ISend, Recv, Send, TraceSet

__all__ = [
    "MessagePair",
    "match_columnar",
    "match_messages",
    "match_messages_lenient",
    "UnmatchedMessageError",
]


class UnmatchedMessageError(ValueError):
    """A send or receive record has no partner (malformed trace)."""


@dataclass(frozen=True)
class MessagePair:
    """One matched point-to-point message.

    Record indices refer to positions in the respective rank's record
    list of the trace the matching ran on.
    """

    src: int
    send_index: int
    dst: int
    recv_index: int
    size: int
    channel: int
    tag: int
    sub: int
    context: int = 0

    @property
    def key(self) -> tuple:
        return (self.src, self.dst, self.context, self.channel, self.tag,
                self.sub)


def match_messages(trace: TraceSet, strict: bool = True) -> list[MessagePair]:
    """Pair every send record with its receive record.

    Returns pairs ordered by (src, send_index).  With ``strict=True``
    (default) raises :class:`UnmatchedMessageError` if any record is
    left unpaired; otherwise unpaired records are silently dropped
    (useful for partial traces).
    """
    pairs, leftovers = match_messages_lenient(trace)
    if leftovers and strict:
        raise UnmatchedMessageError(
            "unmatched point-to-point records:\n" + "\n".join(leftovers[:10])
        )
    return pairs


def match_messages_lenient(trace: TraceSet) -> tuple[list[MessagePair], list[str]]:
    """Pair what can be paired; describe what cannot.

    Returns ``(pairs, leftovers)`` where ``leftovers`` lists every
    matching key with mismatched send/receive counts.  The replay
    simulator uses this on malformed traces so a dropped or corrupted
    record surfaces as a *diagnosable deadlock* (the orphaned endpoint
    blocks forever and the post-mortem names it) instead of an abort
    before the replay even starts.
    """
    sends: dict[tuple, deque] = defaultdict(deque)
    recvs: dict[tuple, deque] = defaultdict(deque)

    for proc in trace:
        for i, rec in enumerate(proc.records):
            if isinstance(rec, (Send, ISend)):
                key = (proc.rank, rec.peer, rec.context, rec.channel,
                       rec.tag, rec.sub)
                sends[key].append((i, rec))
            elif isinstance(rec, (Recv, IRecv)):
                key = (rec.peer, proc.rank, rec.context, rec.channel,
                       rec.tag, rec.sub)
                recvs[key].append((i, rec))

    pairs: list[MessagePair] = []
    leftovers: list[str] = []
    for key in sorted(set(sends) | set(recvs)):
        s, r = sends.get(key, deque()), recvs.get(key, deque())
        for (si, srec), (ri, _rrec) in zip(s, r):
            pairs.append(
                MessagePair(
                    src=key[0], send_index=si, dst=key[1], recv_index=ri,
                    size=srec.size, context=key[2], channel=key[3],
                    tag=key[4], sub=key[5],
                )
            )
        if len(s) != len(r):
            leftovers.append(
                f"src={key[0]} dst={key[1]} context={key[2]} channel={key[3]} "
                f"tag={key[4]} sub={key[5]}: {len(s)} send(s) vs {len(r)} recv(s)"
            )

    pairs.sort(key=lambda p: (p.src, p.send_index))
    return pairs, leftovers


def match_columnar(col) -> tuple[list[MessagePair], list[str]]:
    """:func:`match_messages_lenient` over a packed columnar trace.

    Walks the int columns of a
    :class:`~repro.trace.columnar.ColumnarTrace` directly — no record
    objects, no attribute dispatch — and produces the *identical*
    ``(pairs, leftovers)`` output: same :class:`MessagePair` values in
    the same order, same leftover description strings.  This is the
    matcher of the replay hot path; the record-object variants above
    remain the matchers of the transformation stage.
    """
    from ..trace.columnar import OP_IRECV, OP_ISEND, OP_RECV, OP_SEND

    sends: dict[tuple, deque] = defaultdict(deque)
    recvs: dict[tuple, deque] = defaultdict(deque)

    for rank, rc in enumerate(col.ranks):
        op = rc.op
        peer, tag, sub = rc.peer, rc.tag, rc.sub
        channel, context, size = rc.channel, rc.context, rc.size
        for i in range(rc.n):
            o = op[i]
            if o == OP_SEND or o == OP_ISEND:
                key = (rank, peer[i], context[i], channel[i], tag[i], sub[i])
                sends[key].append((i, size[i]))
            elif o == OP_RECV or o == OP_IRECV:
                key = (peer[i], rank, context[i], channel[i], tag[i], sub[i])
                recvs[key].append(i)

    pairs: list[MessagePair] = []
    leftovers: list[str] = []
    empty: deque = deque()
    for key in sorted(set(sends) | set(recvs)):
        s, r = sends.get(key, empty), recvs.get(key, empty)
        for (si, ssize), ri in zip(s, r):
            pairs.append(
                MessagePair(
                    src=key[0], send_index=si, dst=key[1], recv_index=ri,
                    size=ssize, context=key[2], channel=key[3],
                    tag=key[4], sub=key[5],
                )
            )
        if len(s) != len(r):
            leftovers.append(
                f"src={key[0]} dst={key[1]} context={key[2]} channel={key[3]} "
                f"tag={key[4]} sub={key[5]}: {len(s)} send(s) vs {len(r)} recv(s)"
            )

    pairs.sort(key=lambda p: (p.src, p.send_index))
    return pairs, leftovers
