"""Static send/receive matching: the one pairing rule of the pipeline.

The overlap transformation rewrites *both* endpoints of every message
(the sender's chunked transmissions must agree with the receiver's
chunked receptions), so it first needs to know which receive record
each send record pairs with — and tracer validation, certification and
the replay simulator must agree with it.  All of them ask
:func:`match_columnar`, which replays MPI's non-overtaking rule
offline: records with the same key ``(src, dst, context, channel, tag,
sub)`` match in record order, the discipline the runtime matcher
(:mod:`repro.smpi.matching`) applies while tracing.

The walk reads the int columns of a
:class:`~repro.trace.columnar.ColumnarTrace`, and its :class:`Matching`
is kept on that trace the way its content digest is: a trace is paired
once, however many stages ask.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, NamedTuple

from ..trace.columnar import (
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    ColumnarTrace,
    columnar_of,
)
from ..trace.records import TraceSet

__all__ = [
    "Matching",
    "MessagePair",
    "match_columnar",
    "match_messages",
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


class Matching(NamedTuple):
    """The pairing of one trace (shared by every caller: read-only).

    ``pairs`` holds every matched message ordered by ``(src,
    send_index)``; ``counts`` maps every matching key, in sorted order,
    to its ``(sends, recvs)`` record counts.  A key whose counts differ
    left its surplus records unpaired.
    """

    pairs: tuple[MessagePair, ...]
    counts: dict[tuple, tuple[int, int]]

    def leftovers(self) -> list[str]:
        """One description per key with mismatched send/receive counts."""
        return [
            f"src={k[0]} dst={k[1]} context={k[2]} channel={k[3]} "
            f"tag={k[4]} sub={k[5]}: {s} send(s) vs {r} recv(s)"
            for k, (s, r) in self.counts.items() if s != r
        ]

    def by_key(self) -> Iterator[tuple[tuple, int, int, list[MessagePair]]]:
        """``(key, sends, recvs, the key's pairs in record order)`` per key,
        in key order."""
        # Stable: within a key, pairs keep their record order.
        pairs = sorted(self.pairs, key=attrgetter("key"))
        start = 0
        for key, (sends, recvs) in self.counts.items():
            stop = start + min(sends, recvs)
            yield key, sends, recvs, pairs[start:stop]
            start = stop


def match_messages(trace: TraceSet, strict: bool = True) -> list[MessagePair]:
    """Pair every send record with its receive record.

    The front of :func:`match_columnar` for the transformation stage.
    Returns pairs ordered by (src, send_index).  With ``strict=True``
    (default) raises :class:`UnmatchedMessageError` if any record is
    left unpaired; otherwise unpaired records are silently dropped
    (useful for partial traces).
    """
    matching = match_columnar(columnar_of(trace))
    leftovers = matching.leftovers()
    if leftovers and strict:
        raise UnmatchedMessageError(
            "unmatched point-to-point records:\n" + "\n".join(leftovers[:10])
        )
    return list(matching.pairs)


def match_columnar(col: ColumnarTrace) -> Matching:
    """The :class:`Matching` of a packed columnar trace, paired once.

    A malformed trace keeps the pairs it has: the replay then diagnoses
    the orphaned endpoint as a deadlock instead of aborting before it
    starts, and validation reports the key's counts.
    """
    if col._matching is None:
        col._matching = _pair(col)
    return col._matching


def _pair(col: ColumnarTrace) -> Matching:
    """Group send and receive records by matching key; pair in order."""
    sends: dict[tuple, list] = defaultdict(list)
    recvs: dict[tuple, list] = defaultdict(list)

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
    counts: dict[tuple, tuple[int, int]] = {}
    empty: list = []
    for key in sorted(sends.keys() | recvs.keys()):
        s, r = sends.get(key, empty), recvs.get(key, empty)
        counts[key] = (len(s), len(r))
        for (si, ssize), ri in zip(s, r):
            pairs.append(
                MessagePair(
                    src=key[0], send_index=si, dst=key[1], recv_index=ri,
                    size=ssize, context=key[2], channel=key[3],
                    tag=key[4], sub=key[5],
                )
            )

    pairs.sort(key=lambda p: (p.src, p.send_index))
    return Matching(tuple(pairs), counts)
