"""MPI message matching for the simulated runtime.

Implements the MPI point-to-point matching rules:

* messages between a given (source, destination) pair on the same
  (channel, tag) match in posting order (non-overtaking);
* ``ANY_SOURCE`` / ``ANY_TAG`` receives match the pending message with
  the lowest global arrival sequence number, which makes wildcard
  matching deterministic under the baton scheduler.

Pending sends and receives are kept in buckets keyed by ``(dst,
context, channel, sub)``, each in posting order.  Two compatible
entries always share that key (only source and tag take wildcards), so
the first compatible entry of a bucket is the first compatible entry
of the whole board.

Payloads are copied on send (value semantics, like a real eager
protocol buffer), so a sender may immediately reuse its buffer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["ANY_SOURCE", "ANY_TAG", "Envelope", "MessageBoard"]

#: Wildcard source rank for receives.
ANY_SOURCE = -1
#: Wildcard tag for receives.
ANY_TAG = -1


def _freeze(payload: Any) -> Any:
    """Copy a payload with value semantics (ndarray fast path)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    if isinstance(payload, (int, float, complex, str, bytes, bool, type(None))):
        return payload
    return copy.deepcopy(payload)


@dataclass
class Envelope:
    """A message in flight: matching key, payload, and arrival order."""

    src: int
    dst: int
    tag: int
    channel: int
    sub: int
    payload: Any
    seq: int
    size: int
    elements: int
    context: int = 0


@dataclass
class _PendingRecv:
    dst: int
    src: int        # may be ANY_SOURCE
    tag: int        # may be ANY_TAG
    channel: int
    sub: int
    seq: int
    context: int = 0
    matched: Envelope | None = None


class MessageBoard:
    """Global store of in-flight messages and posted receives."""

    def __init__(self) -> None:
        #: ``(dst, context, channel, sub)`` -> pending entries, oldest first.
        self._pending_sends: dict[tuple, list[Envelope]] = {}
        self._pending_recvs: dict[tuple, list[_PendingRecv]] = {}
        self._seq = 0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- send side ---------------------------------------------------------
    def post_send(
        self, src: int, dst: int, tag: int, payload: Any,
        channel: int = 0, sub: int = 0, size: int = 0, elements: int = 1,
        context: int = 0,
    ) -> Envelope:
        """Buffer an outgoing message and try to satisfy a posted receive."""
        env = Envelope(
            src=src, dst=dst, tag=tag, channel=channel, sub=sub,
            payload=_freeze(payload), seq=self._next_seq(),
            size=size, elements=elements, context=context,
        )
        # Non-overtaking: a posted receive can only take this message if
        # no earlier unmatched message also matches it; since receives
        # scan pending sends in seq order on their side, it suffices to
        # hand the message to the earliest-posted compatible receive,
        # which leaves the board once matched.
        key = (dst, context, channel, sub)
        recvs = self._pending_recvs.get(key, ())
        for i, pr in enumerate(recvs):
            if self._compatible(pr, env):
                # But only if no earlier pending send also matches pr —
                # those would have been taken already when pr was posted.
                pr.matched = env
                del recvs[i]
                return env
        self._pending_sends.setdefault(key, []).append(env)
        return env

    # -- receive side --------------------------------------------------------
    def post_recv(
        self, dst: int, src: int, tag: int, channel: int = 0, sub: int = 0,
        context: int = 0,
    ) -> _PendingRecv:
        """Post a receive; matches the oldest compatible pending send."""
        pr = _PendingRecv(
            dst=dst, src=src, tag=tag, channel=channel, sub=sub,
            seq=self._next_seq(), context=context,
        )
        key = (dst, context, channel, sub)
        sends = self._pending_sends.get(key, ())
        for i, env in enumerate(sends):
            if self._compatible(pr, env):
                pr.matched = env
                del sends[i]
                break
        else:
            self._pending_recvs.setdefault(key, []).append(pr)
        return pr

    def is_complete(self, pr: _PendingRecv) -> bool:
        """True once the posted receive has been matched to a message."""
        return pr.matched is not None

    def take(self, pr: _PendingRecv) -> Envelope:
        """Consume a completed receive (it left the board when matched)."""
        if pr.matched is None:
            raise RuntimeError("take() on an unmatched receive")
        return pr.matched

    # -- introspection -------------------------------------------------------
    @staticmethod
    def _compatible(pr: _PendingRecv, env: Envelope) -> bool:
        return (
            pr.dst == env.dst
            and pr.context == env.context
            and pr.channel == env.channel
            and pr.sub == env.sub
            and (pr.src == ANY_SOURCE or pr.src == env.src)
            and (pr.tag == ANY_TAG or pr.tag == env.tag)
        )

    def probe(self, dst: int, src: int, tag: int, channel: int = 0,
              sub: int = 0, context: int = 0) -> Envelope | None:
        """Peek at the oldest pending message a receive would match.

        Non-destructive: the message stays buffered.  Returns None when
        nothing compatible has been sent yet.
        """
        peek = _PendingRecv(
            dst=dst, src=src, tag=tag, channel=channel, sub=sub,
            seq=0, context=context,
        )
        for env in self._pending_sends.get((dst, context, channel, sub), ()):
            if self._compatible(peek, env):
                return env
        return None

    def pending_send_count(self) -> int:
        """Number of buffered messages not yet matched."""
        return sum(map(len, self._pending_sends.values()))

    def pending_recv_count(self) -> int:
        """Number of posted receives not yet matched."""
        return sum(map(len, self._pending_recvs.values()))
