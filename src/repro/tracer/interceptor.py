"""MPI call interception: builds Dimemas trace records during execution.

One :class:`TracingObserver` rides on each simulated rank (the paper
runs one Valgrind VM per MPI process).  It converts the observed
stream of compute bursts, buffer accesses, and MPI calls into the
*original* (non-overlapped) trace, enriched with the per-element
access profiles that the overlap transformation
(:mod:`repro.core.transform`) consumes to derive the *overlapped*
traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..smpi.runtime import AccessBatch, Observer
from ..trace.records import (
    CollOp,
    CpuBurst,
    Event,
    GlobalOp,
    IRecv,
    ISend,
    ProcessTrace,
    Recv,
    Send,
    Wait,
)
from .memory import MemoryTracker
from .timestamps import Clock

__all__ = ["TracingObserver"]


@dataclass
class _RecvToken:
    """Carries receive context from posting to completion."""

    kind: str                 # "recv" (blocking) or "irecv"
    buf: Any
    channel: int
    sub: int
    context: int
    record: IRecv | None      # the posted record, for irecv patching


class TracingObserver(Observer):
    """Observer that emits one :class:`ProcessTrace` for its rank."""

    def __init__(self, rank: int, clock: Clock, profiles: dict,
                 record_streams: bool = False):
        self.rank = rank
        self.clock = clock
        self.trace = ProcessTrace(rank)
        self.memory = MemoryTracker(
            clock, record_streams=record_streams, profiles=profiles
        )
        self._icount = 0  # mirror of the runtime's per-rank virtual clock

    # ------------------------------------------------------------------ #
    # Compute bursts and memory activity.
    # ------------------------------------------------------------------ #
    def on_compute(
        self,
        rank: int,
        start_icount: int,
        instructions: int,
        loads: Sequence[AccessBatch],
        stores: Sequence[AccessBatch],
    ) -> None:
        self._icount = start_icount + instructions
        if instructions > 0:
            # Coalesced at build time: back-to-back compute calls emit
            # one maximal burst, keeping replay's record walk short.
            self.trace.append_coalesced(
                CpuBurst(self.clock.seconds(instructions), instructions=instructions)
            )
        for batch in loads:
            self.memory.record_loads(
                batch.buf, batch.offsets, batch.at, start_icount, instructions
            )
        for batch in stores:
            self.memory.record_stores(
                batch.buf, batch.offsets, batch.at, start_icount, instructions
            )

    # ------------------------------------------------------------------ #
    # Point-to-point interception.
    # ------------------------------------------------------------------ #
    def on_send(
        self, rank: int, buf: Any, dest: int, tag: int, size: int,
        elements: int, channel: int, sub: int, request: int | None,
        context: int = 0,
    ) -> None:
        # The MPI layer reads the buffer at the send: for forwarded
        # (received-then-sent) buffers this is their consumption point.
        self.memory.note_send_reads(buf, self._icount)
        production = self.memory.close_production(buf, self._icount)
        if request is None:
            rec: Send | ISend = Send(
                peer=dest, tag=tag, size=size, channel=channel, sub=sub,
                elements=elements, context=context, production=production,
            )
        else:
            rec = ISend(
                peer=dest, tag=tag, size=size, channel=channel, sub=sub,
                elements=elements, context=context, request=request,
                production=production,
            )
        if buf is not None:
            rec.meta["buf"] = id(buf)
        self.trace.append(rec)

    def on_recv_post(
        self, rank: int, buf: Any, source: int, tag: int, size: int,
        elements: int, channel: int, sub: int, request: int | None,
        context: int = 0,
    ) -> _RecvToken:
        if request is None:
            return _RecvToken("recv", buf, channel, sub, context, None)
        # Wildcards are patched at completion; use placeholders that pass
        # record validation meanwhile.
        rec = IRecv(
            peer=max(source, 0), tag=max(tag, 0), size=0,
            channel=channel, sub=sub, context=context, request=request,
        )
        self.trace.append(rec)
        return _RecvToken("irecv", buf, channel, sub, context, rec)

    def on_recv_complete(
        self, rank: int, token: _RecvToken, source: int, tag: int,
        size: int, elements: int,
    ) -> None:
        if token.kind == "recv":
            rec: Recv | IRecv = Recv(
                peer=source, tag=tag, size=size, elements=elements,
                channel=token.channel, sub=token.sub, context=token.context,
            )
            self.trace.append(rec)
        else:
            rec = token.record
            rec.peer = source
            rec.tag = tag
            rec.size = size
            rec.elements = elements
        if token.buf is not None:
            rec.meta["buf"] = id(token.buf)
        self.memory.note_recv(token.buf, rec, self._icount)

    def on_wait(self, rank: int, requests: Sequence[int]) -> None:
        self.trace.append(Wait(tuple(requests)))

    # ------------------------------------------------------------------ #
    # Collectives (analytic mode only) and events.
    # ------------------------------------------------------------------ #
    def on_collective(
        self, rank: int, op: str, root: int, send_size: int, recv_size: int,
        seq: int, send_buf: Any, recv_buf: Any,
        context: int = 0, members: int = 0,
    ) -> None:
        self.trace.append(
            GlobalOp(
                op=CollOp(op), root=root,
                send_size=send_size, recv_size=recv_size, seq=seq,
                context=context, members=members,
            )
        )

    def on_event(self, rank: int, name: str, value: int) -> None:
        self.trace.append(Event(name=name, value=value))

    def on_finish(self, rank: int) -> None:
        self.memory.finalize(self._icount)
