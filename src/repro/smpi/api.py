"""The mpi4py-like communicator API of the simulated runtime.

Application skeletons (:mod:`repro.apps`) are written against this
class exactly as real codes are written against ``mpi4py.MPI.Comm``:
lower-case methods move Python objects, :meth:`Recv` fills a
preallocated NumPy buffer, non-blocking calls return
:class:`~repro.smpi.requests.Request` handles.

Two extensions support the tracing methodology:

* :meth:`compute` advances the rank's virtual clock by an instruction
  count and reports vectorized load/store batches on communication
  buffers — the information Valgrind extracts from real binaries;
* :meth:`event` emits user events (iteration markers) that end up in
  Paraver timelines.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from . import collectives as _coll
from .datatypes import measure
from .matching import ANY_SOURCE, ANY_TAG
from .requests import Request
from .runtime import AccessBatch, Runtime

__all__ = ["ANY_SOURCE", "ANY_TAG", "Comm"]


def _normalize_batches(batches: Iterable) -> list[AccessBatch]:
    out: list[AccessBatch] = []
    for b in batches:
        if isinstance(b, AccessBatch):
            out.append(b)
        else:
            buf, offsets, *rest = b
            out.append(AccessBatch(buf, offsets, rest[0] if rest else None))
    return out


class Comm:
    """Communicator bound to one simulated rank.

    Create via :class:`~repro.smpi.runtime.Runtime`; one instance is
    handed to each rank function.
    """

    def __init__(self, runtime: Runtime, rank: int):
        self.runtime = runtime
        self._rank = rank          # world rank (observer/board identity)
        self._local_rank = rank    # rank within this communicator
        self._group: list[int] | None = None  # None = COMM_WORLD identity
        self._context = 0
        self._coll_seq = 0
        self._split_seq = 0
        #: When False, observer callbacks are suppressed (used by the
        #: non-decomposed collective path to hide its internal traffic).
        self._observing = True

    # -- identity -------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process' rank within the communicator (``Get_rank()``)."""
        return self._local_rank

    @property
    def size(self) -> int:
        """Number of ranks in the communicator (``Get_size()``)."""
        return len(self._group) if self._group is not None else self.runtime.nranks

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    def _world(self, peer: int) -> int:
        """Translate a communicator-local peer rank to a world rank."""
        return self._group[peer] if self._group is not None else peer

    @property
    def _obs(self):
        return self.runtime.observers[self._rank]

    # -- virtual computation ----------------------------------------------------
    def compute(
        self,
        instructions: int,
        loads: Iterable = (),
        stores: Iterable = (),
    ) -> None:
        """Execute a virtual compute burst of ``instructions``.

        ``loads``/``stores`` are :class:`~repro.smpi.runtime.AccessBatch`
        instances (or ``(buf, offsets[, at])`` tuples) describing the
        accesses this burst performs on communication buffers;
        ``offsets=None`` means the whole buffer in order.  ``at``
        positions each access within the burst as a fraction in
        ``[0, 1]``.  Accesses to non-communication data need not (and
        should not) be reported.
        """
        instructions = int(instructions)
        if instructions < 0:
            raise ValueError("instructions must be >= 0")
        start = self.runtime.advance_clock(self._rank, instructions)
        if self._observing:
            self._obs.on_compute(
                self._rank, start, instructions,
                _normalize_batches(loads), _normalize_batches(stores),
            )

    def event(self, name: str, value: int = 0) -> None:
        """Emit a user event (e.g. ``comm.event("iteration", i)``)."""
        if self._observing:
            self._obs.on_event(self._rank, name, int(value))

    # -- point-to-point ---------------------------------------------------------
    def _check_peer(self, peer: int, wildcard_ok: bool = False) -> None:
        if wildcard_ok and peer == ANY_SOURCE:
            return
        if not 0 <= peer < self.size:
            raise ValueError(f"peer rank {peer} out of range [0, {self.size})")

    def send(self, obj: Any, dest: int, tag: int = 0,
             channel: int = 0, sub: int = 0) -> None:
        """Blocking standard-mode send (eagerly buffered, returns at once)."""
        self._check_peer(dest)
        dest = self._world(dest)
        size, elements, _ = measure(obj)
        if self._observing:
            self._obs.on_send(self._rank, obj, dest, tag, size, elements,
                              channel, sub, None, self._context)
        self.runtime.board.post_send(
            self._rank, dest, tag, obj, channel=channel, sub=sub,
            size=size, elements=elements, context=self._context,
        )

    def isend(self, obj: Any, dest: int, tag: int = 0,
              channel: int = 0, sub: int = 0) -> Request:
        """Non-blocking send; complete with :meth:`wait`."""
        self._check_peer(dest)
        dest = self._world(dest)
        size, elements, _ = measure(obj)
        req_id = self.runtime.next_request_id(self._rank)
        if self._observing:
            self._obs.on_send(self._rank, obj, dest, tag, size, elements,
                              channel, sub, req_id, self._context)
        self.runtime.board.post_send(
            self._rank, dest, tag, obj, channel=channel, sub=sub,
            size=size, elements=elements, context=self._context,
        )
        return Request(self, self._rank, req_id, "isend")

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             channel: int = 0, sub: int = 0, buf: Any = None) -> Any:
        """Blocking receive; returns the object (or fills ``buf``)."""
        self._check_peer(source, wildcard_ok=True)
        source = source if source == ANY_SOURCE else self._world(source)
        board = self.runtime.board
        token = None
        if self._observing:
            token = self._obs.on_recv_post(
                self._rank, buf, source, tag,
                -1, -1, channel, sub, None, self._context,
            )
        pr = board.post_recv(self._rank, source, tag, channel=channel,
                             sub=sub, context=self._context)
        self.runtime.block(
            self._rank, lambda: board.is_complete(pr),
            f"recv(source={source}, tag={tag}, channel={channel}, "
            f"sub={sub}, context={self._context})",
        )
        env = board.take(pr)
        if buf is not None:
            np.copyto(np.asarray(buf).reshape(-1),
                      np.asarray(env.payload).reshape(-1))
            value = buf
        else:
            value = env.payload
        if self._observing:
            self._obs.on_recv_complete(
                self._rank, token, env.src, env.tag, env.size, env.elements,
            )
        return value

    def Recv(self, buf: np.ndarray, source: int = ANY_SOURCE,
             tag: int = ANY_TAG, channel: int = 0, sub: int = 0) -> np.ndarray:
        """Receive into a preallocated array (mpi4py upper-case style)."""
        return self.recv(source, tag, channel=channel, sub=sub, buf=buf)

    def Send(self, buf: np.ndarray, dest: int, tag: int = 0,
             channel: int = 0, sub: int = 0) -> None:
        """Send an array (alias of :meth:`send`, for mpi4py symmetry)."""
        self.send(buf, dest, tag, channel=channel, sub=sub)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              channel: int = 0, sub: int = 0, buf: Any = None) -> Request:
        """Non-blocking receive; :meth:`wait` returns the object."""
        self._check_peer(source, wildcard_ok=True)
        source = source if source == ANY_SOURCE else self._world(source)
        req_id = self.runtime.next_request_id(self._rank)
        token = None
        if self._observing:
            token = self._obs.on_recv_post(
                self._rank, buf, source, tag, -1, -1, channel, sub, req_id,
                self._context,
            )
        pr = self.runtime.board.post_recv(
            self._rank, source, tag, channel=channel, sub=sub,
            context=self._context,
        )
        return Request(self, self._rank, req_id, "irecv",
                       pr=pr, buf=buf, token=token)

    def Irecv(self, buf: np.ndarray, source: int = ANY_SOURCE,
              tag: int = ANY_TAG, channel: int = 0, sub: int = 0) -> Request:
        """Non-blocking receive into a preallocated array."""
        return self.irecv(source, tag, channel=channel, sub=sub, buf=buf)

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0,
              channel: int = 0, sub: int = 0) -> Request:
        """Non-blocking array send (alias of :meth:`isend`)."""
        return self.isend(buf, dest, tag, channel=channel, sub=sub)

    def wait(self, request: Request) -> Any:
        """Complete one request; returns the received object (irecv)."""
        return self.waitall([request])[0]

    def waitall(self, requests: Sequence[Request]) -> list[Any]:
        """Complete several requests in one waiting phase."""
        requests = list(requests)
        if not requests:
            return []
        if self._observing:
            self._obs.on_wait(self._rank, [r.req_id for r in requests])
        for r in requests:
            self.runtime.block(
                self._rank, r._functionally_complete,
                f"wait(request={r.req_id}, kind={r.kind})",
            )
            r._finish()
        return [r.value for r in requests]

    def waitany(self, requests: Sequence[Request]) -> tuple[int, Any]:
        """Block until any one request completes (``MPI_Waitany``).

        Returns ``(index, value)`` of the completed request; ties
        resolve to the lowest index (deterministic).  The completed
        request is finalized; the others stay pending.
        """
        requests = list(requests)
        if not requests:
            raise ValueError("waitany needs at least one request")
        self.runtime.block(
            self._rank,
            lambda: any(r._functionally_complete() for r in requests),
            f"waitany({[r.req_id for r in requests]})",
        )
        for i, r in enumerate(requests):
            if r._functionally_complete():
                # The trace records a wait for the *winner* only: the
                # other requests stay pending and will be waited later,
                # and replaying Wait(winner) blocks until the earliest
                # arrival — the same synchronization waitany performs.
                if self._observing:
                    self._obs.on_wait(self._rank, [r.req_id])
                r._finish()
                return i, r.value
        raise RuntimeError("waitany unblocked without a complete request")

    def testall(self, requests: Sequence[Request]) -> bool:
        """Non-blocking: finalize and report True iff all are complete.

        A successful testall is a completion point, so it records the
        same Wait the blocking form would (replay waits there for the
        arrivals the polling loop eventually saw).

        The runtime is cooperative: a pure busy-wait on testall never
        yields the scheduler and livelocks.  Interleave a blocking call
        in polling loops (as real codes interleave useful work).
        """
        requests = list(requests)
        if not all(r._functionally_complete() for r in requests):
            return False
        if requests and self._observing:
            self._obs.on_wait(self._rank, [r.req_id for r in requests])
        for r in requests:
            r._finish()
        return True

    def sendrecv(self, obj: Any, dest: int, sendtag: int = 0,
                 source: int = ANY_SOURCE, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (deadlock-free, like ``MPI_Sendrecv``)."""
        self.send(obj, dest, sendtag)
        return self.recv(source, recvtag)

    def Sendrecv_replace(self, buf: np.ndarray, dest: int, sendtag: int = 0,
                         source: int = ANY_SOURCE,
                         recvtag: int = ANY_TAG) -> np.ndarray:
        """Exchange ``buf`` in place (``MPI_Sendrecv_replace``)."""
        self.send(buf, dest, sendtag)
        return self.recv(source, recvtag, buf=buf)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
               channel: int = 0, sub: int = 0) -> bool:
        """Non-blocking probe: has a matching message already been sent?

        Functional-level semantics (the simulated network delivers
        eagerly); no trace record is emitted — probing is free in the
        replay model.
        """
        src = source if source == ANY_SOURCE else self._world(source)
        return self.runtime.board.probe(
            self._rank, src, tag, channel=channel, sub=sub,
            context=self._context,
        ) is not None

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              channel: int = 0, sub: int = 0) -> tuple[int, int, int]:
        """Blocking probe: waits for a matching message and returns its
        ``(source, tag, size)`` without consuming it."""
        src = source if source == ANY_SOURCE else self._world(source)
        board = self.runtime.board

        def found():
            return board.probe(self._rank, src, tag, channel=channel,
                               sub=sub, context=self._context) is not None

        self.runtime.block(
            self._rank, found,
            f"probe(source={source}, tag={tag}, context={self._context})",
        )
        env = board.probe(self._rank, src, tag, channel=channel, sub=sub,
                          context=self._context)
        return (env.src, env.tag, env.size)

    # -- collectives ---------------------------------------------------------
    def _next_coll_seq(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def barrier(self) -> None:
        """Synchronize all ranks."""
        _coll.barrier(self)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        """Broadcast from ``root``; every rank returns the object."""
        return _coll.bcast(self, obj, root)

    def Bcast(self, buf: np.ndarray, root: int = 0) -> np.ndarray:
        """In-place broadcast of an array (mpi4py upper-case style).

        Receiving into a persistent buffer lets the tracer attribute
        subsequent loads to the broadcast (consumption profiles).
        """
        _coll.bcast(self, buf if self.rank == root else None, root, buf=buf)
        return buf

    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op: str = "sum") -> np.ndarray:
        """Array allreduce into ``recvbuf`` (mpi4py upper-case style)."""
        _coll.allreduce(self, sendbuf, op, buf=recvbuf)
        return recvbuf

    def reduce(self, value: Any, op: str = "sum", root: int = 0) -> Any:
        """Reduce to ``root`` (returns None elsewhere)."""
        return _coll.reduce(self, value, op, root)

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Reduce + broadcast; every rank returns the combined value."""
        return _coll.allreduce(self, value, op)

    def gather(self, value: Any, root: int = 0) -> list[Any] | None:
        """Gather one value per rank into a list at ``root``."""
        return _coll.gather(self, value, root)

    def allgather(self, value: Any) -> list[Any]:
        """Gather at every rank."""
        return _coll.allgather(self, value)

    def scatter(self, values: Sequence[Any] | None = None, root: int = 0) -> Any:
        """Scatter one value per rank from ``root``."""
        return _coll.scatter(self, values, root)

    def alltoall(self, values: Sequence[Any]) -> list[Any]:
        """Personalized all-to-all exchange."""
        return _coll.alltoall(self, values)

    def reduce_scatter(self, values: Sequence[Any], op: str = "sum") -> Any:
        """Elementwise reduce of per-rank lists, scattering block ``rank``."""
        return _coll.reduce_scatter(self, values, op)

    def Gatherv(self, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
                counts: Sequence[int] | None = None,
                root: int = 0) -> np.ndarray | None:
        """Variable-count gather of array blocks into ``recvbuf`` at root.

        ``counts`` (checked at root when given) are the per-rank element
        counts; blocks pack contiguously in rank order (displacements
        are the prefix sums).
        """
        parts = _coll.gather(self, sendbuf, root=root)
        if self.rank != root:
            return None
        if recvbuf is None:
            raise ValueError("root must pass a recvbuf")
        sizes = [int(np.asarray(p).size) for p in parts]
        if counts is not None and sizes != list(counts):
            raise ValueError(
                f"counts {list(counts)} disagree with gathered sizes {sizes}"
            )
        flat = np.concatenate([np.asarray(p).reshape(-1) for p in parts])
        np.copyto(np.asarray(recvbuf).reshape(-1)[: flat.size], flat)
        return recvbuf

    def Scatterv(self, sendbuf: np.ndarray | None,
                 counts: Sequence[int] | None, recvbuf: np.ndarray,
                 root: int = 0) -> np.ndarray:
        """Variable-count scatter of contiguous blocks from root."""
        if self.rank == root:
            if sendbuf is None or counts is None:
                raise ValueError("root must pass sendbuf and counts")
            if len(counts) != self.size:
                raise ValueError(f"need {self.size} counts, got {len(counts)}")
            flat = np.asarray(sendbuf).reshape(-1)
            offs = np.concatenate([[0], np.cumsum(counts)]).astype(int)
            blocks = [flat[offs[i]:offs[i + 1]].copy() for i in range(self.size)]
        else:
            blocks = None
        mine = np.asarray(_coll.scatter(self, blocks, root=root))
        np.copyto(np.asarray(recvbuf).reshape(-1)[: mine.size], mine)
        return recvbuf

    # -- communicator management ---------------------------------------------
    def dup(self) -> "Comm":
        """Duplicate the communicator (``MPI_Comm_dup``): same members,
        fresh isolated matching context."""
        dup = self.split(color=0, key=self.rank)
        assert dup is not None
        return dup

    def split(self, color, key: int = 0) -> "Comm | None":
        """Partition the communicator (``MPI_Comm_split``).

        Collective over this communicator: every member must call it.
        Ranks passing the same ``color`` end up in the same new
        communicator, ordered by ``(key, old rank)``; ``color=None``
        (MPI_UNDEFINED) participates but receives no communicator.

        Sub-communicators have their own matching context, so traffic
        on them never collides with the parent's — including in traces,
        where records carry the context id.
        """
        triples = self.allgather((color, key, self.rank))
        self._split_seq += 1
        if color is None:
            return None
        ordered = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        group_world = [self._world(r) for _, r in ordered]
        ctx = self.runtime.context_id(
            (self._context, self._split_seq, repr(color))
        )
        sub = Comm(self.runtime, self._rank)
        sub._group = group_world
        sub._local_rank = group_world.index(self._rank)
        sub._context = ctx
        return sub
