"""Deterministic cooperative runtime for simulated MPI programs.

The paper runs each MPI process inside its own Valgrind virtual
machine; the tracer observes the process from inside.  Our substitute
runs each simulated rank as a Python thread under a *baton-passing*
scheduler: exactly one rank executes at any instant, ranks switch only
at blocking communication points, and the scheduler resumes ranks in a
fixed, documented order.  Execution is therefore fully deterministic —
the same program yields byte-identical traces on every run, which the
trace-driven methodology requires (and which we verify with an
ablation: scheduling order must not change replayed times).

The runtime is purely *functional*: it moves real data between ranks
and maintains each rank's **virtual clock** in executed instructions,
but attaches no cost to communication.  Timing is the job of the
replay simulator (:mod:`repro.dimemas`), exactly as in the original
tool chain.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

__all__ = [
    "AccessBatch",
    "DeadlockError",
    "Observer",
    "RankFailedError",
    "Runtime",
    "RuntimeError_",
]


class RuntimeError_(RuntimeError):
    """Base class for smpi runtime errors."""


class DeadlockError(RuntimeError_):
    """No rank can make progress and at least one has not finished.

    ``blocked`` carries the structured per-rank state: a list of
    ``(rank, description)`` pairs, where the description is the
    blocking call's own account of what it waits for (e.g.
    ``"recv(source=3, tag=0, ...)"``).
    """

    def __init__(self, blocked: list[tuple[int, str]]):
        self.blocked = list(blocked)
        super().__init__(
            "simulated MPI deadlock; blocked ranks:\n"
            + "\n".join(f"  rank {r}: {d or '<unknown>'}" for r, d in self.blocked)
        )


class RankFailedError(RuntimeError_):
    """A rank raised an exception; carries the original traceback."""

    def __init__(self, rank: int, exc: BaseException, tb: str):
        super().__init__(f"rank {rank} failed: {exc!r}\n{tb}")
        self.rank = rank
        self.original = exc


class _Abort(BaseException):
    """Internal: unwinds worker threads on runtime shutdown."""


@dataclass(frozen=True)
class AccessBatch:
    """A vectorized batch of memory accesses inside one compute burst.

    Attributes
    ----------
    buf:
        The communication buffer (typically a NumPy array) the accesses
        touch.  Identity (``id(buf)``) links accesses to transfers, so
        applications must load/store and send/recv the *same object*.
    offsets:
        Integer element indices into ``buf``, or ``None`` for the whole
        buffer in element order (``arange(buf.size)``).  The whole-buffer
        form is what the application skeletons emit: the tracer folds it
        in one elementwise pass with no offset to check, where explicit
        offsets (any subset, any order, repeats allowed) are
        range-checked and scattered.  Both give the same trace.
    at:
        Fractions in ``[0, 1]`` locating each access within the burst
        (0 = burst start, 1 = burst end), aligned with ``offsets`` (one
        per element of ``buf`` when ``offsets`` is None).  ``None``
        distributes the accesses uniformly over the burst in the order
        given.
    """

    buf: Any
    offsets: Any
    at: Any = None


class Observer:
    """Instrumentation hooks — the seam where the tracer attaches.

    All callbacks run on the observed rank's thread while it holds the
    scheduler baton, so implementations need no locking.  The default
    implementation ignores everything, making the runtime usable as a
    plain message-passing simulator.
    """

    def on_start(self, rank: int, size: int) -> None:
        """Rank began execution."""

    def on_compute(
        self,
        rank: int,
        start_icount: int,
        instructions: int,
        loads: Sequence[AccessBatch],
        stores: Sequence[AccessBatch],
    ) -> None:
        """A compute burst of ``instructions`` beginning at ``start_icount``."""

    def on_send(
        self, rank: int, buf: Any, dest: int, tag: int, size: int,
        elements: int, channel: int, sub: int, request: int | None,
        context: int = 0,
    ) -> None:
        """A send was initiated (``request is None`` for blocking sends)."""

    def on_recv_post(
        self, rank: int, buf: Any, source: int, tag: int, size: int,
        elements: int, channel: int, sub: int, request: int | None,
        context: int = 0,
    ) -> "object | None":
        """A receive was posted.  May return a token passed back on completion."""

    def on_recv_complete(
        self, rank: int, token: object, source: int, tag: int, size: int, elements: int,
    ) -> None:
        """A posted receive matched and delivered (actual source/size known)."""

    def on_wait(self, rank: int, requests: Sequence[int]) -> None:
        """The rank blocked in wait for the given request ids."""

    def on_collective(
        self, rank: int, op: str, root: int, send_size: int, recv_size: int,
        seq: int, send_buf: Any, recv_buf: Any,
        context: int = 0, members: int = 0,
    ) -> None:
        """An analytically-modelled collective executed (decompose=False)."""

    def on_event(self, rank: int, name: str, value: int) -> None:
        """A user event (iteration marker) was emitted."""

    def on_finish(self, rank: int) -> None:
        """Rank finished execution."""


@dataclass
class _RankState:
    rank: int
    thread: threading.Thread | None = None
    turn: threading.Event = field(default_factory=threading.Event)
    blocked_on: Callable[[], bool] | None = None
    blocked_desc: str = ""
    finished: bool = False
    result: Any = None
    failure: tuple[BaseException, str] | None = None
    icount: int = 0  # virtual clock in executed instructions


class Runtime:
    """Runs ``nranks`` simulated MPI processes to completion.

    Parameters
    ----------
    nranks:
        Number of ranks.
    fn:
        ``fn(comm) -> result`` executed by every rank, or a sequence of
        per-rank callables (SPMD vs MPMD).
    observers:
        Optional per-rank :class:`Observer` list, or a single factory
        ``factory(rank) -> Observer``.
    decompose_collectives:
        When True (default, the paper's setting) collectives are run as
        point-to-point trees and observed as such; when False they
        execute out-of-band and are observed via
        :meth:`Observer.on_collective`.
    """

    def __init__(
        self,
        nranks: int,
        fn: Callable | Sequence[Callable],
        observers: Sequence[Observer] | Callable[[int], Observer] | None = None,
        decompose_collectives: bool = True,
    ):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        if callable(fn):
            self._fns = [fn] * nranks
        else:
            self._fns = list(fn)
            if len(self._fns) != nranks:
                raise ValueError(f"need {nranks} rank functions, got {len(self._fns)}")
        if observers is None:
            self.observers: list[Observer] = [Observer() for _ in range(nranks)]
        elif callable(observers):
            self.observers = [observers(r) for r in range(nranks)]
        else:
            self.observers = list(observers)
            if len(self.observers) != nranks:
                raise ValueError("need one observer per rank")
        self.decompose_collectives = decompose_collectives

        from .matching import MessageBoard  # local import to avoid cycle
        self.board = MessageBoard()
        self._ranks = [_RankState(r) for r in range(nranks)]
        self._sched_turn = threading.Event()
        self._ready: list[int] = []
        self._abort = False
        self._req_counter = [0] * nranks
        self._contexts: dict = {}

    # ------------------------------------------------------------------ #
    # Scheduler side.
    # ------------------------------------------------------------------ #
    def run(self) -> list[Any]:
        """Execute all ranks; returns their return values by rank.

        Raises :class:`DeadlockError` if no progress is possible and
        :class:`RankFailedError` if any rank raised.
        """
        from ..obs import get_registry, span
        from .api import Comm

        with span("smpi.run", nranks=self.nranks):
            out = self._run_scheduled()
        reg = get_registry()
        reg.counter("smpi.runs").inc()
        reg.counter("smpi.ranks_run").inc(self.nranks)
        return out

    def _run_scheduled(self) -> list[Any]:
        """The baton-passing scheduler loop behind :meth:`run`."""
        from .api import Comm

        for st in self._ranks:
            comm = Comm(self, st.rank)
            st.thread = threading.Thread(
                target=self._worker, args=(st, comm), daemon=True,
                name=f"smpi-rank-{st.rank}",
            )
            st.thread.start()
        self._ready = list(range(self.nranks))

        try:
            while True:
                # Promote unblocked ranks, in rank order (deterministic).
                for st in self._ranks:
                    if (
                        st.blocked_on is not None
                        and st.rank not in self._ready
                        and st.blocked_on()
                    ):
                        st.blocked_on = None
                        self._ready.append(st.rank)
                if not self._ready:
                    unfinished = [st for st in self._ranks if not st.finished]
                    if not unfinished:
                        break
                    raise DeadlockError(
                        [(st.rank, st.blocked_desc) for st in unfinished]
                    )
                rank = self._ready.pop(0)
                st = self._ranks[rank]
                if st.finished:
                    continue
                st.turn.set()
                self._sched_turn.wait()
                self._sched_turn.clear()
                if st.failure is not None:
                    exc, tb = st.failure
                    raise RankFailedError(st.rank, exc, tb)
        finally:
            self._shutdown()
        return [st.result for st in self._ranks]

    def _shutdown(self) -> None:
        self._abort = True
        for st in self._ranks:
            st.turn.set()
        for st in self._ranks:
            if st.thread is not None and st.thread is not threading.current_thread():
                st.thread.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # Worker side (runs on rank threads, holding the baton).
    # ------------------------------------------------------------------ #
    def _worker(self, st: _RankState, comm) -> None:
        st.turn.wait()
        st.turn.clear()
        if self._abort:
            return
        try:
            self.observers[st.rank].on_start(st.rank, self.nranks)
            st.result = self._fns[st.rank](comm)
            self.observers[st.rank].on_finish(st.rank)
        except _Abort:
            return
        except BaseException as exc:  # noqa: BLE001 - reported to driver
            st.failure = (exc, traceback.format_exc())
        finally:
            st.finished = True
            if not self._abort:
                self._sched_turn.set()

    def yield_to_scheduler(self, st: _RankState) -> None:
        """Hand the baton back and wait for the next turn (worker side)."""
        self._sched_turn.set()
        st.turn.wait()
        st.turn.clear()
        if self._abort:
            raise _Abort()

    def block(self, rank: int, predicate: Callable[[], bool], desc: str) -> None:
        """Block the calling rank until ``predicate()`` is true.

        The predicate is evaluated by the scheduler with the baton held,
        so it may freely inspect shared state.
        """
        st = self._ranks[rank]
        while not predicate():
            st.blocked_on = predicate
            st.blocked_desc = desc
            self.yield_to_scheduler(st)
        st.blocked_on = None
        st.blocked_desc = ""

    def advance_clock(self, rank: int, instructions: int) -> int:
        """Advance the rank's virtual clock; returns the burst start icount."""
        st = self._ranks[rank]
        start = st.icount
        st.icount += int(instructions)
        return start

    def icount(self, rank: int) -> int:
        """Current virtual clock of ``rank`` in instructions."""
        return self._ranks[rank].icount

    def next_request_id(self, rank: int) -> int:
        """Allocate a fresh per-rank request id."""
        self._req_counter[rank] += 1
        return self._req_counter[rank]

    def context_id(self, key: tuple) -> int:
        """Stable communicator-context id for a split descriptor.

        All members of a split compute the same ``key`` (parent
        context, split sequence number, color), so they all receive the
        same id; ids are allocated in first-request order, which the
        deterministic scheduler makes reproducible.
        """
        if key not in self._contexts:
            self._contexts[key] = len(self._contexts) + 1
        return self._contexts[key]
