"""Shadow-memory tracking of communication buffers.

This is the heart of the Valgrind tool the paper describes: *"the tool
wraps each MPI call to read the parameters of the transfer and tracks
each memory activity to monitor accesses to the transferred data"*,
maintaining *"the time of the last update for every chunk"* (stores)
and noticing *"the point where that chunk is needed for the first
time"* (loads).

We keep, per communication buffer, two dense per-element arrays:

* ``last_store[e]`` — virtual time of the most recent store to element
  ``e`` inside the current *production interval* (between consecutive
  sends of the buffer);
* ``first_load[e]`` — virtual time of the first load of ``e`` inside
  the current *consumption interval* (between consecutive receives).

Access streams arrive as vectorized batches of burst fractions, so
every update is one NumPy call — the tracer costs O(accesses) NumPy
work, never a Python-level per-element loop.  A batch without offsets
covers the whole buffer in element order (the form the application
skeletons emit) and folds into the shadow array elementwise, with one
``np.fmax`` / ``np.fmin`` into it; a batch with explicit offsets may
touch any subset, in any order and with repeats, so it is range-checked
and scattered with ``np.fmax.at`` / ``np.fmin.at``.  Both forms write
the same bytes for the same accesses.

A closed interval's profile times go through
:func:`~repro.trace.records.intern_times` with one table per traced run
(:func:`~repro.tracer.tracefile.run_traced` hands every rank's tracker
the same table), so every profile with the same bytes, on any rank,
holds one read-only array: at 64 ranks the SPMD skeletons record each
distinct profile on every rank, and CG/64's 4,370 profiles are 70
arrays.  A profile's times must therefore never be written in place.

The skeletons build their access positions (``at``) once and pass the
same read-only arrays on every compute call, so the tracker range-checks
such an array once (a weak reference tells it the array is still the
one it checked); a writable or converted array is checked on every
call.  Keeping the positions scaled too would save another ~70 ms on
BT/64 but hold a scaled copy of every array per rank (about 5 MiB).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..trace.records import AccessProfile, IRecv, Recv, intern_times
from .timestamps import Clock

__all__ = ["BufferState", "MemoryTracker"]

#: Checked ``at`` arrays one tracker remembers before starting afresh.
_CHECKED_AT_MAX = 1024


@dataclass
class BufferState:
    """Shadow state of one tracked communication buffer."""

    buf: Any                      # strong ref: pins id() for the run
    elements: int
    last_store: np.ndarray        # icount per element, NaN = untouched
    first_load: np.ndarray
    production_start: int = 0     # icount of previous send of this buffer
    consumption_start: int = 0    # icount of previous recv of this buffer
    #: Receive record awaiting its consumption profile (patched when the
    #: consumption interval closes at the next recv / at process end).
    pending_recv: Recv | IRecv | None = None
    #: Raw per-access batches of the open intervals (stream recording).
    store_stream: list = field(default_factory=list)
    load_stream: list = field(default_factory=list)

    @classmethod
    def fresh(cls, buf: Any, elements: int, now: int) -> "BufferState":
        return cls(
            buf=buf,
            elements=elements,
            last_store=np.full(elements, np.nan),
            first_load=np.full(elements, np.nan),
            production_start=now,
            consumption_start=now,
        )


class MemoryTracker:
    """Per-rank shadow memory: buffers, intervals, profile construction."""

    def __init__(self, clock: Clock, record_streams: bool = False,
                 profiles: dict | None = None):
        self.clock = clock
        #: When True, every access (not only last store / first load) is
        #: retained and attached to profiles as a raw stream — needed for
        #: the pattern scatter plots of paper Figure 5.
        self.record_streams = record_streams
        #: The :func:`intern_times` table of the trace (module docstring).
        self._profiles: dict = {} if profiles is None else profiles
        self._buffers: dict[int, BufferState] = {}
        #: ``id(at) -> weakref(at)`` for the read-only float64 ``at``
        #: arrays owning their memory already range-checked.  A reused id fails the
        #: reference's identity test, and no array is kept alive.
        self._checked_at: dict[int, weakref.ref] = {}

    # ------------------------------------------------------------------ #
    # Buffer registry.
    # ------------------------------------------------------------------ #
    def lookup(self, buf: Any) -> BufferState | None:
        """State of ``buf`` if it is (or becomes) trackable.

        Only ndarray buffers are trackable — scalars and generic
        objects have no element structure to chunk.
        """
        if not isinstance(buf, np.ndarray):
            return None
        key = id(buf)
        st = self._buffers.get(key)
        if st is None:
            st = BufferState.fresh(buf, int(buf.size), 0)
            self._buffers[key] = st
        return st

    # ------------------------------------------------------------------ #
    # Access streams (called from compute bursts).
    # ------------------------------------------------------------------ #
    def _batch_times(self, n: int, at, start: int, instructions: int,
                     default_kind: str) -> np.ndarray:
        """Absolute icounts of a batch of ``n`` accesses, applying the
        default placement.

        Stores default to ``(i+1)/n`` of the burst (data exists once
        written), loads to ``i/n`` (data needed as the sweep reaches it).
        A read-only float64 ``at`` is range-checked on first sight only
        (module docstring); the shape check runs on every call.
        """
        if at is None:
            idx = np.arange(n, dtype=np.float64)
            frac = (idx + 1.0) / n if default_kind == "store" else idx / max(n, 1)
            return start + frac * instructions
        frac = np.asarray(at, dtype=np.float64)
        if frac.shape != (n,):
            raise ValueError(
                f"access batch shape mismatch: {(n,)} offsets "
                f"vs {frac.shape} positions"
            )
        checked = self._checked_at.get(id(at))
        if checked is None or checked() is not at:
            if n and (frac.min() < 0.0 or frac.max() > 1.0):
                raise ValueError("access positions must lie in [0, 1]")
            # Only an array nothing can write: read-only, and no view of
            # another array's (possibly writable) memory.
            if frac is at and not at.flags.writeable and at.base is None:
                if len(self._checked_at) >= _CHECKED_AT_MAX:
                    self._checked_at.clear()
                self._checked_at[id(at)] = weakref.ref(at)
        return start + frac * instructions

    def _fold(self, st: BufferState, kind: str, offsets, at, start: int,
              instructions: int) -> None:
        """Fold one access batch into ``st``'s shadow array of ``kind``.

        ``offsets=None`` is the whole buffer in order: one elementwise
        ``fmax``/``fmin`` writes what the scatter would, and there is no
        offset to check.  Explicit offsets are range-checked and
        scattered.
        """
        if kind == "store":
            shadow, stream, keep = st.last_store, st.store_stream, np.fmax
        else:
            shadow, stream, keep = st.first_load, st.load_stream, np.fmin
        if offsets is None:
            offs, n = None, st.elements
        else:
            offs = np.asarray(offsets, dtype=np.intp).reshape(-1)
            n = offs.shape[0]
            if n and (offs.min() < 0 or offs.max() >= st.elements):
                raise IndexError(
                    f"{kind} offsets out of range for buffer of "
                    f"{st.elements} elements"
                )
        if n == 0:
            return
        times = self._batch_times(n, at, start, instructions, kind)
        if offs is None:
            keep(shadow, times, out=shadow)
        else:
            keep.at(shadow, offs, times)
        if self.record_streams:
            stream.append(
                (np.arange(n, dtype=np.intp) if offs is None else offs, times)
            )

    def record_stores(self, buf: Any, offsets, at, start: int, instructions: int) -> None:
        """Register a store batch: keep the latest store per element."""
        st = self.lookup(buf)
        if st is not None:
            self._fold(st, "store", offsets, at, start, instructions)

    def record_loads(self, buf: Any, offsets, at, start: int, instructions: int) -> None:
        """Register a load batch: keep the earliest load per element."""
        st = self.lookup(buf)
        if st is not None:
            self._fold(st, "load", offsets, at, start, instructions)

    # ------------------------------------------------------------------ #
    # Interval bookkeeping (called from MPI interception).
    # ------------------------------------------------------------------ #
    def note_send_reads(self, buf: Any, now: int) -> None:
        """A send of ``buf`` happened: the MPI layer reads every element.

        This matters for forwarded buffers (a rank that receives data
        and passes it on): the forward send is the first — and possibly
        only — consumption of the received data, so the overlap
        transformation must not postpone the reception past it.
        """
        if not isinstance(buf, np.ndarray):
            return
        st = self._buffers.get(id(buf))
        if st is None:
            return
        t = float(now)
        np.fmin(st.first_load, t, out=st.first_load)
        if self.record_streams:
            st.load_stream.append(
                (np.arange(st.elements, dtype=np.intp), np.full(st.elements, t))
            )

    def close_production(self, buf: Any, now: int) -> AccessProfile | None:
        """A send of ``buf`` happened: emit and reset its production profile."""
        st = self.lookup(buf)
        if st is None:
            return None
        profile = AccessProfile(
            kind="production",
            times=intern_times(self._profiles, self.clock.seconds(st.last_store)),
            interval_start=self.clock.seconds(st.production_start),
            interval_end=self.clock.seconds(now),
            stream=self._pack_stream(st.store_stream),
        )
        st.last_store.fill(np.nan)
        st.store_stream = []
        st.production_start = now
        return profile

    def _pack_stream(self, batches: list) -> tuple | None:
        if not self.record_streams:
            return None
        if not batches:
            return (np.empty(0, dtype=np.intp), np.empty(0))
        offs = np.concatenate([b[0] for b in batches])
        times = self.clock.seconds(np.concatenate([b[1] for b in batches]))
        return (offs, times)

    def note_recv(self, buf: Any, record: Recv | IRecv | None, now: int) -> None:
        """A receive of ``buf`` completed: close the previous consumption
        interval (patching the profile onto the previous receive record)
        and open a new one owned by ``record``."""
        st = self.lookup(buf)
        if st is None:
            return
        self._flush_consumption(st, now)
        st.pending_recv = record
        st.consumption_start = now
        st.first_load.fill(np.nan)
        st.load_stream = []

    def _flush_consumption(self, st: BufferState, now: int) -> None:
        if st.pending_recv is not None:
            st.pending_recv.consumption = AccessProfile(
                kind="consumption",
                times=intern_times(
                    self._profiles, self.clock.seconds(st.first_load)
                ),
                interval_start=self.clock.seconds(st.consumption_start),
                interval_end=self.clock.seconds(now),
                stream=self._pack_stream(st.load_stream),
            )
            st.pending_recv = None

    def finalize(self, now: int) -> None:
        """Process end: close every open consumption interval."""
        for st in self._buffers.values():
            self._flush_consumption(st, now)
