"""Typed trace records — the common language of the framework.

The simulation framework of Subotic et al. (CLUSTER 2010) passes
*Dimemas traces* between its three stages:

1. the Valgrind-based tracer emits one trace per MPI process,
2. the overlap transformation rewrites those traces, and
3. the Dimemas simulator replays them on a configurable platform.

This module defines the in-memory representation of those traces.  A
trace is, per process, an ordered list of records.  Record *durations*
are expressed in seconds of **virtual process time**: pure computation
time obtained by scaling instruction counts with a MIPS rate (see
:mod:`repro.tracer.timestamps`).  Communication records carry no
duration — their cost is decided by the replay simulator's platform
model.

Records may carry an :class:`AccessProfile` describing when, in virtual
time, each element of the communicated buffer was produced (last store)
or consumed (first load).  The overlap transformation
(:mod:`repro.core.transform`) uses these profiles to place chunked
sends at production points and chunk waits at consumption points.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "AccessProfile",
    "CollOp",
    "CpuBurst",
    "Event",
    "GlobalOp",
    "IRecv",
    "ISend",
    "ProcessTrace",
    "Recv",
    "Record",
    "Send",
    "TraceSet",
    "Wait",
    "intern_times",
    "CHANNEL_APP",
    "CHANNEL_COLLECTIVE",
    "CHANNEL_CHUNK",
]

#: Communication channel of application-level point-to-point messages.
CHANNEL_APP = 0
#: Channel used for the point-to-point decomposition of collectives.
CHANNEL_COLLECTIVE = 1
#: Channel used for chunked messages created by the overlap transformation.
CHANNEL_CHUNK = 2


class CollOp(enum.Enum):
    """Collective operations supported by the trace model.

    The tracer decomposes these into point-to-point records
    (paper §III-C: collectives are "implemented as usual using multiple
    point-to-point MPI transfers"), but the record type is kept so that
    analytically-modelled collectives can be replayed as well (used by
    the ``collective-model`` ablation).
    """

    BARRIER = "barrier"
    BCAST = "bcast"
    REDUCE = "reduce"
    ALLREDUCE = "allreduce"
    GATHER = "gather"
    ALLGATHER = "allgather"
    SCATTER = "scatter"
    ALLTOALL = "alltoall"
    REDUCE_SCATTER = "reduce_scatter"


@dataclass(frozen=True)
class AccessProfile:
    """Per-element access times of a communicated buffer.

    Attributes
    ----------
    kind:
        ``"production"`` (times are per-element *last store*) or
        ``"consumption"`` (times are per-element *first load*).
    times:
        Array of shape ``(elements,)`` with absolute virtual times in
        seconds.  ``NaN`` marks an element that was never accessed
        inside the interval.  The tracer and both trace decoders pass
        it through :func:`intern_times`, so it is read-only and may be
        shared by every profile of the trace with the same bytes (on
        the SPMD skeletons, most of them): read it, never write it.
    interval_start, interval_end:
        Bounds of the production/consumption interval in absolute
        virtual time.  Production intervals run from the previous send
        of the same buffer (or process start) to the current send;
        consumption intervals run from the current receive to the next
        receive of the same buffer (or process end).  Paper §V-A.
    """

    kind: str
    times: np.ndarray
    interval_start: float
    interval_end: float
    #: Optional raw access stream ``(offsets, times)`` with one entry
    #: per individual access (not just the last store / first load) —
    #: recorded on demand for pattern scatter plots (paper Figure 5).
    stream: tuple | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("production", "consumption"):
            raise ValueError(f"invalid AccessProfile kind: {self.kind!r}")
        t = np.asarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "interval_start", float(self.interval_start))
        object.__setattr__(self, "interval_end", float(self.interval_end))
        if self.interval_end < self.interval_start:
            raise ValueError(
                "interval_end must be >= interval_start "
                f"({self.interval_end} < {self.interval_start})"
            )

    @property
    def elements(self) -> int:
        """Number of elements covered by the profile."""
        return int(self.times.shape[0])

    @property
    def span(self) -> float:
        """Length of the interval in virtual seconds."""
        return self.interval_end - self.interval_start

    def normalize(self, t: np.ndarray) -> np.ndarray:
        """Absolute times ``t`` mapped to ``[0, 1]`` within the interval
        (NaN kept).

        A zero-length interval maps every access to ``0.0`` (the access
        cannot be earlier or later than the interval itself).  The map
        is monotone non-decreasing, so it commutes with min and max: a
        reader may reduce the raw :attr:`times` and map only the result,
        and gets the same bits as reducing :meth:`normalized` (bar the
        sign of a zero when ``(t - start) / span`` underflows, which
        times on the tracer's instruction clock never do).
        """
        span = self.span
        if span <= 0.0:
            out = np.zeros_like(t, dtype=float)
            out[np.isnan(t)] = np.nan
            return out
        out = t - self.interval_start
        out /= span
        return out.clip(0.0, 1.0, out=out)

    def clip(self, t: np.ndarray) -> np.ndarray:
        """Absolute times ``t`` clipped into the interval bounds (NaN
        kept); monotone, like :meth:`normalize`."""
        return t.clip(self.interval_start, self.interval_end)

    def normalized(self) -> np.ndarray:
        """:attr:`times` mapped to ``[0, 1]`` by :meth:`normalize`."""
        return self.normalize(self.times)

    def clipped(self) -> np.ndarray:
        """:attr:`times` clipped into the interval by :meth:`clip`."""
        return self.clip(self.times)

    def normalized_stream(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Raw access stream as ``(offsets, normalized_times)``.

        Returns None when the tracer ran without stream recording.
        """
        if self.stream is None:
            return None
        offsets, times = self.stream
        return offsets, self.normalize(times)


#: Elements of an array sampled, at an even stride, into its bucket key
#: in :func:`intern_times`.
_KEY_SAMPLES = 16


def intern_times(table: dict, times: np.ndarray, copy: bool = False) -> np.ndarray:
    """The read-only array in ``table`` with the bytes of ``times``.

    When ``table`` holds none, ``times`` (or a copy of it, with
    ``copy``) is made read-only, added and returned.  One table per
    trace makes every profile with the same contents share one array:
    every rank of an SPMD skeleton records the same profiles, so at 64
    ranks more than 98% of the profile bytes repeat an earlier array.

    Arrays are bucketed by their length and a strided sample of their
    bits, and a candidate is confirmed elementwise on ``uint64`` views:
    equal means equal bytes (NaN matches NaN, ``-0.0`` differs from
    ``0.0``).  No key hashes a whole array, and the comparison reads one
    only when its sample matches; an array short enough to be sampled
    whole (fewer than ``2 * _KEY_SAMPLES`` elements) is its own key and
    needs no comparison.
    """
    times = np.asarray(times, dtype=np.float64)
    bits = times.view(np.uint64)
    n = bits.shape[0]
    step = max(1, n // _KEY_SAMPLES)
    bucket = table.setdefault((n, bits[::step].tobytes()), [])
    for known in bucket:
        if step == 1 or (known.view(np.uint64) == bits).all():
            return known
    if copy:
        times = times.copy()
    times.flags.writeable = False
    bucket.append(times)
    return times


@dataclass
class _Base:
    """Fields shared by every record (dataclass mixin)."""

    #: Free-form metadata (buffer ids, app annotations...).  Not part of
    #: equality-relevant simulation semantics; serialized best-effort.
    meta: dict = field(default_factory=dict, kw_only=True, compare=False, repr=False)


@dataclass
class CpuBurst(_Base):
    """A computation burst of ``duration`` virtual seconds.

    ``instructions`` optionally records the raw instruction count the
    duration was derived from (``duration = instructions / (MIPS*1e6)``).
    """

    duration: float
    instructions: int | None = None

    def __post_init__(self) -> None:
        self.duration = float(self.duration)
        if not math.isfinite(self.duration) or self.duration < 0.0:
            raise ValueError(f"CpuBurst duration must be finite and >= 0, got {self.duration}")


@dataclass
class _Ptp(_Base):
    """Common fields of point-to-point records."""

    peer: int
    tag: int
    size: int
    #: Communication channel (see CHANNEL_* constants).
    channel: int = CHANNEL_APP
    #: Sub-id disambiguating messages on the same (peer, tag, channel) —
    #: chunk index for chunked messages, step index for collective
    #: decompositions.  Part of the matching key.
    sub: int = 0
    #: Number of data elements in the message (from the MPI datatype
    #: parameters the tracer reads off the call); 0 = unknown.  A
    #: message cannot be chunked finer than its elements (paper: Alya's
    #: one-element reductions "cannot be chunked into partial ones").
    elements: int = 0
    #: Communicator context id (0 = COMM_WORLD).  Messages only match
    #: within a context — the MPI communicator isolation rule.  Peer
    #: ranks are always *world* ranks regardless of context.
    context: int = 0

    def __post_init__(self) -> None:
        if self.peer < 0:
            raise ValueError(f"peer rank must be >= 0, got {self.peer}")
        if self.size < 0:
            raise ValueError(f"message size must be >= 0, got {self.size}")


@dataclass
class Send(_Ptp):
    """Blocking send of ``size`` bytes to rank ``peer``.

    ``rendezvous=None`` lets the platform's eager threshold decide; a
    boolean forces the protocol.  ``production`` is attached by the
    tracer for application messages.
    """

    rendezvous: bool | None = None
    production: AccessProfile | None = field(default=None, compare=False)

    @property
    def dest(self) -> int:
        return self.peer


@dataclass
class ISend(_Ptp):
    """Non-blocking (immediate) send; completion via :class:`Wait`."""

    request: int = -1
    rendezvous: bool | None = None
    production: AccessProfile | None = field(default=None, compare=False)

    @property
    def dest(self) -> int:
        return self.peer


@dataclass
class Recv(_Ptp):
    """Blocking receive of ``size`` bytes from rank ``peer``."""

    consumption: AccessProfile | None = field(default=None, compare=False)

    @property
    def source(self) -> int:
        return self.peer


@dataclass
class IRecv(_Ptp):
    """Non-blocking receive posting; completion via :class:`Wait`."""

    request: int = -1
    consumption: AccessProfile | None = field(default=None, compare=False)

    @property
    def source(self) -> int:
        return self.peer


@dataclass
class Wait(_Base):
    """Wait for completion of one or more previously posted requests."""

    requests: tuple[int, ...]

    def __post_init__(self) -> None:
        self.requests = tuple(int(r) for r in self.requests)
        if not self.requests:
            raise ValueError("Wait must reference at least one request")


@dataclass
class GlobalOp(_Base):
    """A collective operation (analytic replay form).

    The default tracer configuration decomposes collectives into
    point-to-point records on :data:`CHANNEL_COLLECTIVE`; this record is
    emitted instead when ``decompose_collectives=False`` and is replayed
    with Dimemas' analytic collective model
    (:mod:`repro.dimemas.collectives`).
    """

    op: CollOp
    root: int = 0
    send_size: int = 0
    recv_size: int = 0
    #: Identifier grouping the records of the same collective instance
    #: across ranks (sequence number per communicator).
    seq: int = 0
    #: Communicator context id (0 = COMM_WORLD).
    context: int = 0
    #: Number of participating ranks (0 = the whole world).
    members: int = 0

    def __post_init__(self) -> None:
        if self.send_size < 0 or self.recv_size < 0:
            raise ValueError("collective sizes must be >= 0")
        if self.members < 0:
            raise ValueError("members must be >= 0")


@dataclass
class Event(_Base):
    """A zero-duration user event (e.g. iteration begin/end marker).

    Exported to Paraver traces; used to slice timelines per iteration
    (Figure 4 shows "the first five iterations").
    """

    name: str
    value: int = 0


Record = CpuBurst | Send | ISend | Recv | IRecv | Wait | GlobalOp | Event


class ProcessTrace:
    """The ordered record stream of one MPI process.

    Provides list-like access plus virtual-time bookkeeping: the
    *virtual start time* of record ``i`` is the sum of CpuBurst
    durations of records ``0..i-1`` (communication records are
    zero-duration in trace time — their real cost is added by replay).
    """

    __slots__ = ("rank", "records", "_starts_cache", "edits")

    def __init__(self, rank: int, records: Iterable[Record] | None = None):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        self.rank = int(rank)
        self.records: list[Record] = list(records or [])
        self._starts_cache: np.ndarray | None = None
        #: How many times :meth:`invalidate` was called: part of the
        #: fingerprint under which :func:`~repro.trace.columnar.columnar_of`
        #: memoizes the trace's columns.
        self.edits = 0

    # -- list-like interface -------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, idx):
        return self.records[idx]

    def append(self, record: Record) -> None:
        """Append a record, invalidating cached prefix times."""
        self.records.append(record)
        self._starts_cache = None

    def extend(self, records: Iterable[Record]) -> None:
        for r in records:
            self.append(r)

    def append_coalesced(self, record: Record) -> None:
        """Append, merging a CpuBurst into a trailing CpuBurst.

        Trace builders (the tracer, synthetic app generators) call this
        instead of :meth:`append` so back-to-back computation never
        produces runs of adjacent bursts — every burst the replay
        simulator walks is maximal, which keeps the per-record dispatch
        loop short.  Instruction counts are summed when both sides carry
        them; metadata dictionaries are merged (later keys win).  A merge
        replaces the last record without changing the record count, so
        it calls :meth:`invalidate`.
        """
        if (
            type(record) is CpuBurst
            and self.records
            and type(self.records[-1]) is CpuBurst
        ):
            prev = self.records[-1]
            instructions = (
                prev.instructions + record.instructions
                if prev.instructions is not None and record.instructions is not None
                else None
            )
            merged = CpuBurst(
                prev.duration + record.duration,
                instructions=instructions,
                meta={**prev.meta, **record.meta},
            )
            self.records[-1] = merged
            self.invalidate()
        else:
            self.append(record)

    # -- virtual-time bookkeeping ---------------------------------------------
    def virtual_starts(self) -> np.ndarray:
        """Virtual start time of every record (shape ``(len+1,)``).

        The final entry is the total virtual compute time of the
        process.  Cached; mutate only through :meth:`append` /
        :meth:`extend` or call :meth:`invalidate` after direct edits.
        """
        if self._starts_cache is None or len(self._starts_cache) != len(self.records) + 1:
            durs = np.fromiter(
                (r.duration if isinstance(r, CpuBurst) else 0.0 for r in self.records),
                dtype=np.float64,
                count=len(self.records),
            )
            starts = np.empty(len(self.records) + 1, dtype=np.float64)
            starts[0] = 0.0
            np.cumsum(durs, out=starts[1:])
            self._starts_cache = starts
        return self._starts_cache

    def invalidate(self) -> None:
        """Drop what is cached of this stream after an in-place edit.

        Call it after assigning a record's field or replacing a record:
        it drops the prefix sums and makes
        :func:`~repro.trace.columnar.columnar_of` pack the trace again.
        """
        self._starts_cache = None
        self.edits += 1

    @property
    def virtual_duration(self) -> float:
        """Total virtual compute time of the process."""
        return float(self.virtual_starts()[-1])

    def count(self, record_type: type) -> int:
        """Number of records of the given type."""
        return sum(1 for r in self.records if isinstance(r, record_type))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProcessTrace(rank={self.rank}, records={len(self.records)})"


class TraceSet:
    """A complete trace: one :class:`ProcessTrace` per rank plus metadata.

    ``meta`` carries provenance (application name, parameters, MIPS
    rate, chunking configuration) that formats and reports propagate.
    """

    def __init__(
        self,
        processes: Sequence[ProcessTrace],
        meta: Mapping[str, object] | None = None,
    ):
        procs = list(processes)
        if not procs:
            raise ValueError("TraceSet requires at least one process")
        ranks = [p.rank for p in procs]
        if ranks != list(range(len(procs))):
            raise ValueError(f"process ranks must be 0..n-1 in order, got {ranks}")
        self.processes: list[ProcessTrace] = procs
        self.meta: dict = dict(meta or {})

    @property
    def nranks(self) -> int:
        """Number of processes in the trace."""
        return len(self.processes)

    def __iter__(self) -> Iterator[ProcessTrace]:
        return iter(self.processes)

    def __getitem__(self, rank: int) -> ProcessTrace:
        return self.processes[rank]

    def __len__(self) -> int:
        return len(self.processes)

    def total_records(self) -> int:
        """Total number of records across all ranks."""
        return sum(len(p) for p in self.processes)

    def total_virtual_compute(self) -> float:
        """Sum of virtual compute time over all ranks (seconds)."""
        return float(sum(p.virtual_duration for p in self.processes))

    def copy(self) -> "TraceSet":
        """Deep-ish copy: record objects are shallow-copied (records are
        treated as immutable by convention), containers are new."""
        return TraceSet(
            [ProcessTrace(p.rank, [dataclasses.replace(r) for r in p.records]) for p in self.processes],
            meta=dict(self.meta),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TraceSet(nranks={self.nranks}, records={self.total_records()})"
