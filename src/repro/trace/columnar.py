"""Packed columnar trace representation with a versioned binary codec.

The record objects of :mod:`repro.trace.records` are the *authoring*
format of the framework: convenient to build and transform, but slow to
walk (attribute lookups per record) and very expensive to serialize —
the ``dim`` text form of a 16-rank CG trace is tens of megabytes once
access profiles are base64-encoded, which made content digests and
worker dispatch the dominant cost of cold experiment grids.

This module provides the *execution* format: per-rank record streams
laid out as parallel :mod:`array`-module columns (opcode, peer, size,
tag, duration, request id, ...) plus small side tables for the rare
variable-length payloads (wait request lists, events, collectives,
access profiles).  The layout is

* **cheap to digest** — the replay-semantic core is a few hundred
  kilobytes of packed integers, hashed in microseconds;
* **cheap to ship** — one compact byte string crosses the process
  boundary instead of thousands of pickled dataclass instances;
* **cheap to replay** — the simulator iterates int opcodes and flat
  columns instead of walking Python objects.

Round-tripping is lossless for every simulation-relevant field of every
record type.  Like the ``dim`` text format, record-level ``meta``
dictionaries and raw :attr:`AccessProfile.stream` payloads are *not*
serialized (they never influence simulated results); trace-level
``meta`` round-trips through JSON exactly as it does in ``dim``.

Binary layout (version 1, all little-endian)::

    "RCOL"  magic
    u32     schema version (= 1)
    u64     core length
    core    header JSON (event names, collective op names) + nranks +
            per-rank column blocks
    32B     SHA-256 of (magic + version + core)
    u32     meta length,  meta JSON,  u32 CRC-32
    u8      flags (bit 0: profile section follows)
    [u64    profile payload length,  payload,  u32 CRC-32]

The **content digest** of a trace (:attr:`ColumnarTrace.digest`) covers
only the replay-semantic core — two encodings of the same trace with
and without access profiles share a digest, so plan caches and result
caches keyed by it never miss on presentation-only differences.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import sys
import weakref
import zlib
from array import array
from typing import BinaryIO

import numpy as np

from ..audit.limits import ingest_limits
from .records import (
    AccessProfile,
    CollOp,
    CpuBurst,
    Event,
    GlobalOp,
    IRecv,
    ISend,
    ProcessTrace,
    Recv,
    Send,
    TraceSet,
    Wait,
    intern_times,
)

__all__ = [
    "OP_CPU",
    "OP_EVENT",
    "OP_SEND",
    "OP_ISEND",
    "OP_RECV",
    "OP_IRECV",
    "OP_WAIT",
    "OP_COLL",
    "OP_NAMES",
    "ROW_DEFAULTS",
    "ColumnarFormatError",
    "ColumnarTrace",
    "RankColumns",
    "columnar_of",
    "decode",
    "from_traceset",
    "gather_rows",
    "new_rows",
]

#: Replay opcodes, shared with :mod:`repro.dimemas.replay`.
OP_CPU = 0
OP_EVENT = 1
OP_SEND = 2
OP_ISEND = 3
OP_RECV = 4
OP_IRECV = 5
OP_WAIT = 6
OP_COLL = 7

#: Record class name per opcode (diagnostics and post-mortems).
OP_NAMES = (
    "CpuBurst", "Event", "Send", "ISend", "Recv", "IRecv", "Wait", "GlobalOp",
)

MAGIC = b"RCOL"
VERSION = 1

_VERSION_SALT = MAGIC + struct.pack("<I", VERSION)

#: Opcodes that carry point-to-point columns (peer/tag/size/...).
_PTP_OPS = frozenset((OP_SEND, OP_ISEND, OP_RECV, OP_IRECV))

#: The ten i64 columns, in serialization order.
_Q_COLUMNS = (
    "instr", "peer", "tag", "size", "channel", "sub", "elements",
    "context", "req", "aux",
)

#: Every column's array typecode, in serialization order.
_TYPECODES = {"op": "B", "rv": "b", "dur": "d", **dict.fromkeys(_Q_COLUMNS, "q")}

#: What a row holds in each column its record does not set (every
#: column but ``op``): :func:`from_traceset` writes these, and
#: :func:`new_rows` fills them in.
ROW_DEFAULTS = {
    "rv": -1, "dur": 0.0, "instr": -1, "peer": -1, "tag": 0, "size": 0,
    "channel": 0, "sub": 0, "elements": 0, "context": 0, "req": -1,
    "aux": -1,
}


class ColumnarFormatError(ValueError):
    """A byte string is not a valid columnar trace (truncated, corrupt,
    or produced by an incompatible schema version)."""


if sys.byteorder == "little":
    def _le_bytes(a: array) -> bytes:
        return a.tobytes()

    def _arr_from(typecode: str, data: bytes) -> array:
        a = array(typecode)
        a.frombytes(data)
        return a
else:  # pragma: no cover - big-endian hosts
    def _le_bytes(a: array) -> bytes:
        b = array(a.typecode, a)
        if b.itemsize > 1:
            b.byteswap()
        return b.tobytes()

    def _arr_from(typecode: str, data: bytes) -> array:
        a = array(typecode)
        a.frombytes(data)
        if a.itemsize > 1:
            a.byteswap()
        return a


class _Cursor:
    """Bounds-checked reader over a byte string.

    :meth:`take` returns a ``memoryview`` slice, not a copy: reading a
    cache entry copies only what it keeps (the core's columns, each
    distinct profile once), never the payload it walks over.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> memoryview:
        if n < 0 or self.pos + n > len(self.data):
            raise ColumnarFormatError(
                f"truncated payload: wanted {n} bytes at offset {self.pos}, "
                f"have {self.remaining}"
            )
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


class RankColumns:
    """The packed record stream of one rank.

    Parallel columns, one entry per record: ``op`` (u8 opcode), ``rv``
    (i8: -1 platform-decided, 0 eager, 1 rendezvous), ``dur`` (f8 CPU
    burst seconds) and ten i64 columns (``instr`` with -1 = unknown,
    ``peer``, ``tag``, ``size``, ``channel``, ``sub``, ``elements``,
    ``context``, ``req``, ``aux``).  ``aux`` indexes into the side
    tables for the rare variable-length records: ``waits`` (request-id
    tuples), ``events`` (``(name_index, value)``), ``colls``
    (7-tuples ``(op_index, root, send_size, recv_size, seq, context,
    members)``) and ``profiles`` (``(record_index, kind, interval
    bounds, float64 times)`` with kind 0 = production, 1 = consumption).
    """

    __slots__ = (
        "n", "op", "rv", "dur", "instr", "peer", "tag", "size", "channel",
        "sub", "elements", "context", "req", "aux",
        "waits", "events", "colls", "profiles",
    )

    def __init__(self) -> None:
        self.n = 0
        for name, code in _TYPECODES.items():
            setattr(self, name, array(code))
        self.waits: list[tuple[int, ...]] = []
        self.events: list[tuple[int, int]] = []
        self.colls: list[tuple[int, int, int, int, int, int, int]] = []
        self.profiles: list[tuple[int, int, float, float, np.ndarray]] = []


class ColumnarTrace:
    """A complete trace in packed columnar form.

    Carries the per-rank :class:`RankColumns`, the interned event /
    collective-op name tables, and the trace-level ``meta`` dict.  The
    :attr:`digest` is the content address used by plan caches, result
    caches and the worker dispatch store.  Like the digest, the trace's
    send/receive pairing is computed once, by
    :func:`repro.core.matching.match_columnar`, and kept here.
    """

    __slots__ = (
        "ranks", "names", "collops", "meta", "_core", "_digest", "_matching",
    )

    def __init__(
        self,
        ranks: list[RankColumns],
        names: list[str],
        collops: list[str],
        meta: dict | None = None,
    ):
        self.ranks = ranks
        self.names = names
        self.collops = collops
        self.meta: dict = dict(meta or {})
        self._core: bytes | None = None
        self._digest: str | None = None
        self._matching = None

    @property
    def nranks(self) -> int:
        return len(self.ranks)

    def total_records(self) -> int:
        return sum(rc.n for rc in self.ranks)

    # ------------------------------------------------------------------ #
    # Content digest.
    # ------------------------------------------------------------------ #
    @property
    def digest(self) -> str:
        """24-hex content address of the replay-semantic core.

        Excludes trace meta and access profiles: everything the replay
        simulator reads is covered, nothing else is.
        """
        if self._digest is None:
            core = self._build_core()
            self._digest = hashlib.sha256(
                _VERSION_SALT + core
            ).hexdigest()[:24]
        return self._digest

    def _build_core(self) -> bytes:
        if self._core is not None:
            return self._core
        hdr = json.dumps(
            {"collops": self.collops, "names": self.names},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        parts = [
            struct.pack("<I", len(hdr)), hdr,
            struct.pack("<I", len(self.ranks)),
        ]
        for rc in self.ranks:
            parts.append(struct.pack("<I", rc.n))
            parts.append(_le_bytes(rc.op))
            parts.append(_le_bytes(rc.rv))
            parts.append(_le_bytes(rc.dur))
            for name in _Q_COLUMNS:
                parts.append(_le_bytes(getattr(rc, name)))
            counts = array("q", (len(w) for w in rc.waits))
            flat = array("q")
            for w in rc.waits:
                flat.extend(w)
            parts.append(struct.pack("<II", len(rc.waits), len(flat)))
            parts.append(_le_bytes(counts))
            parts.append(_le_bytes(flat))
            ev = array("q")
            for ni, val in rc.events:
                ev.append(ni)
                ev.append(val)
            parts.append(struct.pack("<I", len(rc.events)))
            parts.append(_le_bytes(ev))
            cl = array("q")
            for t in rc.colls:
                cl.extend(t)
            parts.append(struct.pack("<I", len(rc.colls)))
            parts.append(_le_bytes(cl))
        self._core = b"".join(parts)
        return self._core

    # ------------------------------------------------------------------ #
    # Codec.
    # ------------------------------------------------------------------ #
    def encode(self) -> bytes:
        """Serialize to the versioned, checksummed binary form."""
        buf = io.BytesIO()
        self.write(buf)
        return buf.getvalue()

    def write(self, out: BinaryIO) -> None:
        """Stream :meth:`encode`'s bytes into the binary file ``out``.

        Access profiles are most of a traced application's bytes (tens
        of MB against hundreds of KB of records), so each profile array
        is written from its own buffer and the profile section's length
        and CRC-32 are computed over those views: writing an entry
        copies no profile.
        """
        core = self._build_core()
        sha = hashlib.sha256(_VERSION_SALT + core).digest()
        meta_json = json.dumps(
            self.meta, sort_keys=True, default=str
        ).encode("utf-8")
        prof = []
        for rank, rc in enumerate(self.ranks):
            for idx, kind, istart, iend, times in rc.profiles:
                t = np.ascontiguousarray(times, dtype="<f8")
                prof.append(struct.pack(
                    "<IIBddQ", rank, idx, kind, istart, iend, t.shape[0],
                ))
                prof.append(memoryview(t).cast("B"))
        out.writelines([
            MAGIC, struct.pack("<I", VERSION),
            struct.pack("<Q", len(core)), core, sha,
            struct.pack("<I", len(meta_json)), meta_json,
            struct.pack("<I", zlib.crc32(meta_json)),
            struct.pack("<B", 1 if prof else 0),
        ])
        if prof:
            prof.insert(0, struct.pack("<I", len(prof) // 2))
            crc = 0
            for part in prof:
                crc = zlib.crc32(part, crc)
            out.write(struct.pack("<Q", sum(map(len, prof))))
            out.writelines(prof)
            out.write(struct.pack("<I", crc))

    # ------------------------------------------------------------------ #
    # Back to record objects.
    # ------------------------------------------------------------------ #
    def to_traceset(self) -> TraceSet:
        """Rebuild the record-object form (lossless, see module doc)."""
        names = self.names
        collops = self.collops
        procs = []
        for rank, rc in enumerate(self.ranks):
            prof: dict[int, AccessProfile] = {}
            for idx, kind, istart, iend, times in rc.profiles:
                prof[idx] = AccessProfile(
                    kind="production" if kind == 0 else "consumption",
                    times=times, interval_start=istart, interval_end=iend,
                )
            records = []
            push = records.append
            for i in range(rc.n):
                o = rc.op[i]
                if o == OP_CPU:
                    instr = rc.instr[i]
                    push(CpuBurst(
                        rc.dur[i],
                        instructions=None if instr < 0 else instr,
                    ))
                elif o in _PTP_OPS:
                    args = (
                        rc.peer[i], rc.tag[i], rc.size[i], rc.channel[i],
                        rc.sub[i], rc.elements[i], rc.context[i],
                    )
                    rv = rc.rv[i]
                    rendezvous = None if rv < 0 else bool(rv)
                    if o == OP_SEND:
                        push(Send(*args, rendezvous=rendezvous,
                                  production=prof.get(i)))
                    elif o == OP_ISEND:
                        push(ISend(*args, request=rc.req[i],
                                   rendezvous=rendezvous,
                                   production=prof.get(i)))
                    elif o == OP_RECV:
                        push(Recv(*args, consumption=prof.get(i)))
                    else:
                        push(IRecv(*args, request=rc.req[i],
                                   consumption=prof.get(i)))
                elif o == OP_WAIT:
                    push(Wait(rc.waits[rc.aux[i]]))
                elif o == OP_COLL:
                    t = rc.colls[rc.aux[i]]
                    push(GlobalOp(
                        op=CollOp(collops[t[0]]), root=t[1], send_size=t[2],
                        recv_size=t[3], seq=t[4], context=t[5], members=t[6],
                    ))
                elif o == OP_EVENT:
                    ni, val = rc.events[rc.aux[i]]
                    push(Event(names[ni], value=val))
                else:
                    raise ColumnarFormatError(f"unknown opcode {o}")
            procs.append(ProcessTrace(rank, records))
        return TraceSet(procs, meta=dict(self.meta))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ColumnarTrace(nranks={self.nranks}, "
                f"records={self.total_records()})")


# --------------------------------------------------------------------------- #
# Building columns from record objects.
# --------------------------------------------------------------------------- #
def from_traceset(trace: TraceSet, with_profiles: bool = True) -> ColumnarTrace:
    """Pack a record-object trace into columns.

    ``with_profiles=False`` skips the access-profile side tables — the
    replay simulator never reads them, and the content digest is
    identical either way.

    Raises :class:`TypeError` for record types the codec does not know.
    """
    names: list[str] = []
    name_idx: dict[str, int] = {}
    collops: list[str] = []
    collop_idx: dict[str, int] = {}
    ranks = []
    for proc in trace.processes:
        rc = RankColumns()
        op_a, rv_a, dur_a = rc.op, rc.rv, rc.dur
        cols = [getattr(rc, name) for name in _Q_COLUMNS]
        (instr_a, peer_a, tag_a, size_a, channel_a, sub_a, elements_a,
         context_a, req_a, aux_a) = cols

        d = ROW_DEFAULTS

        def push(op, rv=d["rv"], dur=d["dur"], instr=d["instr"],
                 peer=d["peer"], tag=d["tag"], size=d["size"],
                 channel=d["channel"], sub=d["sub"], elements=d["elements"],
                 context=d["context"], req=d["req"], aux=d["aux"]):
            op_a.append(op)
            rv_a.append(rv)
            dur_a.append(dur)
            instr_a.append(instr)
            peer_a.append(peer)
            tag_a.append(tag)
            size_a.append(size)
            channel_a.append(channel)
            sub_a.append(sub)
            elements_a.append(elements)
            context_a.append(context)
            req_a.append(req)
            aux_a.append(aux)

        for i, rec in enumerate(proc.records):
            t = type(rec)
            if t is CpuBurst:
                push(OP_CPU, dur=rec.duration,
                     instr=-1 if rec.instructions is None else rec.instructions)
            elif t is Send or t is ISend:
                rv = -1 if rec.rendezvous is None else int(rec.rendezvous)
                push(OP_ISEND if t is ISend else OP_SEND, rv=rv,
                     peer=rec.peer, tag=rec.tag, size=rec.size,
                     channel=rec.channel, sub=rec.sub, elements=rec.elements,
                     context=rec.context,
                     req=rec.request if t is ISend else -1)
                if with_profiles and rec.production is not None:
                    p = rec.production
                    rc.profiles.append((
                        i, 0 if p.kind == "production" else 1,
                        p.interval_start, p.interval_end, p.times,
                    ))
            elif t is Recv or t is IRecv:
                push(OP_IRECV if t is IRecv else OP_RECV,
                     peer=rec.peer, tag=rec.tag, size=rec.size,
                     channel=rec.channel, sub=rec.sub, elements=rec.elements,
                     context=rec.context,
                     req=rec.request if t is IRecv else -1)
                if with_profiles and rec.consumption is not None:
                    p = rec.consumption
                    rc.profiles.append((
                        i, 0 if p.kind == "production" else 1,
                        p.interval_start, p.interval_end, p.times,
                    ))
            elif t is Wait:
                push(OP_WAIT, aux=len(rc.waits))
                rc.waits.append(rec.requests)
            elif t is GlobalOp:
                key = rec.op.value
                oi = collop_idx.get(key)
                if oi is None:
                    oi = collop_idx[key] = len(collops)
                    collops.append(key)
                push(OP_COLL, aux=len(rc.colls))
                rc.colls.append((
                    oi, rec.root, rec.send_size, rec.recv_size, rec.seq,
                    rec.context, rec.members,
                ))
            elif t is Event:
                ni = name_idx.get(rec.name)
                if ni is None:
                    ni = name_idx[rec.name] = len(names)
                    names.append(rec.name)
                push(OP_EVENT, aux=len(rc.events))
                rc.events.append((ni, rec.value))
            else:
                raise TypeError(
                    f"columnar codec cannot encode record type {t.__name__}"
                )
        rc.n = len(rc.op)
        ranks.append(rc)
    return ColumnarTrace(ranks, names, collops, meta=dict(trace.meta))


# --------------------------------------------------------------------------- #
# Building columns in bulk.
# --------------------------------------------------------------------------- #
def new_rows(n: int, op, **fields) -> dict[str, np.ndarray]:
    """The columns of ``n`` new rows, one NumPy array each.

    ``op`` and each named field are one value per row or one value for
    all of them; every other column holds its :data:`ROW_DEFAULTS`
    value, as in a row :func:`from_traceset` writes for a record that
    lacks the field.
    """
    unknown = fields.keys() - ROW_DEFAULTS.keys()
    if unknown:
        raise TypeError(f"unknown columns: {sorted(unknown)}")
    values = {"op": op, **ROW_DEFAULTS, **fields}
    return {
        name: np.broadcast_to(np.asarray(values[name], dtype=code), (n,))
        for name, code in _TYPECODES.items()
    }


def gather_rows(
    col: ColumnarTrace,
    blocks: list[dict[str, np.ndarray]],
    pos: np.ndarray,
    bounds: list[int],
) -> list[RankColumns]:
    """New ranks gathered from the rows of ``col`` and of ``blocks``.

    The rows are numbered as one sequence: every row of ``col``, rank
    after rank, then each block's (see :func:`new_rows`) in order.  Row
    ``pos[k]`` of that sequence becomes row ``k`` of the output, which
    is cut into ranks at ``bounds`` (``bounds[r]:bounds[r + 1]`` is
    rank ``r``).  Values are copied as they are, ``aux`` included; the
    side tables are left empty for the caller to fill.
    """
    ranks = [RankColumns() for _ in bounds[1:]]
    for name, code in _TYPECODES.items():
        parts = [np.frombuffer(getattr(rc, name), dtype=code)
                 for rc in col.ranks]
        parts.extend(block[name] for block in blocks)
        values = np.concatenate(parts)[pos]
        for rc, lo, hi in zip(ranks, bounds, bounds[1:]):
            setattr(rc, name, array(code, values[lo:hi].tobytes()))
    for rc, lo, hi in zip(ranks, bounds, bounds[1:]):
        rc.n = hi - lo
    return ranks


# --------------------------------------------------------------------------- #
# Decoding.
# --------------------------------------------------------------------------- #
def decode(data: bytes) -> ColumnarTrace:
    """Parse and verify a byte string produced by :meth:`encode`.

    Raises :class:`ColumnarFormatError` on bad magic, an unsupported
    schema version, truncation, checksum mismatch or trailing garbage —
    a damaged entry is never partially decoded.
    """
    if len(data) > ingest_limits().max_trace_bytes:
        raise ColumnarFormatError(
            f"columnar payload is {len(data)} bytes, over the "
            f"{ingest_limits().max_trace_bytes:.0f}-byte ingest cap "
            "(REPRO_MAX_TRACE_MB)"
        )
    cur = _Cursor(data)
    if cur.take(4) != MAGIC:
        raise ColumnarFormatError("not a columnar trace (bad magic)")
    version = cur.u32()
    if version != VERSION:
        raise ColumnarFormatError(
            f"unsupported columnar schema version {version} "
            f"(this codec reads version {VERSION})"
        )
    core = bytes(cur.take(cur.u64()))
    sha = cur.take(32)
    if hashlib.sha256(_VERSION_SALT + core).digest() != sha:
        raise ColumnarFormatError("core checksum mismatch")

    meta_json = cur.take(cur.u32())
    if zlib.crc32(meta_json) != cur.u32():
        raise ColumnarFormatError("meta checksum mismatch")
    try:
        meta = json.loads(str(meta_json, "utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ColumnarFormatError(f"undecodable meta: {exc}") from None

    flags = cur.u8()
    if flags & ~1:
        raise ColumnarFormatError(f"unknown flags 0x{flags:02x}")
    profile_payload = None
    if flags & 1:
        profile_payload = cur.take(cur.u64())
        if zlib.crc32(profile_payload) != cur.u32():
            raise ColumnarFormatError("profile checksum mismatch")
    if cur.remaining:
        raise ColumnarFormatError(
            f"{cur.remaining} trailing byte(s) after payload"
        )

    col = _decode_core(core)
    col._digest = hashlib.sha256(_VERSION_SALT + core).hexdigest()[:24]
    col.meta = meta if isinstance(meta, dict) else {}
    if profile_payload is not None:
        _decode_profiles(col, profile_payload)
    return col


def _decode_core(core: bytes) -> ColumnarTrace:
    cur = _Cursor(core)
    try:
        hdr = json.loads(str(cur.take(cur.u32()), "utf-8"))
        names = list(hdr["names"])
        collops = list(hdr["collops"])
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
        raise ColumnarFormatError(f"undecodable core header: {exc}") from None
    limits = ingest_limits()
    nranks = cur.u32()
    if nranks > limits.max_ranks:
        raise ColumnarFormatError(
            f"{nranks} ranks, over the {limits.max_ranks:.0f}-rank "
            "ingest cap (REPRO_MAX_RANKS)"
        )
    total_records = 0
    ranks = []
    for _ in range(nranks):
        rc = RankColumns()
        n = rc.n = cur.u32()
        total_records += n
        if total_records > limits.max_records:
            raise ColumnarFormatError(
                f"more than {limits.max_records:.0f} records "
                "(REPRO_MAX_RECORDS)"
            )
        rc.op = _arr_from("B", cur.take(n))
        rc.rv = _arr_from("b", cur.take(n))
        rc.dur = _arr_from("d", cur.take(8 * n))
        for name in _Q_COLUMNS:
            setattr(rc, name, _arr_from("q", cur.take(8 * n)))
        n_waits = cur.u32()
        flat_len = cur.u32()
        counts = _arr_from("q", cur.take(8 * n_waits))
        flat = _arr_from("q", cur.take(8 * flat_len))
        pos = 0
        for c in counts:
            if c < 0 or pos + c > flat_len:
                raise ColumnarFormatError("inconsistent wait table")
            rc.waits.append(tuple(flat[pos:pos + c]))
            pos += c
        n_events = cur.u32()
        ev = _arr_from("q", cur.take(16 * n_events))
        rc.events = [(ev[2 * i], ev[2 * i + 1]) for i in range(n_events)]
        n_colls = cur.u32()
        cl = _arr_from("q", cur.take(56 * n_colls))
        rc.colls = [tuple(cl[7 * i:7 * i + 7]) for i in range(n_colls)]
        ranks.append(rc)
    if cur.remaining:
        raise ColumnarFormatError("trailing bytes inside core section")
    col = ColumnarTrace(ranks, names, collops)
    col._core = core
    return col


def _decode_profiles(col: ColumnarTrace, payload: memoryview) -> None:
    """Fill the ranks' profile side tables from ``payload``.

    Each array is read where it lies in the payload and copied only
    when its bytes are new to this trace (:func:`intern_times`), so
    the payload can be freed and equal profiles share one array.
    """
    cur = _Cursor(payload)
    table: dict = {}
    count = cur.u32()
    for _ in range(count):
        head = cur.take(struct.calcsize("<IIBddQ"))
        rank, idx, kind, istart, iend, nelem = struct.unpack("<IIBddQ", head)
        view = np.frombuffer(cur.take(8 * nelem), dtype="<f8")
        if rank >= col.nranks or idx >= col.ranks[rank].n:
            raise ColumnarFormatError(
                f"profile references record {idx} of rank {rank} "
                "which does not exist"
            )
        times = intern_times(table, view, copy=True)
        col.ranks[rank].profiles.append((idx, kind, istart, iend, times))
    if cur.remaining:
        raise ColumnarFormatError("trailing bytes inside profile section")


# --------------------------------------------------------------------------- #
# Weak memoization for the object -> columns conversion.
# --------------------------------------------------------------------------- #
_memo: "weakref.WeakKeyDictionary[TraceSet, tuple]" = weakref.WeakKeyDictionary()


def columnar_of(trace: "TraceSet | ColumnarTrace") -> ColumnarTrace:
    """The columnar form of a trace, weak-memoized per TraceSet.

    Profiles are skipped (the conversion feeds replay planning and
    content digests, neither reads them).  The memo is fingerprinted by
    each rank's record count and :attr:`ProcessTrace.edits`, so
    appending records or calling :meth:`ProcessTrace.invalidate`
    invalidates it.  A direct edit of a record's fields is not seen
    otherwise: call ``invalidate()`` on its process after one, or the
    old columns are returned.
    """
    if isinstance(trace, ColumnarTrace):
        return trace
    fp = tuple((len(p.records), p.edits) for p in trace.processes)
    hit = _memo.get(trace)
    if hit is not None and hit[0] == fp:
        return hit[1]
    col = from_traceset(trace, with_profiles=False)
    _memo[trace] = (fp, col)
    return col
