"""Dimemas-style text serialization of trace sets.

The original framework stores traces in the Dimemas ``.dim`` text
format.  We define a line-oriented dialect, ``DIMEMAS-REPRO:1``, that
round-trips every field of :mod:`repro.trace.records`, including the
per-element access profiles the overlap transformation needs (these are
the framework's equivalent of the extra information the paper's
Valgrind tool embeds in its traces).

Grammar (one record per line, ``:``-separated fields)::

    #DIMEMAS-REPRO:1
    #META:<json object>                  (optional, once)
    P:<rank>                             process header
    B:<duration>:<instructions|->        cpu burst
    S:<peer>:<tag>:<size>:<chan>:<sub>:<elems>:<ctx>:<rv>        blocking send
    IS:<peer>:<tag>:<size>:<chan>:<sub>:<elems>:<ctx>:<req>:<rv> immediate send
    R:<peer>:<tag>:<size>:<chan>:<sub>:<elems>:<ctx>             blocking recv
    IR:<peer>:<tag>:<size>:<chan>:<sub>:<elems>:<ctx>:<req>      immediate recv
    W:<req>[,<req>...]                   wait
    G:<op>:<root>:<send>:<recv>:<seq>:<ctx>:<members>  collective (analytic form)
    E:<name>:<value>                     user event
    AP:<kind>:<istart>:<iend>:<n>:<b64>  access profile -> previous record

``rv`` is ``0``/``1``/``-`` (force eager / force rendezvous / platform
default).  ``AP`` lines attach to the immediately preceding S/IS (kind
``production``) or R/IR (kind ``consumption``) record; the ``b64``
payload is the little-endian float64 ``times`` array.

Ingestion is hardened (see :mod:`repro.audit.limits`): total input
size, line length, process count, and record count are capped before
allocation, and :func:`loads`/:func:`load` accept
``errors="quarantine"`` to skip malformed *record* lines (collected
with line attribution in ``trace.meta["quarantined_records"]``)
instead of aborting the whole file.  Structural damage — a missing
magic, a broken ``#META``/``P:`` header, or a blown cap — stays fatal
in both modes.
"""

from __future__ import annotations

import base64
import io
import json
import os
from pathlib import Path
from typing import TextIO

import numpy as np

from ..audit.limits import ingest_limits
from ..obs import span as _span
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
    Record,
    Send,
    TraceSet,
    Wait,
)

__all__ = ["dump", "dumps", "load", "loads", "TraceFormatError"]

_MAGIC = "#DIMEMAS-REPRO:1"


class TraceFormatError(ValueError):
    """Raised when parsing an invalid or corrupt trace file."""


def _fmt_rv(rv: bool | None) -> str:
    return "-" if rv is None else ("1" if rv else "0")


def _parse_rv(s: str) -> bool | None:
    if s == "-":
        return None
    if s in ("0", "1"):
        return s == "1"
    raise TraceFormatError(f"invalid rendezvous flag {s!r}")


def _profile_lines(profile: AccessProfile | None) -> list[str]:
    if profile is None:
        return []
    payload = base64.b64encode(
        np.ascontiguousarray(profile.times, dtype="<f8").tobytes()
    ).decode("ascii")
    return [
        f"AP:{profile.kind}:{profile.interval_start!r}:{profile.interval_end!r}"
        f":{profile.elements}:{payload}"
    ]


def _record_lines(rec: Record) -> list[str]:
    if isinstance(rec, CpuBurst):
        instr = "-" if rec.instructions is None else str(rec.instructions)
        return [f"B:{rec.duration!r}:{instr}"]
    if isinstance(rec, ISend):
        return [
            f"IS:{rec.peer}:{rec.tag}:{rec.size}:{rec.channel}:{rec.sub}"
            f":{rec.elements}:{rec.context}:{rec.request}:{_fmt_rv(rec.rendezvous)}"
        ] + _profile_lines(rec.production)
    if isinstance(rec, Send):
        return [
            f"S:{rec.peer}:{rec.tag}:{rec.size}:{rec.channel}:{rec.sub}"
            f":{rec.elements}:{rec.context}:{_fmt_rv(rec.rendezvous)}"
        ] + _profile_lines(rec.production)
    if isinstance(rec, IRecv):
        return [
            f"IR:{rec.peer}:{rec.tag}:{rec.size}:{rec.channel}:{rec.sub}"
            f":{rec.elements}:{rec.context}:{rec.request}"
        ] + _profile_lines(rec.consumption)
    if isinstance(rec, Recv):
        return [
            f"R:{rec.peer}:{rec.tag}:{rec.size}:{rec.channel}:{rec.sub}"
            f":{rec.elements}:{rec.context}"
        ] + _profile_lines(rec.consumption)
    if isinstance(rec, Wait):
        return ["W:" + ",".join(str(r) for r in rec.requests)]
    if isinstance(rec, GlobalOp):
        return [f"G:{rec.op.value}:{rec.root}:{rec.send_size}:{rec.recv_size}:{rec.seq}:{rec.context}:{rec.members}"]
    if isinstance(rec, Event):
        return [f"E:{rec.name}:{rec.value}"]
    raise TypeError(f"unsupported record type: {type(rec).__name__}")


def dump(trace: TraceSet, fp: TextIO | str | Path) -> None:
    """Serialize ``trace`` to a file path or text stream."""
    if isinstance(fp, (str, Path)):
        with _span("trace.dim.dump", nranks=trace.nranks):
            with open(fp, "w", encoding="ascii") as f:
                dump(trace, f)
        return
    fp.write(_MAGIC + "\n")
    if trace.meta:
        fp.write("#META:" + json.dumps(trace.meta, sort_keys=True, default=str) + "\n")
    for proc in trace:
        fp.write(f"P:{proc.rank}\n")
        for rec in proc:
            for line in _record_lines(rec):
                fp.write(line + "\n")


def dumps(trace: TraceSet) -> str:
    """Serialize ``trace`` to a string."""
    buf = io.StringIO()
    dump(trace, buf)
    return buf.getvalue()


def _parse_profile(parts: list[str]) -> AccessProfile:
    if len(parts) != 5:
        raise TraceFormatError(f"malformed AP line: expected 5 fields, got {len(parts)}")
    kind, istart, iend, n, payload = parts
    times = np.frombuffer(base64.b64decode(payload), dtype="<f8").astype(np.float64)
    if times.shape[0] != int(n):
        raise TraceFormatError(
            f"AP element count mismatch: header says {n}, payload has {times.shape[0]}"
        )
    return AccessProfile(
        kind=kind,
        times=times,
        interval_start=float(istart),
        interval_end=float(iend),
    )


def load(fp: TextIO | str | Path, errors: str = "raise") -> TraceSet:
    """Parse a trace from a file path or text stream.

    For paths, the file size is checked against the ingest cap
    *before* the bytes are read, so an oversized file never reaches
    memory.  ``errors`` is forwarded to :func:`loads`.
    """
    if isinstance(fp, (str, Path)):
        limits = ingest_limits()
        size = os.stat(fp).st_size
        if size > limits.max_trace_bytes:
            raise TraceFormatError(
                f"trace file is {size} bytes, over the "
                f"{limits.max_trace_bytes:.0f}-byte ingest cap "
                "(REPRO_MAX_TRACE_MB)"
            )
        with _span("trace.dim.load"):
            with open(fp, "r", encoding="ascii") as f:
                return load(f, errors=errors)
    return loads(fp.read(), errors=errors)


def loads(text: str, errors: str = "raise") -> TraceSet:
    """Parse a trace from a string.

    ``errors="quarantine"`` skips malformed *record* lines instead of
    aborting: each skipped line is collected (rank, line number, record
    kind, reason, a clip of the text) in
    ``trace.meta["quarantined_records"]``.  Structural errors — bad
    magic, broken ``#META`` or ``P:`` headers, blown resource caps —
    are fatal in both modes.
    """
    if errors not in ("raise", "quarantine"):
        raise ValueError(f"errors must be 'raise' or 'quarantine', got {errors!r}")
    limits = ingest_limits()
    if len(text) > limits.max_trace_bytes:
        raise TraceFormatError(
            f"trace text is {len(text)} bytes, over the "
            f"{limits.max_trace_bytes:.0f}-byte ingest cap (REPRO_MAX_TRACE_MB)"
        )
    lines = text.splitlines()
    if not lines or lines[0].strip() != _MAGIC:
        raise TraceFormatError(f"missing magic header {_MAGIC!r}")
    meta: dict = {}
    processes: list[ProcessTrace] = []
    current: ProcessTrace | None = None
    last_record: Record | None = None
    quarantined: list[dict] = []
    nrecords = 0

    for lineno, raw in enumerate(lines[1:], start=2):
        if len(raw) > limits.max_line_len:
            raise TraceFormatError(
                f"line {lineno}: {len(raw)} characters, over the "
                f"{limits.max_line_len:.0f}-character line cap "
                "(REPRO_MAX_LINE_LEN)"
            )
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#META:"):
            try:
                meta = json.loads(line[len("#META:"):])
            except ValueError as exc:
                raise TraceFormatError(
                    f"line {lineno}: malformed #META json: {exc}"
                ) from None
            if not isinstance(meta, dict):
                raise TraceFormatError(
                    f"line {lineno}: #META must be a json object"
                )
            continue
        if line.startswith("#"):
            continue
        kind, _, rest = line.partition(":")
        parts = rest.split(":") if rest else []
        if kind == "P":
            if len(processes) >= limits.max_ranks:
                raise TraceFormatError(
                    f"line {lineno}: more than {limits.max_ranks:.0f} "
                    "processes (REPRO_MAX_RANKS)"
                )
            try:
                current = ProcessTrace(int(parts[0]))
            except (IndexError, ValueError) as exc:
                raise TraceFormatError(
                    f"line {lineno}: malformed 'P' record: {exc}"
                ) from exc
            processes.append(current)
            last_record = None
            continue
        nrecords += 1
        if nrecords > limits.max_records:
            raise TraceFormatError(
                f"line {lineno}: more than {limits.max_records:.0f} "
                "records (REPRO_MAX_RECORDS)"
            )
        try:
            if current is None:
                raise TraceFormatError("record before first process header")
            if kind == "AP":
                profile = _parse_profile(parts)
                # A profile rides in the record field named after its kind.
                takes = (Send, ISend) if profile.kind == "production" else (Recv, IRecv)
                if not isinstance(last_record, takes):
                    raise TraceFormatError(
                        f"AP:{profile.kind} does not attach to "
                        f"{type(last_record).__name__}"
                    )
                if getattr(last_record, profile.kind) is not None:
                    raise TraceFormatError(
                        f"second AP:{profile.kind} line for one "
                        f"{type(last_record).__name__}"
                    )
                setattr(last_record, profile.kind, profile)
                continue
            rec: Record
            if kind == "B":
                instr = None if parts[1] == "-" else int(parts[1])
                rec = CpuBurst(float(parts[0]), instructions=instr)
            elif kind == "S":
                rec = Send(
                    peer=int(parts[0]), tag=int(parts[1]), size=int(parts[2]),
                    channel=int(parts[3]), sub=int(parts[4]), elements=int(parts[5]),
                    context=int(parts[6]), rendezvous=_parse_rv(parts[7]),
                )
            elif kind == "IS":
                rec = ISend(
                    peer=int(parts[0]), tag=int(parts[1]), size=int(parts[2]),
                    channel=int(parts[3]), sub=int(parts[4]), elements=int(parts[5]),
                    context=int(parts[6]), request=int(parts[7]),
                    rendezvous=_parse_rv(parts[8]),
                )
            elif kind == "R":
                rec = Recv(
                    peer=int(parts[0]), tag=int(parts[1]), size=int(parts[2]),
                    channel=int(parts[3]), sub=int(parts[4]), elements=int(parts[5]),
                    context=int(parts[6]),
                )
            elif kind == "IR":
                rec = IRecv(
                    peer=int(parts[0]), tag=int(parts[1]), size=int(parts[2]),
                    channel=int(parts[3]), sub=int(parts[4]), elements=int(parts[5]),
                    context=int(parts[6]), request=int(parts[7]),
                )
            elif kind == "W":
                rec = Wait(tuple(int(x) for x in parts[0].split(",")))
            elif kind == "G":
                rec = GlobalOp(
                    op=CollOp(parts[0]), root=int(parts[1]),
                    send_size=int(parts[2]), recv_size=int(parts[3]),
                    seq=int(parts[4]), context=int(parts[5]),
                    members=int(parts[6]),
                )
            elif kind == "E":
                rec = Event(name=parts[0], value=int(parts[1]))
            else:
                raise TraceFormatError(f"unknown record kind {kind!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, TraceFormatError):
                message = str(exc)
            else:
                message = f"malformed {kind!r} record: {exc}"
            if errors == "quarantine" and current is not None:
                quarantined.append({
                    "rank": current.rank,
                    "line": lineno,
                    "kind": kind,
                    "reason": message,
                    "text": line[:200],
                })
                # A following AP line must not attach to the record
                # *before* the one we just dropped.
                last_record = None
                continue
            if isinstance(exc, TraceFormatError):
                raise TraceFormatError(f"line {lineno}: {exc}") from None
            raise TraceFormatError(f"line {lineno}: {message}") from exc
        current.append(rec)
        last_record = rec

    if not processes:
        raise TraceFormatError("trace contains no processes")
    if quarantined:
        meta = dict(meta)
        meta["quarantined_records"] = quarantined
    try:
        return TraceSet(processes, meta=meta)
    except ValueError as exc:
        # e.g. duplicate or out-of-order 'P' headers: still a parse
        # error of this text, not an internal failure.
        raise TraceFormatError(f"inconsistent process table: {exc}") from exc
