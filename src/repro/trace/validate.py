"""Structural validation of trace sets.

The replay simulator assumes well-formed traces: every non-blocking
request is waited exactly once, every send has a matching receive with
an identical size on the same matching key, and collective records line
up across ranks.  Malformed traces would deadlock (or worse, silently
mis-match) during replay, so both the tracer and the overlap
transformation validate their outputs in tests.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..core.matching import match_columnar
from .columnar import (
    OP_COLL,
    OP_CPU,
    OP_IRECV,
    OP_ISEND,
    OP_RECV,
    OP_SEND,
    OP_WAIT,
    ColumnarTrace,
    columnar_of,
)
from .records import TraceSet

_PTP_OPS = (OP_SEND, OP_ISEND, OP_RECV, OP_IRECV)

__all__ = ["ValidationError", "ValidationIssue", "ValidationReport", "validate"]


class ValidationIssue(str):
    """One validation finding: a message with a structured location.

    A ``str`` subclass, so code that formats or substring-matches
    issues keeps working unchanged; ``rank`` and ``record`` expose the
    location machine-readably (``None`` when the finding is global or
    not tied to one record), letting fault-injection tests assert that
    the *right* rank/record was blamed.
    """

    rank: int | None
    record: int | None

    def __new__(
        cls, msg: str, rank: int | None = None, record: int | None = None,
    ) -> "ValidationIssue":
        self = super().__new__(cls, msg)
        self.rank = rank
        self.record = record
        return self


class ValidationError(ValueError):
    """Raised by :func:`validate` in strict mode when issues are found.

    ``report`` carries the full :class:`ValidationReport` (the message
    shows at most the first 20 issues).
    """

    def __init__(self, msg: str, report: "ValidationReport | None" = None):
        super().__init__(msg)
        self.report = report


@dataclass
class ValidationReport:
    """Outcome of trace validation.

    ``issues`` is empty for a well-formed trace.  Each issue is a
    :class:`ValidationIssue` — a human-readable string prefixed with
    ``rank=`` or ``global:`` that also carries ``rank`` / ``record``
    attributes locating the finding.
    """

    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(
        self, msg: str, rank: int | None = None, record: int | None = None,
    ) -> None:
        self.issues.append(ValidationIssue(msg, rank=rank, record=record))

    def for_rank(self, rank: int) -> list[ValidationIssue]:
        """The issues attributed to one rank."""
        return [i for i in self.issues if i.rank == rank]

    def __bool__(self) -> bool:
        return self.ok


def validate(
    trace: "TraceSet | ColumnarTrace", strict: bool = False,
) -> ValidationReport:
    """Validate a :class:`~repro.trace.records.TraceSet` or its columns.

    The checks read :func:`~repro.trace.columnar.columnar_of` the trace
    (a :class:`ColumnarTrace` as it is).  Those columns are memoized per
    TraceSet, so after editing a record's fields in place call
    :meth:`~repro.trace.records.ProcessTrace.invalidate` on its process,
    or the edit is not seen.  Checks:

    * request discipline per rank (unique ids; waits reference posted,
      not-yet-waited requests; no dangling requests at process end);
    * global point-to-point matching: for every key
      ``(src, dst, context, channel, tag, sub)`` the send and receive
      sequences have equal length and pairwise-equal sizes — the
      pairing of :func:`repro.core.matching.match_columnar`, which the
      transformation and the replay use too;
    * collective alignment: every rank observes the same ordered
      sequence of ``(op, root, seq)`` GlobalOp records;
    * burst sanity: finite, non-negative durations.

    With ``strict=True`` raises :class:`ValidationError` listing the
    first issues instead of returning a failing report.
    """
    col = columnar_of(trace)
    nranks = col.nranks
    report = ValidationReport()
    collectives: list[list[tuple]] = []

    def flag(rank: int, i: int, msg: str) -> None:
        report.add(f"rank={rank} record={i}: {msg}", rank=rank, record=i)

    for rank, rc in enumerate(col.ranks):
        posted: set[int] = set()
        completed: set[int] = set()
        coll_seq: list[tuple] = []
        op, peer, req, aux = rc.op, rc.peer, rc.req, rc.aux
        for i in range(rc.n):
            o = op[i]
            if o == OP_CPU:
                if rc.dur[i] < 0:
                    flag(rank, i, f"negative burst duration {rc.dur[i]}")
            elif o in _PTP_OPS:
                if peer[i] >= nranks:
                    way = "send to" if o in (OP_SEND, OP_ISEND) else "recv from"
                    flag(rank, i, f"{way} out-of-range rank {peer[i]}")
                if o == OP_ISEND or o == OP_IRECV:
                    if req[i] in posted or req[i] in completed:
                        flag(rank, i, f"duplicate request id {req[i]}")
                    posted.add(req[i])
            elif o == OP_WAIT:
                for q in rc.waits[aux[i]]:
                    if q in completed:
                        flag(rank, i, f"request {q} waited twice")
                    elif q not in posted:
                        flag(rank, i, f"wait on unknown request {q}")
                    else:
                        posted.discard(q)
                        completed.add(q)
            elif o == OP_COLL:
                c_op, root, _, _, seq, context, members = rc.colls[aux[i]]
                coll_seq.append((context, c_op, root, seq, members))
        if posted:
            report.add(
                f"rank={rank}: {len(posted)} request(s) never waited: "
                f"{sorted(posted)[:8]}",
                rank=rank,
            )
        collectives.append(coll_seq)

    # Point-to-point matching.
    for key, sends, recvs, pairs in match_columnar(col).by_key():
        if sends != recvs:
            report.add(f"global: key {key}: {sends} send(s) vs {recvs} recv(s)")
        for p in pairs:
            rsize = col.ranks[p.dst].size[p.recv_index]
            if p.size != rsize:
                report.add(
                    f"global: size mismatch on key {key}: "
                    f"rank={p.src} record={p.send_index} sends {p.size} "
                    f"bytes, rank={p.dst} record={p.recv_index} expects "
                    f"{rsize}",
                    rank=p.src, record=p.send_index,
                )

    # Collective alignment, per communicator context: every rank that
    # participates in a context must observe the same ordered sequence
    # of operations, and the participant count must match ``members``
    # when it is recorded (0 = the whole world).
    per_context: dict[int, dict[int, list]] = defaultdict(dict)
    for rank, seq in enumerate(collectives):
        for ctx, op, root, sq, members in seq:
            per_context[ctx].setdefault(rank, []).append((op, root, sq, members))
    for ctx, by_rank in sorted(per_context.items()):
        participants = sorted(by_rank)
        ref_rank = participants[0]
        ref = by_rank[ref_rank]
        for rank in participants[1:]:
            if by_rank[rank] != ref:
                report.add(
                    f"global: context {ctx}: collective sequence of rank "
                    f"{rank} differs from rank {ref_rank}"
                )
        declared = {m for ops in by_rank.values() for (_, _, _, m) in ops}
        for m in declared:
            expected = m if m > 0 else nranks
            if len(participants) != expected:
                report.add(
                    f"global: context {ctx}: {len(participants)} "
                    f"participant(s) but collectives declare {expected}"
                )

    if strict and not report.ok:
        raise ValidationError(
            f"trace validation failed with {len(report.issues)} issue(s):\n"
            + "\n".join(report.issues[:20]),
            report=report,
        )
    return report
