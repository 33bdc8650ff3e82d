"""Determinism certification: digests, divergence, trace certification.

Three layers of trust checking on top of the invariant auditor:

* :func:`result_digest` — a stable content hash over a
  :class:`~repro.dimemas.results.SimResult`.  Floats are encoded via
  ``repr`` (the same bit-exact round-trip the caches rely on), so two
  results digest equal iff they are value-identical.
* :func:`divergence` — per-rank attribution of *where* two results of
  the same trace differ (state intervals, events, end times, outgoing
  message flights).  This is how a structurally benign perturbation —
  e.g. one rank's compute bursts all scaled by one factor — is pinned
  to the rank it touched.
* :func:`certify_trace` — the ``repro-verify`` pipeline for one trace:
  structural validation, an audited replay, and (optionally) a second
  replay compared digest-for-digest.  Everything folds into one
  :class:`~repro.audit.auditor.IntegrityReport`.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict

from ..core.matching import match_columnar
from .auditor import AuditConfig, IntegrityReport, Violation, resolve_level

__all__ = ["certify_trace", "divergence", "result_digest"]


def result_digest(result) -> str:
    """Stable 24-hex content digest of a :class:`SimResult`.

    Canonical JSON over :meth:`~repro.dimemas.results.SimResult.to_dict`
    (sorted keys, ``repr``-exact floats): bit-identical results — and
    only those — share a digest, so comparing digests is comparing
    simulations.
    """
    blob = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":"),
        default=repr,
    ).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _rank_fingerprints(result) -> list[tuple]:
    """Per-rank observable behaviour: (end, states, events, out-msgs)."""
    outgoing: dict[int, list] = defaultdict(list)
    for m in result.messages:
        outgoing[m.src].append((m.t_send, m.dst, m.size, m.tag))
    return [
        (
            result.rank_end[r],
            tuple(result.states[r]) if r < len(result.states) else (),
            tuple(result.events[r]) if r < len(result.events) else (),
            tuple(outgoing.get(r, ())),
        )
        for r in range(result.nranks)
    ]


def divergence(baseline, other) -> list[Violation]:
    """Rank-attributed differences between two results of one trace.

    Compares, per rank: end time, state intervals, user events, and
    the outgoing message flights (send time/destination/size/tag).
    Returns one ``determinism.divergence`` violation per differing
    rank — empty when the results describe the same execution.
    """
    if baseline.nranks != other.nranks:
        return [Violation(
            code="determinism.divergence",
            message=(
                f"rank count differs: {baseline.nranks} vs {other.nranks}"
            ),
        )]
    out: list[Violation] = []
    parts = ("end time", "state intervals", "events", "outgoing messages")
    for rank, (a, b) in enumerate(
        zip(_rank_fingerprints(baseline), _rank_fingerprints(other))
    ):
        if a == b:
            continue
        what = [name for name, x, y in zip(parts, a, b) if x != y]
        out.append(Violation(
            code="determinism.divergence",
            message=(
                f"rank {rank} diverges from the baseline replay "
                f"({', '.join(what)})"
            ),
            ranks=(rank,),
        ))
    return out


def _matching_violations(col) -> list[Violation]:
    """Endpoint-attributed point-to-point matching checks.

    :func:`repro.trace.validate.validate` reports count mismatches as
    *global* issues (no rank); for certification we want the fault
    pinned to the endpoints of the broken key, so both endpoints are
    ranked here — the perturbed rank is always one of the two.  Reads
    the trace's one :func:`~repro.core.matching.match_columnar` result.
    """
    out: list[Violation] = []
    for key, sends, recvs, pairs in match_columnar(col).by_key():
        src, dst = key[0], key[1]
        if sends != recvs:
            out.append(Violation(
                code="match.cardinality",
                message=(
                    f"key src={src} dst={dst} tag={key[4]}: "
                    f"{sends} send(s) vs {recvs} recv(s)"
                ),
                ranks=(src, dst),
            ))
        for i, p in enumerate(pairs):
            rsize = col.ranks[dst].size[p.recv_index]
            if p.size != rsize:
                out.append(Violation(
                    code="match.size",
                    message=(
                        f"key src={src} dst={dst} tag={key[4]} pair {i}: "
                        f"send {p.size} byte(s) vs recv {rsize}"
                    ),
                    ranks=(src, dst),
                ))
    return out


def certify_trace(
    trace,
    machine=None,
    level: str = "full",
    baseline=None,
    double_replay: bool = False,
) -> IntegrityReport:
    """Certify one trace: validate, audited replay, determinism check.

    Stages (all folded into the returned report):

    1. structural validation (:func:`repro.trace.validate.validate`),
       rank-attributed issues becoming ``validate.structure``
       violations, plus endpoint-attributed matching checks;
    2. an audited replay at ``level`` — a deadlock or watchdog becomes
       a ``replay.deadlock`` / ``replay.watchdog`` violation naming the
       blocked ranks, otherwise the auditor's violations are folded in;
    3. determinism: with ``double_replay`` the trace replays a second
       time and the two result digests must agree; with ``baseline``
       (a :class:`SimResult` of the *unperturbed* trace) any per-rank
       divergence is attributed via :func:`divergence`.

    ``trace`` may be a :class:`TraceSet` or a ``ColumnarTrace``.
    """
    from ..dimemas.machine import MachineConfig
    from ..dimemas.replay import DeadlockError, SimulationTimeout, simulate
    from ..trace.columnar import columnar_of
    from ..trace.validate import validate

    level = resolve_level(level)
    cfg = machine or MachineConfig()
    col = columnar_of(trace)

    violations: list[Violation] = []
    checks = ["validate.structure", "match"]
    for issue in validate(col).issues:
        ranks = (issue.rank,) if issue.rank is not None else ()
        violations.append(Violation(
            code="validate.structure", message=str(issue), ranks=ranks,
        ))
    violations.extend(_matching_violations(col))

    audit = AuditConfig(
        level=level if level != "off" else "basic", strict=False,
    )
    result = None
    try:
        result = simulate(trace, cfg, audit=audit)
    except DeadlockError as exc:
        blocked = tuple(sorted({
            b.rank for b in exc.report.blocked
        } | {
            b.peer for b in exc.report.blocked if b.peer is not None
        }))
        violations.append(Violation(
            code="replay.deadlock",
            message=f"replay deadlocked: {len(exc.report.blocked)} "
                    "rank(s) blocked",
            ranks=blocked,
            time=exc.report.sim_time,
        ))
    except SimulationTimeout as exc:
        violations.append(Violation(
            code="replay.watchdog",
            message=f"replay watchdog expired ({exc.reason})",
        ))
    else:
        if audit.report is not None:
            checks.extend(audit.report.checks)
            violations.extend(audit.report.violations)
        if double_replay:
            checks.append("determinism.double_replay")
            second = simulate(trace, cfg, audit=None)
            d0, d1 = result_digest(result), result_digest(second)
            if d0 != d1:
                violations.append(Violation(
                    code="determinism.double_replay",
                    message=(
                        f"two replays of the same trace produced "
                        f"different results ({d0} vs {d1})"
                    ),
                ))
        if baseline is not None:
            checks.append("determinism.divergence")
            violations.extend(divergence(baseline, result))

    return IntegrityReport(
        level=level,
        nranks=col.nranks,
        checks=tuple(dict.fromkeys(checks)),
        violations=violations,
        trace_digest=col.digest,
    )
