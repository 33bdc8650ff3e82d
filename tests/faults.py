"""Seeded, deterministic fault injection for traces (test tooling).

The injectors perturb well-formed traces into the malformed inputs the
robustness layer must survive: dropped, duplicated, or reordered
records, corrupted message sizes, truncated rank streams, and skewed
timestamps.  Every injector is a pure function of ``(trace, seed)`` —
the same seed always produces the same perturbation — so failure
scenarios reproduce exactly in tests and bug reports::

    from tests import faults

    mutant, fault = faults.inject(trace, "drop", seed=7)
    # fault names the rank / record index that was perturbed, so a
    # downstream ValidationIssue or DeadlockReport can be checked
    # against it.

Each injector perturbs exactly one site chosen by a
``random.Random(seed)`` stream and returns ``(mutant, Fault)``.  The
mutant is built by replacement: the perturbed rank gets a fresh record
list and every changed record is a new one (``dataclasses.replace``);
the other ranks' lists and every unchanged record are shared with the
original, which is never modified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.trace.records import (
    CpuBurst,
    IRecv,
    ISend,
    ProcessTrace,
    Recv,
    Send,
    TraceSet,
)

#: Record classes that participate in point-to-point communication.
_COMM_TYPES = (Send, ISend, Recv, IRecv)


class FaultInjectionError(ValueError):
    """The requested fault cannot be injected into this trace (e.g.
    dropping a message record from a communication-free trace)."""


@dataclass(frozen=True)
class Fault:
    """A description of one injected perturbation."""

    #: Injector name ("drop", "duplicate", "reorder", "corrupt_size",
    #: "truncate", "skew").
    kind: str
    #: Rank whose record stream was perturbed.
    rank: int
    #: Record index the perturbation applied at (for "truncate", the
    #: first removed index; for "reorder", the left of the swapped pair).
    index: int
    #: Seed that produced this fault (replays identically).
    seed: int
    #: Kind-specific details (old/new sizes, removed count, factor, ...).
    details: dict = field(default_factory=dict)

    def describe(self) -> str:
        extra = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return (
            f"fault[{self.kind}] rank={self.rank} record={self.index} "
            f"seed={self.seed}" + (f" ({extra})" if extra else "")
        )


def _with_records(trace: TraceSet, rank: int, records: list) -> TraceSet:
    """``trace`` with rank ``rank``'s stream replaced by ``records``."""
    procs = [
        ProcessTrace(p.rank, records if p.rank == rank else p.records)
        for p in trace
    ]
    return TraceSet(procs, meta=trace.meta)


def _comm_sites(trace: TraceSet, types=_COMM_TYPES) -> list[tuple[int, int]]:
    """All ``(rank, index)`` positions holding a record of ``types``."""
    return [
        (proc.rank, i)
        for proc in trace
        for i, rec in enumerate(proc.records)
        if isinstance(rec, types)
    ]


def _pick_site(trace: TraceSet, seed: int, kind: str, types=_COMM_TYPES) -> tuple[int, int]:
    sites = _comm_sites(trace, types)
    if not sites:
        raise FaultInjectionError(
            f"cannot inject {kind!r}: trace has no matching records"
        )
    return random.Random(seed).choice(sites)


# --------------------------------------------------------------------------- #
# Injectors.
# --------------------------------------------------------------------------- #

def drop_record(trace: TraceSet, seed: int = 0) -> tuple[TraceSet, Fault]:
    """Remove one communication record — the classic lost message.

    Leaves the partner endpoint unmatched: validation must flag the
    key, and a replay must end in a diagnosable deadlock (the orphaned
    blocking operation waits forever), never a silent misreport.
    """
    rank, idx = _pick_site(trace, seed, "drop")
    records = trace[rank].records
    mutant = _with_records(trace, rank, records[:idx] + records[idx + 1:])
    return mutant, Fault(
        kind="drop", rank=rank, index=idx, seed=seed,
        details={"record": type(records[idx]).__name__},
    )


def duplicate_record(trace: TraceSet, seed: int = 0) -> tuple[TraceSet, Fault]:
    """Insert a second copy of one communication record (a replayed
    message: one endpoint now has more operations than its partner)."""
    rank, idx = _pick_site(trace, seed, "duplicate")
    records = trace[rank].records
    copied = replace(records[idx])
    mutant = _with_records(
        trace, rank, records[:idx + 1] + [copied] + records[idx + 1:])
    return mutant, Fault(
        kind="duplicate", rank=rank, index=idx, seed=seed,
        details={"record": type(copied).__name__},
    )


def reorder_records(trace: TraceSet, seed: int = 0) -> tuple[TraceSet, Fault]:
    """Swap one communication record with its successor on the same
    rank (an ordering violation; may or may not change the matching)."""
    rng = random.Random(seed)
    sites = [
        (rank, i) for rank, i in _comm_sites(trace)
        if i + 1 < len(trace[rank].records)
    ]
    if not sites:
        raise FaultInjectionError("cannot inject 'reorder': no swappable pair")
    rank, idx = rng.choice(sites)
    records = list(trace[rank].records)
    records[idx], records[idx + 1] = records[idx + 1], records[idx]
    return _with_records(trace, rank, records), Fault(
        kind="reorder", rank=rank, index=idx, seed=seed,
        details={
            "first": type(records[idx]).__name__,
            "second": type(records[idx + 1]).__name__,
        },
    )


def corrupt_size(trace: TraceSet, seed: int = 0) -> tuple[TraceSet, Fault]:
    """Corrupt the byte count of one message endpoint (torn header):
    the send and receive sizes no longer agree."""
    rank, idx = _pick_site(trace, seed, "corrupt_size")
    records = list(trace[rank].records)
    old = records[idx].size
    # Deterministic, always-different, always-valid (non-negative).
    new = old * 2 + 1 + random.Random(seed).randrange(1024)
    records[idx] = replace(records[idx], size=new)
    return _with_records(trace, rank, records), Fault(
        kind="corrupt_size", rank=rank, index=idx, seed=seed,
        details={"old_size": old, "new_size": new},
    )


def truncate_rank(trace: TraceSet, seed: int = 0) -> tuple[TraceSet, Fault]:
    """Cut one rank's stream short (a crashed writer / torn trace
    file): everything from a random record onward is lost."""
    rng = random.Random(seed)
    candidates = [p.rank for p in trace if len(p.records) > 1]
    if not candidates:
        raise FaultInjectionError("cannot inject 'truncate': streams too short")
    rank = rng.choice(candidates)
    records = trace[rank].records
    cut = rng.randrange(1, len(records))
    return _with_records(trace, rank, records[:cut]), Fault(
        kind="truncate", rank=rank, index=cut, seed=seed,
        details={"removed": len(records) - cut,
                 "record": type(records[cut]).__name__},
    )


def skew_timestamps(trace: TraceSet, seed: int = 0) -> tuple[TraceSet, Fault]:
    """Scale every compute burst of one rank by a random factor in
    [0.5, 2.0].  Structurally benign — the mutant stays valid and
    replayable — so it exercises determinism and perturbation paths
    rather than error paths."""
    rng = random.Random(seed)
    candidates = [
        p.rank for p in trace
        if any(isinstance(r, CpuBurst) for r in p.records)
    ]
    if not candidates:
        raise FaultInjectionError("cannot inject 'skew': no compute bursts")
    rank = rng.choice(candidates)
    factor = 0.5 + 1.5 * rng.random()
    records = [
        replace(r, duration=r.duration * factor)
        if isinstance(r, CpuBurst) else r
        for r in trace[rank].records
    ]
    bursts = [i for i, r in enumerate(records) if isinstance(r, CpuBurst)]
    return _with_records(trace, rank, records), Fault(
        kind="skew", rank=rank, index=bursts[0], seed=seed,
        details={"factor": factor, "record": "CpuBurst",
                 "bursts": len(bursts)},
    )


#: Dispatcher table: fault kind -> injector.
FAULT_KINDS: dict = {
    "drop": drop_record,
    "duplicate": duplicate_record,
    "reorder": reorder_records,
    "corrupt_size": corrupt_size,
    "truncate": truncate_rank,
    "skew": skew_timestamps,
}


def inject(trace: TraceSet, kind: str, seed: int = 0) -> tuple[TraceSet, Fault]:
    """Apply one named fault to a copy of ``trace``.

    Deterministic in ``(trace, kind, seed)``; the original trace is
    never modified.  Raises :class:`FaultInjectionError` when the
    trace has no site the fault applies to, and :class:`KeyError` for
    an unknown kind (see :data:`FAULT_KINDS`).
    """
    try:
        injector = FAULT_KINDS[kind]
    except KeyError:
        raise KeyError(
            f"unknown fault kind {kind!r}; pick from {sorted(FAULT_KINDS)}"
        ) from None
    return injector(trace, seed=seed)
