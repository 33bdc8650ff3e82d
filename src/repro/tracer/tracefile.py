"""Top-level tracing driver: run an application, get its trace.

Equivalent of launching ``mpirun -np N valgrind --tool=tracer app``:
executes a simulated application under full instrumentation and
returns the validated original (non-overlapped) trace, enriched with
access profiles, ready for the overlap transformation and the replay
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..smpi.runtime import Runtime
from ..trace.records import TraceSet
from ..trace.validate import validate
from .interceptor import TracingObserver
from .timestamps import DEFAULT_MIPS, Clock

__all__ = ["TraceRun", "run_traced"]


@dataclass
class TraceRun:
    """Result of a traced execution."""

    #: The original (non-overlapped) trace with access profiles.
    trace: TraceSet
    #: Per-rank return values of the application functions.
    results: list[Any]


def run_traced(
    fn: Callable | Sequence[Callable],
    nranks: int,
    mips: float = DEFAULT_MIPS,
    decompose_collectives: bool = True,
    meta: Mapping[str, object] | None = None,
    strict: bool = True,
    record_streams: bool = False,
) -> TraceRun:
    """Run ``fn`` on ``nranks`` simulated ranks under the tracer.

    Parameters
    ----------
    fn:
        Rank function ``fn(comm) -> result`` (or one callable per rank).
    mips:
        Instruction-to-time scaling rate (paper §III-C).
    decompose_collectives:
        Paper default True: collectives traced as point-to-point trees.
        False traces them as analytic :class:`GlobalOp` records.
    meta:
        Extra metadata stored in the trace (application name, inputs).
    strict:
        Validate the produced trace and raise on structural problems.
    record_streams:
        Retain every individual access (not only the reduced last-store /
        first-load arrays) for pattern scatter plots (paper Figure 5).
    """
    clock = Clock(mips)
    # One profile table for the run: equal profiles share one array.
    profiles: dict = {}
    observers = [
        TracingObserver(r, clock, profiles, record_streams=record_streams)
        for r in range(nranks)
    ]
    runtime = Runtime(
        nranks, fn, observers=observers,
        decompose_collectives=decompose_collectives,
    )
    results = runtime.run()
    trace = TraceSet(
        [obs.trace for obs in observers],
        meta={
            "mips": mips,
            "nranks": nranks,
            "decompose_collectives": decompose_collectives,
            **(dict(meta) if meta else {}),
        },
    )
    if strict:
        validate(trace, strict=True)
    return TraceRun(trace=trace, results=results)
