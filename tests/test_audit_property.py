"""Property-based integrity tests (satellite of the audit subsystem).

Two contracts, explored with hypothesis instead of hand-picked cases:

* every *valid* synthetic trace — random programs over random rank
  counts, built so their messages match by construction — replays
  audit-clean at the ``full`` level with ``strict`` on;
* every seeded fault injector produces a mutant whose certification
  yields at least one violation attributed to the perturbed rank
  (``reorder`` swaps can be semantically benign, which
  :func:`hypothesis.assume` skips past), and certifying the mutant's
  decoded columns gives the same report without rebuilding records.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.audit.auditor import AuditConfig
from repro.audit.certify import certify_trace
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.trace.columnar import ColumnarTrace, decode, from_traceset
from repro.tracer import run_traced
from tests import faults
from tests.conftest import make_pipeline_app

#: Small deterministic platform; the event budget turns any runaway
#: replay of a broken mutant into a watchdog violation, never a hang.
MACHINE = MachineConfig(bandwidth_mbps=100.0, latency=10e-6, buses=4,
                        max_events=200_000)

_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------------- #
# Valid synthetic traces: random programs that match by construction.
# --------------------------------------------------------------------------- #

def _ops(nranks: int):
    """One program step: a matched message, a compute burst, a barrier."""
    msg = st.tuples(
        st.just("msg"),
        st.integers(0, nranks - 1),          # src
        st.integers(1, nranks - 1),          # dst = (src + off) % nranks
        st.integers(1, 1000),                # elements (small => eager)
        st.integers(0, 3),                   # tag
        st.sampled_from(["send", "iwait", "waitall"]),
    )
    compute = st.tuples(st.just("compute"), st.integers(0, nranks - 1),
                        st.integers(100, 50_000))
    barrier = st.tuples(st.just("barrier"))
    return st.one_of(msg, compute, barrier)


programs = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_ops(n), min_size=1,
                                             max_size=10))
)


def _make_app(program):
    """Rank function executing its share of a globally-ordered program.

    Every rank walks the same op list, so each message's endpoints
    appear in the same global order on both sides; with eager sends
    that construction is deadlock-free by induction on the op index.
    """

    def app(comm):
        r = comm.rank
        for op in program:
            if op[0] == "msg":
                _, src, off, elements, tag, mode = op
                dst = (src + off) % comm.size
                if r == src:
                    payload = np.zeros(elements)
                    if mode == "send":
                        comm.send(payload, dst, tag=tag)
                    elif mode == "iwait":
                        comm.wait(comm.isend(payload, dst, tag=tag))
                    else:
                        comm.waitall([comm.isend(payload, dst, tag=tag)])
                elif r == dst:
                    if mode == "send":
                        comm.recv(source=src, tag=tag)
                    elif mode == "iwait":
                        comm.wait(comm.irecv(source=src, tag=tag))
                    else:
                        comm.waitall([comm.irecv(source=src, tag=tag)])
            elif op[0] == "compute":
                if r == op[1]:
                    comm.compute(op[2])
            else:
                comm.barrier()
        return r

    return app


@given(programs)
@_SETTINGS
def test_valid_synthetic_traces_audit_clean(prog):
    nranks, program = prog
    trace = run_traced(_make_app(program), nranks, mips=1000.0).trace
    cfg = AuditConfig(level="full", strict=True)
    simulate(trace, MACHINE, audit=cfg)  # strict: violations would raise
    assert cfg.report is not None
    assert cfg.report.ok
    assert len(cfg.report.checks) == 7  # the complete full-level battery


# --------------------------------------------------------------------------- #
# Fault injectors: every perturbation is caught and attributed.
# --------------------------------------------------------------------------- #

@functools.lru_cache(maxsize=1)
def _base():
    """A 4-rank pipeline trace and its baseline replay (built once)."""
    trace = run_traced(make_pipeline_app(), 4, mips=1000.0).trace
    return trace, simulate(trace, MACHINE)


@pytest.mark.parametrize("kind", sorted(faults.FAULT_KINDS))
@given(seed=st.integers(0, 31))
@_SETTINGS
def test_injected_fault_yields_attributed_violation(kind, seed):
    trace, baseline = _base()
    mutant, fault = faults.inject(trace, kind, seed=seed)
    report = certify_trace(mutant, machine=MACHINE, level="full",
                           baseline=baseline)
    if kind == "reorder":
        # An adjacent swap can leave matching and timing untouched
        # (e.g. two identical sends); only the detectable seeds count.
        assume(not report.ok)
    assert not report.ok
    attributed = {r for v in report.violations for r in v.ranks}
    assert fault.rank in attributed, (
        f"{fault.describe()} not attributed; got "
        f"{[v.render() for v in report.violations]}"
    )
    col = decode(from_traceset(mutant).encode())
    with mock.patch.object(ColumnarTrace, "to_traceset",
                           side_effect=AssertionError("records rebuilt")):
        columnar = certify_trace(col, machine=MACHINE, level="full",
                                 baseline=baseline)
    assert columnar.to_dict() == report.to_dict()
