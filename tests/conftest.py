"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.dimemas.machine import MachineConfig
from repro.trace.records import AccessProfile, ProcessTrace, Recv, Send, TraceSet
from repro.tracer.tracefile import run_traced
from repro.tracer.timestamps import Clock


def make_pipeline_app(elements=64, work=100_000, iterations=3,
                      prod=None, cons=None):
    """A minimal 1-D pipeline rank function with controllable patterns."""
    from repro.apps.patterns import consumption_batches, production_batches

    prod = prod or [(0.0, 0.2), (1.0, 1.0)]
    cons = cons or [(0.0, 0.0), (1.0, 0.5)]

    def app(comm):
        r, s = comm.rank, comm.size
        out = np.zeros(elements)
        inbox = np.zeros(elements)
        pb = production_batches(elements, prod)
        cb = consumption_batches(elements, cons)
        loads = []
        for it in range(iterations):
            comm.event("iteration", it)
            if r > 0:
                comm.Recv(inbox, r - 1, tag=0)
                loads = [(inbox, o, a) for o, a in cb]
            stores = [(out, o, a) for o, a in pb] if r < s - 1 else []
            comm.compute(work, loads=loads, stores=stores)
            loads = []
            if r < s - 1:
                comm.send(out, r + 1, tag=0)
        return r

    return app


@pytest.fixture
def pipeline_trace():
    """Original trace of a small 4-rank pipeline with access profiles."""
    return run_traced(make_pipeline_app(), 4, mips=1000.0).trace


@pytest.fixture
def machine():
    """A small deterministic platform for replay tests."""
    return MachineConfig(bandwidth_mbps=100.0, latency=10e-6, buses=4)


@pytest.fixture
def paper_machine():
    """The paper's baseline platform (unlimited buses)."""
    return MachineConfig.paper_testbed()


@st.composite
def access_profiles(draw, kind: str, min_elements: int = 1,
                    max_elements: int = 64) -> AccessProfile:
    """Hypothesis strategy: an access profile as the tracer writes one.

    Times and bounds are instruction counts over the tracer's clock
    rate, so they are >= 0 (never -0.0) and no two differ by a
    subnormal amount.  Times fall before, inside and after the
    interval, in runs with NaN runs between them (all-NaN too); about
    a third of the intervals are zero-length.
    """
    clock = Clock()
    start = draw(st.integers(0, 10**11))
    end = start + draw(st.one_of(st.just(0), st.integers(1, 10**11),
                                 st.integers(1, 10**3)))
    n = draw(st.integers(min_elements, max_elements))
    count = st.one_of(st.integers(0, 2 * end + 10),
                      st.sampled_from([start, end]))
    counts: list[float] = []
    while len(counts) < n:
        k = draw(st.integers(1, n - len(counts)))
        if draw(st.booleans()):
            counts += [math.nan] * k
        else:
            counts += draw(st.lists(count, min_size=k, max_size=k))
    return AccessProfile(kind, clock.seconds(np.array(counts, dtype=float)),
                         clock.seconds(start), clock.seconds(end))


def profile_trace(productions, consumptions) -> TraceSet:
    """A two-rank trace: rank 0 sends with ``productions`` attached,
    rank 1 receives with ``consumptions``."""
    return TraceSet([
        ProcessTrace(0, [Send(1, 0, 8, production=p) for p in productions]),
        ProcessTrace(1, [Recv(0, 0, 8, consumption=c) for c in consumptions]),
    ])
