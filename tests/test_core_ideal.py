"""Tests of the ideal-pattern schedule (the paper's second overlapped trace)."""

import numpy as np
import pytest

from repro.core.ideal import ideal_transform
from repro.core.transform import overlap_transform
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.trace.records import CHANNEL_CHUNK, CpuBurst, ISend, Wait
from repro.trace.validate import validate
from repro.tracer import run_traced
from tests.conftest import make_pipeline_app

CFG = MachineConfig(bandwidth_mbps=100.0, latency=5e-6)


def chunk_send_times(trace, rank):
    """Virtual times of the chunk ISends of one rank."""
    proc = trace[rank]
    starts = proc.virtual_starts()
    return [
        float(starts[i]) for i, r in enumerate(proc.records)
        if isinstance(r, ISend) and r.channel == CHANNEL_CHUNK
    ]


class TestUniformDistribution:
    def test_sends_spread_through_production_interval(self):
        """Ideal chunk sends sit at 1/n, 2/n, ... of the interval."""
        app = make_pipeline_app(elements=400, work=1_000_000, iterations=1,
                                prod=[(0.0, 1.0), (1.0, 1.0)])  # fully late
        tr = run_traced(app, 2, mips=1000.0).trace
        out, _ = ideal_transform(tr, chunks=4)
        validate(out, strict=True)
        times = chunk_send_times(out.to_traceset(), 0)
        burst = 1_000_000 / (1000.0 * 1e6)
        expect = [burst * k / 4 for k in (1, 2, 3, 4)]
        assert times == pytest.approx(expect, rel=1e-6)

    def test_ideal_beats_fully_late_real_pattern(self):
        app = make_pipeline_app(elements=400, work=1_000_000, iterations=3,
                                prod=[(0.0, 0.999), (1.0, 1.0)],
                                cons=[(0.0, 0.0), (1.0, 0.001)])
        tr = run_traced(app, 5, mips=1000.0).trace
        real = simulate(overlap_transform(tr)[0], CFG).duration
        ideal = simulate(ideal_transform(tr)[0], CFG).duration
        assert ideal < real

    def test_ideal_table_rows_from_construction(self):
        """An app built with linear anchors measures as the ideal rows."""
        from repro.core.patterns import production_table
        app = make_pipeline_app(elements=1000, iterations=2,
                                prod=[(0.0, 0.0), (1.0, 1.0)],
                                cons=[(0.0, 0.0), (1.0, 1.0)])
        tr = run_traced(app, 2).trace
        p = production_table(tr, channel=0)
        assert p.first_element == pytest.approx(0.0, abs=0.01)
        assert p.quarter == pytest.approx(0.25, abs=0.02)


class TestCausalityBounds:
    def test_relay_forward_not_advanced_before_arrival(self):
        """A rank that receives and immediately forwards gives the ideal
        schedule zero computation to spread into: the forward chunk
        sends must stay behind the inbound waits."""
        def relay(comm):
            n = 64
            buf = np.zeros(n)
            if comm.rank == 0:
                comm.compute(100_000, stores=[(buf, np.arange(n))])
                comm.send(buf, 1, tag=0)
            elif comm.rank == 1:
                comm.Recv(buf, 0, tag=0)
                comm.send(buf, 2, tag=0)     # zero compute in between
            else:
                comm.Recv(buf, 1, tag=0)
                comm.compute(100_000, loads=[(buf, np.arange(n))])
        tr = run_traced(relay, 3, mips=1000.0).trace
        out, _ = ideal_transform(tr, chunks=4)
        validate(out, strict=True)
        # replay must not stall and must respect the chain:
        res = simulate(out, CFG)
        # rank 2 cannot finish before rank 0's compute plus two hops
        assert res.rank_end[2] > res.rank_end[0]

    def test_reduction_chains_keep_their_serialization(self):
        """Collective trees must not collapse under the ideal schedule
        (the tree relays have no compute region to advance into)."""
        def app(comm):
            x, y = np.zeros(1), np.zeros(1)
            for _ in range(4):
                comm.compute(500_000, loads=[(y, [0], np.array([0.01]))],
                             stores=[(x, [0], np.array([0.99]))])
                comm.Allreduce(x, y)
        tr = run_traced(app, 8, mips=1000.0).trace
        base = simulate(tr, CFG).duration
        ideal = simulate(ideal_transform(tr)[0], CFG).duration
        # scalar reductions are unchunkable and relay-bound: near-zero gain
        assert ideal >= base * 0.95

    def test_wait_not_before_original_completion_point(self):
        """Receiver chunk waits never move before the original Wait
        (the IRecv/Send/Waitall idiom must not deadlock)."""
        def halo(comm):
            n = 128
            sb, rb = np.zeros(n), np.zeros(n)
            other = 1 - comm.rank
            for _ in range(3):
                comm.compute(200_000, stores=[(sb, np.arange(n))])
                req = comm.Irecv(rb, other, tag=1)
                comm.send(sb, other, tag=1)
                comm.waitall([req])
                comm.compute(100_000, loads=[(rb, np.arange(n))])
        tr = run_traced(halo, 2, mips=1000.0).trace
        out, _ = ideal_transform(tr)
        validate(out, strict=True)
        res = simulate(out, CFG)  # must not raise ReplayError
        assert res.duration > 0


class TestComputePreservation:
    def test_burst_total_preserved_exactly(self, pipeline_trace):
        out, _ = ideal_transform(pipeline_trace)
        for orig, new in zip(pipeline_trace, out.to_traceset()):
            o = sum(r.duration for r in orig if isinstance(r, CpuBurst))
            n = sum(r.duration for r in new if isinstance(r, CpuBurst))
            assert n == pytest.approx(o, rel=1e-12)

    def test_all_chunk_requests_waited(self, pipeline_trace):
        out, _ = ideal_transform(pipeline_trace)
        for proc in out.to_traceset():
            posted = {r.request for r in proc if isinstance(r, ISend)}
            waited = {q for r in proc if isinstance(r, Wait) for q in r.requests}
            assert posted <= waited
