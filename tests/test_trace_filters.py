"""Tests of trace slicing/projection/normalization utilities."""

import pytest

from repro.core.transform import overlap_transform
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.trace.filters import (
    merge_bursts,
    repair,
    select_ranks,
    slice_iterations,
    trace_stats,
)
from repro.trace.records import (
    CpuBurst,
    ISend,
    ProcessTrace,
    Recv,
    Send,
    TraceSet,
    Wait,
)
from repro.trace.validate import validate

CFG = MachineConfig(bandwidth_mbps=100.0, latency=5e-6)


class TestMergeBursts:
    def test_adjacent_bursts_coalesce(self):
        ts = TraceSet([ProcessTrace(0, [
            CpuBurst(1.0, instructions=10),
            CpuBurst(2.0, instructions=20),
            Send(peer=0, tag=0, size=0),
            CpuBurst(0.5),
        ])])
        out = merge_bursts(ts)
        recs = out[0].records
        assert len(recs) == 3
        assert recs[0].duration == 3.0 and recs[0].instructions == 30

    def test_transformed_trace_burst_count_shrinks(self, pipeline_trace):
        ov, _ = overlap_transform(pipeline_trace)
        merged = merge_bursts(ov)
        assert merged[1].count(CpuBurst) <= ov[1].count(CpuBurst)
        assert merged.total_virtual_compute() == pytest.approx(
            ov.total_virtual_compute())

    def test_instructions_dropped_when_partial(self):
        ts = TraceSet([ProcessTrace(0, [
            CpuBurst(1.0, instructions=10), CpuBurst(1.0)])])
        assert merge_bursts(ts)[0][0].instructions is None


class TestRepair:
    def test_drops_unmatched_send(self):
        ts = TraceSet([
            ProcessTrace(0, [Send(peer=1, tag=0, size=8)]),
            ProcessTrace(1, []),
        ])
        out = repair(ts)
        assert validate(out).ok
        assert out.total_records() == 0

    def test_strips_dangling_requests(self):
        ts = TraceSet([
            ProcessTrace(0, [ISend(peer=1, tag=0, size=8, request=1)]),
            ProcessTrace(1, [Recv(peer=0, tag=0, size=8)]),
        ])
        out = repair(ts)
        assert validate(out).ok  # the ISend without Wait was dropped

    def test_strips_cut_wait_requests(self):
        ts = TraceSet([
            ProcessTrace(0, [Wait((7,))]),
            ProcessTrace(1, []),
        ])
        out = repair(ts)
        assert validate(out).ok and out.total_records() == 0

    def test_keeps_balanced_structure(self, pipeline_trace):
        out = repair(pipeline_trace)
        assert validate(out).ok
        assert out.total_records() == pipeline_trace.total_records()

    def test_drops_context_mismatched_endpoints(self):
        # A send on one communicator and a receive on another share
        # (src, dst, channel, tag, sub) but never match: both go.
        ts = TraceSet([
            ProcessTrace(0, [Send(peer=1, tag=0, size=8, context=0),
                             Send(peer=1, tag=1, size=8)]),
            ProcessTrace(1, [Recv(peer=0, tag=0, size=8, context=1),
                             Recv(peer=0, tag=1, size=8)]),
        ])
        out = repair(ts)
        assert validate(out).ok
        assert [(type(r), r.tag) for p in out for r in p] == [
            (Send, 1), (Recv, 1)]

    def test_keeps_matched_self_message(self):
        ts = TraceSet([ProcessTrace(0, [
            Send(peer=0, tag=0, size=8), Recv(peer=0, tag=0, size=8)])])
        assert validate(ts).ok
        out = repair(ts)
        assert [type(r) for r in out[0]] == [Send, Recv]


class TestSliceIterations:
    def test_slice_validates_and_replays(self, pipeline_trace):
        cut = slice_iterations(pipeline_trace, 0, 2)
        assert validate(cut).ok
        res = simulate(cut, CFG)
        assert res.duration > 0

    def test_slice_is_smaller(self, pipeline_trace):
        cut = slice_iterations(pipeline_trace, 1, 1)
        assert cut.total_records() < pipeline_trace.total_records()
        full = simulate(pipeline_trace, CFG).duration
        part = simulate(cut, CFG).duration
        assert part < full

    def test_slice_meta(self, pipeline_trace):
        cut = slice_iterations(pipeline_trace, 0, 2)
        assert cut.meta["slice"] == (0, 2)

    def test_invalid_count(self, pipeline_trace):
        with pytest.raises(ValueError):
            slice_iterations(pipeline_trace, 0, 0)


class TestSelectRanks:
    def test_projection_renumbers(self, pipeline_trace):
        sub = select_ranks(pipeline_trace, [1, 2])
        assert sub.nranks == 2
        assert validate(sub).ok
        res = simulate(sub, CFG)
        assert res.nranks == 2

    def test_messages_to_dropped_ranks_removed(self, pipeline_trace):
        sub = select_ranks(pipeline_trace, [0])
        assert validate(sub).ok
        stats = trace_stats(sub)
        assert stats["messages"] == 0  # rank 0 only sent outward

    def test_range_validation(self, pipeline_trace):
        with pytest.raises(ValueError):
            select_ranks(pipeline_trace, [99])
        with pytest.raises(ValueError):
            select_ranks(pipeline_trace, [])


class TestTraceStats:
    def test_summary_fields(self, pipeline_trace):
        st = trace_stats(pipeline_trace)
        assert st["nranks"] == 4
        assert st["records"] == pipeline_trace.total_records()
        assert st["messages"] > 0
        assert 0 in st["bytes_per_channel"]
        assert st["virtual_compute_seconds"] > 0
        assert st["record_kinds"]["CpuBurst"] > 0
