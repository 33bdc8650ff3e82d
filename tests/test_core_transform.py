"""Tests of the overlap transformation — the paper's core mechanism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import match_messages
from repro.core.transform import (
    OverlapConfig,
    _clip,
    _minimum,
    chunk_sub,
    overlap_transform,
)
from repro.core.ideal import ideal_transform
from repro.dimemas import simulate
from repro.experiments.pipeline import AppExperiment
from repro.trace.columnar import from_traceset
from repro.trace.records import (
    CHANNEL_CHUNK,
    CpuBurst,
    IRecv,
    ISend,
    Recv,
    Send,
)
from repro.trace.validate import validate
from repro.tracer import run_traced
from tests.conftest import make_pipeline_app


class TestChunkSub:
    def test_distinct_keys(self):
        keys = {chunk_sub(ch, sub, c) for ch in (0, 1) for sub in (0, 1, 7)
                for c in range(4)}
        assert len(keys) == 2 * 3 * 4

    def test_range_validation(self):
        with pytest.raises(ValueError):
            chunk_sub(0, 0, 256)
        with pytest.raises(ValueError):
            chunk_sub(16, 0, 0)
        with pytest.raises(ValueError):
            chunk_sub(0, 1 << 16, 0)


#: Chunk times: non-negative virtual seconds, with ties likely; the
#: bounds are record start times, never NaN.
_finite = st.one_of(st.sampled_from((0.0, 1.0, 2.5)),
                    st.floats(0.0, 1e3, allow_nan=False))
_times = st.one_of(_finite, st.just(float("nan")))


class TestScalarChunkTimes:
    """The per-chunk float helpers of ``_plan_message`` against the
    NumPy calls they stand for."""

    @settings(max_examples=300, deadline=None)
    @given(x=_times, bound=_finite)
    def test_minimum_is_np_minimum(self, x, bound):
        want = np.minimum(np.array([x]), bound)[0]
        assert np.array([_minimum(x, bound)]).tobytes() == np.array([want]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(x=_times, lo=_finite, width=st.sampled_from((0.0, 1.5)))
    def test_clip_is_np_clip(self, x, lo, width):
        hi = lo + width
        want = np.clip(np.array([x]), lo, hi)[0]
        assert np.array([_clip(x, lo, hi)]).tobytes() == np.array([want]).tobytes()


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = OverlapConfig()
        assert cfg.chunks == 4 and cfg.schedule == "real"
        assert cfg.advance_sends and cfg.postpone_receptions
        assert cfg.double_buffering

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            OverlapConfig(schedule="magic")

    def test_kwargs_form(self, pipeline_trace):
        out, _ = overlap_transform(pipeline_trace, chunks=2)
        assert out.meta["overlap"]["chunks"] == 2

    def test_config_and_kwargs_exclusive(self, pipeline_trace):
        with pytest.raises(TypeError):
            overlap_transform(pipeline_trace, OverlapConfig(), chunks=2)


class TestStructure:
    def test_output_validates(self, pipeline_trace):
        out, _ = overlap_transform(pipeline_trace)
        validate(out, strict=True)

    def test_original_untouched(self, pipeline_trace):
        from repro.trace import dim
        before = dim.dumps(pipeline_trace)
        overlap_transform(pipeline_trace)
        assert dim.dumps(pipeline_trace) == before

    def test_chunked_messages_on_chunk_channel(self, pipeline_trace):
        out, stats = overlap_transform(pipeline_trace)
        chunk_sends = [
            r for p in out.to_traceset() for r in p
            if isinstance(r, ISend) and r.channel == CHANNEL_CHUNK
        ]
        assert len(chunk_sends) == stats.chunks_created

    def test_original_app_messages_removed(self, pipeline_trace):
        out, _ = overlap_transform(pipeline_trace)
        leftover = [
            r for p in out.to_traceset() for r in p
            if isinstance(r, (Send, Recv)) and r.channel == 0 and r.size > 0
        ]
        assert leftover == []

    def test_retransform_rejected(self, pipeline_trace):
        out, _ = overlap_transform(pipeline_trace)
        with pytest.raises(ValueError, match="already contains"):
            overlap_transform(out)

    def test_retransform_rejected_in_record_form(self, pipeline_trace):
        out, _ = overlap_transform(pipeline_trace)
        with pytest.raises(ValueError, match="already contains"):
            overlap_transform(out.to_traceset())

    def test_original_columns_rejected(self, pipeline_trace):
        with pytest.raises(TypeError, match="TraceSet"):
            overlap_transform(from_traceset(pipeline_trace))

    def test_compute_time_preserved_per_rank(self, pipeline_trace):
        out, _ = overlap_transform(pipeline_trace)
        for orig, new in zip(pipeline_trace, out.to_traceset()):
            assert new.virtual_duration == pytest.approx(
                orig.virtual_duration, rel=1e-9,
            )

    def test_chunk_sizes_sum_to_original(self, pipeline_trace):
        orig_bytes = sum(
            r.size for p in pipeline_trace for r in p
            if isinstance(r, (Send, ISend)) and r.channel == 0
        )
        out, _ = overlap_transform(pipeline_trace)
        chunk_bytes = sum(
            r.size for p in out.to_traceset() for r in p
            if isinstance(r, ISend) and r.channel == CHANNEL_CHUNK
        )
        assert chunk_bytes == orig_bytes

    def test_matching_consistent_after_transform(self, pipeline_trace):
        out, _ = overlap_transform(pipeline_trace)
        pairs = match_messages(out)  # raises if inconsistent
        assert pairs


class TestSemantics:
    def test_sends_advanced_into_bursts(self):
        """An early producer's chunk sends move before the burst end."""
        app = make_pipeline_app(prod=[(0.0, 0.1), (1.0, 0.4)])
        tr = run_traced(app, 2, mips=1000.0).trace
        out, stats = overlap_transform(tr)
        assert stats.sends_advanced > 0
        # rank 0: some chunk ISend must appear before the last burst ends
        recs = out.to_traceset()[0].records
        isend_pos = [i for i, r in enumerate(recs) if isinstance(r, ISend)]
        burst_pos = [i for i, r in enumerate(recs) if isinstance(r, CpuBurst)]
        assert isend_pos[0] < burst_pos[-1]

    def test_late_producer_not_advanced(self):
        app = make_pipeline_app(prod=[(0.0, 1.0), (1.0, 1.0)])
        tr = run_traced(app, 2, mips=1000.0).trace
        _, stats = overlap_transform(tr)
        assert stats.sends_advanced == 0

    def test_waits_postponed_for_late_consumer(self):
        app = make_pipeline_app(cons=[(0.0, 0.5), (1.0, 0.9)])
        tr = run_traced(app, 2, mips=1000.0).trace
        _, stats = overlap_transform(tr)
        assert stats.waits_postponed > 0

    def test_flags_disable_mechanisms(self, pipeline_trace):
        _, s1 = overlap_transform(pipeline_trace, OverlapConfig(advance_sends=False))
        assert s1.sends_advanced == 0
        _, s2 = overlap_transform(
            pipeline_trace, OverlapConfig(postpone_receptions=False))
        assert s2.waits_postponed == 0

    def test_double_buffering_controls_rendezvous(self, pipeline_trace):
        out_db, _ = overlap_transform(pipeline_trace, OverlapConfig(double_buffering=True))
        out_sb, _ = overlap_transform(pipeline_trace, OverlapConfig(double_buffering=False))
        rv_db = {r.rendezvous for p in out_db.to_traceset() for r in p if isinstance(r, ISend)}
        rv_sb = {r.rendezvous for p in out_sb.to_traceset() for r in p if isinstance(r, ISend)}
        assert rv_db == {False} and rv_sb == {True}

    def test_zero_size_messages_untouched(self):
        def app(comm):
            if comm.rank == 0:
                comm.send(None, 1, tag=1)
            else:
                comm.recv(0, tag=1)
        tr = run_traced(app, 2).trace
        _, stats = overlap_transform(tr)
        assert stats.messages_transformed == 0

    def test_scalar_collectives_single_chunk_under_ideal(self):
        def app(comm):
            x, y = np.zeros(1), np.zeros(1)
            comm.compute(1000, stores=[(x, [0], np.array([0.9]))])
            comm.Allreduce(x, y)
            comm.compute(1000, loads=[(y, [0], np.array([0.1]))])
        tr = run_traced(app, 4).trace
        out, stats = ideal_transform(tr)
        chunk_recs = [r for p in out.to_traceset() for r in p
                      if isinstance(r, ISend) and r.channel == CHANNEL_CHUNK]
        # every transformed scalar message stays whole (1 chunk)
        assert all(r.size == 8 for r in chunk_recs)

    def test_chunk_count_parameter(self, pipeline_trace):
        for ch in (1, 2, 8):
            out, stats = overlap_transform(pipeline_trace, chunks=ch)
            validate(out, strict=True)
            per_msg = stats.chunks_created / max(stats.messages_transformed, 1)
            assert per_msg <= ch


# Every mechanism switched off in turn, plus the ideal schedule and the
# byte-sized chunk rule.
ABLATIONS = {
    "paper": OverlapConfig(),
    "ideal": OverlapConfig(schedule="ideal"),
    "single-buffer": OverlapConfig(double_buffering=False),
    "ideal-single-buffer": OverlapConfig(schedule="ideal",
                                         double_buffering=False),
    "no-advance": OverlapConfig(advance_sends=False),
    "no-postpone": OverlapConfig(postpone_receptions=False),
    "chunk-bytes": OverlapConfig(chunks=16, chunk_bytes=256),
    "no-collectives": OverlapConfig(transform_collectives=False),
}


@pytest.fixture(scope="module")
def cg_original():
    """CG at 4 ranks: its collectives' messages carry access profiles."""
    return AppExperiment("cg", nranks=4).trace("original")


def _profile(rec):
    """A point-to-point record's access profile, bit for bit."""
    p = getattr(rec, "production", None) or getattr(rec, "consumption", None)
    if p is None:
        return None
    return p.kind, p.interval_start, p.interval_end, p.times.tobytes()


class TestColumnarOutput:
    """The columns the transformation writes are the columns of the
    records they stand for, under every configuration."""

    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_columns_equal_packed_records(self, cg_original, name):
        out, _ = overlap_transform(cg_original, ABLATIONS[name])
        assert out.encode() == from_traceset(out.to_traceset()).encode()

    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_kept_messages_keep_their_profiles(self, cg_original, name):
        out, stats = overlap_transform(cg_original, ABLATIONS[name])
        ptp = (Send, ISend, Recv, IRecv)
        originals = kept = profiled = 0
        for orig, new in zip(cg_original, out.to_traceset()):
            before = [r for r in orig if isinstance(r, ptp)]
            after = [r for r in new
                     if isinstance(r, ptp) and r.channel != CHANNEL_CHUNK]
            # The kept records are the originals' in order, each with
            # its original's fields and profile.
            rest = iter(before)
            for rec in after:
                assert any(rec == o and _profile(rec) == _profile(o)
                           for o in rest), rec
            originals += len(before)
            kept += len(after)
            profiled += sum(_profile(r) is not None for r in after)
        assert kept == originals - 2 * stats.messages_transformed
        if name == "no-collectives":
            assert profiled > 0


class TestReplayability:
    """Transformed traces must replay to completion on any platform."""

    @pytest.mark.parametrize("schedule", ["real", "ideal"])
    @pytest.mark.parametrize("double_buffering", [True, False])
    def test_pipeline_replays(self, pipeline_trace, machine, schedule,
                              double_buffering):
        out, _ = overlap_transform(pipeline_trace, OverlapConfig(
            schedule=schedule, double_buffering=double_buffering))
        res = simulate(out, machine)
        assert res.duration > 0

    def test_overlap_never_loses_much(self, pipeline_trace, machine):
        """Sanity: overlap may add chunk latency but not blow up."""
        base = simulate(pipeline_trace, machine).duration
        real = simulate(overlap_transform(pipeline_trace)[0], machine).duration
        assert real <= base * 1.25

    def test_ideal_at_least_as_good_as_real_on_linear_pipeline(self, machine):
        app = make_pipeline_app(elements=512, work=500_000,
                                prod=[(0.0, 0.3), (1.0, 1.0)],
                                cons=[(0.0, 0.0), (1.0, 0.7)])
        tr = run_traced(app, 6, mips=1000.0).trace
        base = simulate(tr, machine).duration
        real = simulate(overlap_transform(tr)[0], machine).duration
        ideal = simulate(ideal_transform(tr)[0], machine).duration
        assert ideal <= real * 1.05
        assert real <= base * 1.01
