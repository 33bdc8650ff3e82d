"""Integration + property-based tests across the full pipeline.

These exercise the whole chain — simulated application, tracer,
overlap transformation, replay, visualization — and check the
invariants the methodology rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import HaloExchange2D
from repro.core.ideal import ideal_transform
from repro.core.transform import overlap_transform
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.trace import dim
from repro.trace.records import ISend, Send
from repro.trace.validate import validate
from tests.apps import PingPong, Pipeline1D, ReduceLoop

CFG = MachineConfig(bandwidth_mbps=100.0, latency=8e-6, buses=4)


def total_bytes_per_pair(trace):
    out = {}
    for p in trace:
        for r in p:
            if isinstance(r, (Send, ISend)):
                key = (p.rank, r.peer)
                out[key] = out.get(key, 0) + r.size
    return out


@pytest.mark.parametrize("app", [
    Pipeline1D(elements=128, work=400_000, iterations=3),
    HaloExchange2D(edge_elements=64, work=300_000, iterations=2),
    ReduceLoop(work=200_000, iterations=4),
    PingPong(elements=64, rounds=3),
])
class TestSyntheticAppsFullPipeline:
    def test_all_variants_replay(self, app):
        tr = app.trace(nranks=app.default_nranks).trace
        validate(tr, strict=True)
        base = simulate(tr, CFG).duration
        for transform in (overlap_transform, ideal_transform):
            out = transform(tr)[0]
            validate(out, strict=True)
            d = simulate(out, CFG).duration
            assert 0 < d <= base * 1.5

    def test_transform_preserves_bytes(self, app):
        tr = app.trace(nranks=app.default_nranks).trace
        out, _ = overlap_transform(tr)
        assert total_bytes_per_pair(out.to_traceset()) == total_bytes_per_pair(tr)

    def test_transformed_trace_serializes(self, app):
        tr = app.trace(nranks=app.default_nranks).trace
        out, _ = overlap_transform(tr)
        assert (dim.dumps(dim.loads(dim.dumps(out.to_traceset())))
                == dim.dumps(out.to_traceset()))


class TestMethodologyInvariants:
    def test_overlap_isolates_computation(self, pipeline_trace):
        """Paper §VI: the simulation measures the isolated impact of
        overlap — total computation must be bit-identical."""
        for transform in (overlap_transform, ideal_transform):
            out = transform(pipeline_trace)[0]
            for orig, new in zip(pipeline_trace, out.to_traceset()):
                assert new.virtual_duration == pytest.approx(
                    orig.virtual_duration, rel=1e-12)

    def test_replay_insensitive_to_scheduling_of_tracer(self):
        """Trace-driven methodology: tracing twice and replaying gives
        identical reconstructions (determinism end to end)."""
        app = Pipeline1D(elements=64, work=100_000, iterations=2)
        r1 = simulate(app.trace(nranks=4).trace, CFG)
        r2 = simulate(app.trace(nranks=4).trace, CFG)
        assert r1.duration == r2.duration

    def test_bandwidth_monotonicity(self):
        app = HaloExchange2D(edge_elements=256, work=200_000, iterations=2)
        tr = app.trace(nranks=4).trace
        durs = [simulate(tr, CFG.with_bandwidth(bw)).duration
                for bw in (10, 50, 250, 1000)]
        assert all(a >= b - 1e-12 for a, b in zip(durs, durs[1:]))

    def test_latency_monotonicity(self):
        from dataclasses import replace
        app = Pipeline1D(elements=64, work=100_000, iterations=2)
        tr = app.trace(nranks=4).trace
        durs = [simulate(tr, replace(CFG, latency=lat)).duration
                for lat in (1e-6, 10e-6, 100e-6)]
        assert durs[0] <= durs[1] <= durs[2]

    def test_linear_producer_real_matches_ideal(self):
        """When the measured pattern is already ideal, the real and
        ideal overlapped traces must perform identically (within chunk
        rounding)."""
        app = Pipeline1D(
            elements=256, work=500_000, iterations=3,
            production_anchors=[(0.0, 0.0), (1.0, 1.0)],
            consumption_anchors=[(0.0, 0.0), (1.0, 1.0)],
        )
        tr = app.trace(nranks=4).trace
        real = simulate(overlap_transform(tr)[0], CFG).duration
        ideal = simulate(ideal_transform(tr)[0], CFG).duration
        assert real == pytest.approx(ideal, rel=0.05)

    def test_late_producer_gains_nothing_real(self):
        app = Pipeline1D(
            elements=256, work=500_000, iterations=3,
            production_anchors=[(0.0, 1.0), (1.0, 1.0)],
            consumption_anchors=[(0.0, 0.0), (1.0, 0.0)],
        )
        tr = app.trace(nranks=4).trace
        base = simulate(tr, CFG).duration
        real = simulate(overlap_transform(tr)[0], CFG).duration
        assert real == pytest.approx(base, rel=0.05)

    def test_chunking_enables_wavefront_pipelining(self):
        """More chunks -> finer pipeline -> ideal time non-increasing
        until latency overhead dominates (the paper's Sweep3D effect)."""
        app = Pipeline1D(elements=1024, work=2_000_000, iterations=2)
        tr = app.trace(nranks=6).trace
        d1 = simulate(ideal_transform(tr, chunks=1)[0], CFG).duration
        d4 = simulate(ideal_transform(tr, chunks=4)[0], CFG).duration
        assert d4 <= d1 * 1.001


@given(
    nranks=st.integers(2, 5),
    elements=st.integers(1, 300),
    work=st.integers(0, 500_000),
    iterations=st.integers(1, 4),
    chunks=st.integers(1, 8),
    prod_start=st.floats(0.0, 1.0),
    cons_end=st.floats(0.0, 1.0),
)
@settings(max_examples=30, deadline=None)
def test_property_random_pipelines_survive_the_pipeline(
        nranks, elements, work, iterations, chunks, prod_start, cons_end):
    """Fuzz the whole chain: any pipeline configuration must trace,
    transform (both schedules), validate, serialize, and replay."""
    app = Pipeline1D(
        elements=elements, work=work, iterations=iterations,
        production_anchors=[(0.0, prod_start), (1.0, 1.0)],
        consumption_anchors=[(0.0, 0.0), (1.0, cons_end)],
    )
    tr = app.trace(nranks=nranks).trace
    validate(tr, strict=True)
    base = simulate(tr, CFG).duration
    for transform, kw in ((overlap_transform, dict(chunks=chunks)),
                          (ideal_transform, dict(chunks=chunks))):
        out, stats = transform(tr, **kw)
        validate(out, strict=True)
        assert stats.messages_total >= stats.messages_transformed
        dur = simulate(out, CFG).duration
        assert dur >= 0
        # compute conservation (the rebuild may drop sub-femtosecond
        # burst slivers at split points; bound: ~1e-15 s per insertion)
        slack = 1e-15 * max(out.total_records(), 1)
        assert out.to_traceset().total_virtual_compute() == pytest.approx(
            tr.total_virtual_compute(), rel=1e-6, abs=slack)
    assert base >= 0
