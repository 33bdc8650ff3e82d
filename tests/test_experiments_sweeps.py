"""Tests of network sweeps and the adaptive-chunking extension."""

import pytest

from repro.core.transform import OverlapConfig, overlap_transform
from repro.dimemas.machine import MachineConfig
from repro.experiments.pipeline import AppExperiment
from repro.experiments.sweeps import ascii_series, bandwidth_sweep, latency_sweep
from repro.trace.records import CHANNEL_CHUNK, ISend
from repro.trace.validate import validate


@pytest.fixture(scope="module")
def exp():
    return AppExperiment("cg", nranks=4, app_params=dict(n=8000, iterations=2),
                         machine=MachineConfig.paper_testbed("cg"))


class TestBandwidthSweep:
    def test_durations_monotone_in_bandwidth(self, exp):
        sw = bandwidth_sweep(exp, [10.0, 50.0, 250.0])
        for series in sw.durations.values():
            assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))

    def test_all_variants_present(self, exp):
        sw = bandwidth_sweep(exp, [50.0, 250.0])
        assert set(sw.durations) == {"original", "real", "ideal"}

    def test_speedups_relative_to_original(self, exp):
        sw = bandwidth_sweep(exp, [50.0, 250.0])
        assert sw.speedups("original") == (1.0, 1.0)

    def test_crossover_detection(self):
        from repro.experiments.sweeps import SweepResult
        sw = SweepResult("bandwidth_mbps", (1.0, 2.0, 3.0), {
            "original": (10.0, 8.0, 6.0),
            "real": (9.0, 7.99, 6.3),
        })
        assert sw.crossover("real") == 3.0

    def test_no_crossover(self):
        from repro.experiments.sweeps import SweepResult
        sw = SweepResult("x", (1.0, 2.0), {
            "original": (10.0, 8.0), "real": (5.0, 4.0)})
        assert sw.crossover("real") is None


class TestLatencySweep:
    def test_durations_monotone_in_latency(self, exp):
        sw = latency_sweep(exp, [1e-6, 16e-6, 64e-6])
        for series in sw.durations.values():
            assert all(a <= b + 1e-12 for a, b in zip(series, series[1:]))


class TestAsciiSeries:
    def test_renders_with_marks_and_legend(self, exp):
        sw = bandwidth_sweep(exp, [50.0, 250.0])
        text = ascii_series(sw, width=30, height=6)
        assert "legend:" in text
        assert "o" in text and "duration vs bandwidth_mbps" in text
        body = [l for l in text.splitlines() if l.startswith("|")]
        assert len(body) == 6 and all(len(l) == 32 for l in body)


class TestAdaptiveChunking:
    def test_chunks_for_policy(self):
        cfg = OverlapConfig(chunks=8, chunk_bytes=1000)
        assert cfg.chunks_for(500) == 1
        assert cfg.chunks_for(1000) == 1
        assert cfg.chunks_for(2500) == 3
        assert cfg.chunks_for(10**6) == 8  # capped

    def test_fixed_scheme_by_default(self):
        assert OverlapConfig(chunks=4).chunks_for(10**9) == 4

    def test_invalid_chunk_bytes(self):
        with pytest.raises(ValueError):
            OverlapConfig(chunk_bytes=0)

    def test_adaptive_transform_valid_and_size_dependent(self, pipeline_trace):
        out, stats = overlap_transform(
            pipeline_trace, OverlapConfig(chunks=8, chunk_bytes=256))
        validate(out, strict=True)
        sizes = {r.size for p in out.to_traceset() for r in p
                 if isinstance(r, ISend) and r.channel == CHANNEL_CHUNK}
        assert sizes  # produced chunked traffic
        # pipeline messages are 64*8=512 bytes -> 2 chunks of ~256
        assert max(sizes) <= 256
