"""A duration probe costs one replay: the cache traffic behind it.

Duration-only consumers (the Figure 6 bandwidth searches, sweeps) read
makespans, never full results.  These tests pin what each path writes
and reads:

* a pooled ``durations()`` replay publishes only the ``.dur`` sidecar;
  a later ``run_grid`` of the same points replays them again and writes
  the result envelopes;
* warm duration lookups, through ``AppExperiment.duration`` and through
  a serial engine, read sidecars and never load an envelope;
* a serial engine's cold duration miss replays once and publishes the
  sidecar alone, never consulting a result envelope;
* a search run by a fresh engine on a cache where a ladder published
  the trace digests ships its probes by digest: the parent builds no
  trace, runs no transform and no skeleton, and ships no spec;
* a one-search campaign on two workers asks its path probe plus one
  speculative probe per round;
* a degraded cache keeps no sidecar-only duration: ``load_duration``
  misses without reaching ``load``, and the experiment's memo answers
  its second ``duration()`` without a second replay;
* on a cold cache every replay is looked up once, by the parent when
  it knows the trace digest and otherwise by whoever replays it, and a
  grid that names one platform two ways replays it once, on every job
  count and in both modes.
"""

from __future__ import annotations

import errno

import pytest

from repro.audit.certify import result_digest
from repro.dimemas.replay import simulate
from repro.experiments import cache as cache_mod
from repro.experiments.bandwidth import (
    equivalent_bandwidth,
    relaxation_bandwidth,
)
from repro.experiments.cache import SimResultCache, TraceCache
from repro.experiments.parallel import ExperimentEngine, expand_grid
from repro.experiments.pipeline import VARIANTS, AppExperiment
from repro.obs import get_registry

#: A tiny Sweep3D instance so traces build in milliseconds.
TINY = dict(nx=8, ny=8, nz=4, mk=2, angle_block=2, iterations=1)


def tiny_exp(**kwargs) -> AppExperiment:
    return AppExperiment("sweep3d", nranks=4, app_params=TINY, **kwargs)


def ladder(bandwidths=(None, 100.0)):
    return expand_grid(["sweep3d"], variants=VARIANTS, bandwidths=bandwidths,
                       nranks=4, app_params=TINY)


def counter(name: str) -> int:
    return get_registry().counter(name).value


def _no_load(self, key):
    raise AssertionError(f"SimResultCache.load({key}) on a warm duration lookup")


class TestSidecarOnlyPoints:
    def test_pooled_durations_write_sidecars_then_run_grid_envelopes(
            self, tmp_path):
        points = ladder()
        replays = tmp_path / "replays"
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            durs = eng.durations(points)
        executed = counter("engine.points_executed") - executed0
        assert executed == len(points)
        assert len(list(replays.glob("*.dur"))) == executed
        assert not list(replays.glob("*.json"))

        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            results = eng.run_grid(points)
        assert len(list(replays.glob("*.json"))) == len(points)
        exp = tiny_exp()
        for p, res, dur in zip(points, results, durs):
            direct = simulate(exp.trace(p.variant),
                              exp.platform(bandwidth_mbps=p.bandwidth_mbps))
            assert result_digest(res) == result_digest(direct)
            assert res.duration == dur

    def test_warm_duration_lookups_never_load_envelopes(
            self, tmp_path, monkeypatch):
        points = ladder()
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            durs = eng.durations(points)
        monkeypatch.setattr(SimResultCache, "load", _no_load)

        exp = tiny_exp(sim_cache=SimResultCache(tmp_path / "replays"))
        assert [exp.duration(p.variant, bandwidth_mbps=p.bandwidth_mbps)
                for p in points] == durs
        assert exp._traces == {}
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            assert eng.durations(points) == durs

    def test_serial_cold_misses_write_only_sidecars(
            self, tmp_path, monkeypatch):
        points = ladder((None, 50.0, 100.0))
        monkeypatch.setattr(SimResultCache, "load", _no_load)
        misses0 = counter("cache.replay.misses")
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            durs = eng.durations(points)
        replays = tmp_path / "replays"
        assert len(list(replays.glob("*.dur"))) == len(points)
        assert not list(replays.glob("*.json"))
        # One lookup per point: a variant's first one once its trace,
        # and so its digest, exists.
        assert counter("cache.replay.misses") - misses0 == len(points)
        exp = tiny_exp()
        assert durs == [exp.duration(p.variant, bandwidth_mbps=p.bandwidth_mbps)
                        for p in points]

    def test_degraded_store_duration_is_held_in_memory(
            self, tmp_path, monkeypatch):
        # A read-only directory, modelled at the publish call: mode bits
        # do not stop a root user.
        def read_only(path, data):
            raise OSError(errno.EROFS, "Read-only file system")

        cache = SimResultCache(tmp_path / "replays")
        monkeypatch.setattr(cache_mod, "_stage_and_publish", read_only)
        key = "0" * 24
        cache.store_duration(key, 1.25)
        assert cache.degraded
        assert not list((tmp_path / "replays").iterdir())
        assert cache.load(key) is None  # no result behind the duration
        monkeypatch.setattr(SimResultCache, "load", _no_load)
        assert cache.load_duration(key) is None  # the cache kept nothing
        exp = tiny_exp(sim_cache=cache)
        first = exp.duration("original")
        replays = counter("replay.runs")
        assert exp.duration("original") == first
        assert counter("replay.runs") == replays


class TestOneLookupPerPoint:
    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("mode", ("durations", "run_grid"))
    def test_one_miss_per_executed_point(self, tmp_path, mode, jobs):
        baseline = tiny_exp().machine.bandwidth_mbps
        misses0 = counter("cache.replay.misses")
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=jobs, cache_dir=tmp_path) as eng:
            run = getattr(eng, mode)
            # Digests unknown; None and the baseline are one platform.
            run(ladder((None, baseline)))
            # Digests known to the parent.
            run(ladder((50.0, 100.0)))
        executed = counter("engine.points_executed") - executed0
        assert executed == 3 * len(VARIANTS)
        assert counter("cache.replay.misses") - misses0 == executed


class TestSearchDispatchByDigest:
    @pytest.mark.parametrize("search,variant", [
        (relaxation_bandwidth, "real"), (equivalent_bandwidth, "ideal"),
    ])
    def test_search_traces_nothing_once_digests_are_published(
            self, tmp_path, monkeypatch, search, variant):
        expected = search(tiny_exp(), variant)
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            eng.durations(ladder())
        exp = tiny_exp(cache=TraceCache(tmp_path / "traces"),
                       sim_cache=SimResultCache(tmp_path / "replays"))
        traced = []

        def trace(v="original"):
            traced.append(v)
            raise AssertionError(f"parent built the {v} trace")

        monkeypatch.setattr(exp, "trace", trace)
        names = ("transform.runs", "smpi.runs", "engine.dispatch.spec_points")
        before = [counter(n) for n in names]
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            assert search(exp, variant, engine=eng) == expected
        assert traced == []
        assert [counter(n) for n in names] == before


class TestRoundSize:
    def test_rounds_are_sized_to_the_pool(self, tmp_path, monkeypatch):
        """On two workers a one-search campaign asks its anchor, then per
        round the walk's next probe plus one speculative probe of the
        level below it, never a wider round, in fewer rounds than the
        sequential walk has probes."""
        probes = get_registry().counter("bisect.probes")
        p0 = probes.value
        expected = relaxation_bandwidth(tiny_exp(), "real")
        sequential = probes.value - p0
        calls = []
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            durations = eng.durations

            def recording(points):
                points = list(points)
                calls.append(len(points))
                return durations(points)

            monkeypatch.setattr(eng, "durations", recording)
            assert relaxation_bandwidth(tiny_exp(), "real",
                                        engine=eng) == expected
        assert calls[0] == 1
        assert set(calls[1:-1]) == {2} and calls[-1] in (1, 2)
        assert len(calls) - 1 < sequential
