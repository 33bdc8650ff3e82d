"""Tests of the on-disk trace and replay-result caches."""

import dataclasses
import multiprocessing
import threading
import tracemalloc

import pytest

from repro.experiments.cache import SimResultCache, TraceCache, trace_digest
from repro.experiments.pipeline import AppExperiment
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.perturb import BandwidthWindow, PerturbationSchedule
from repro.trace import dim
from repro.trace.columnar import decode, from_traceset


class TestTraceCache:
    def test_miss_then_hit(self, tmp_path, pipeline_trace):
        cache = TraceCache(tmp_path)
        key = cache.key(app="x", nranks=4)
        calls = []
        def build():
            calls.append(1)
            return pipeline_trace
        a = cache.load_or_build(key, build)
        b = cache.load_or_build(key, build)
        assert calls == [1]
        assert cache.hits == 1 and cache.misses == 1
        assert dim.dumps(a) == dim.dumps(b)

    def test_key_sensitive_to_fields(self):
        k1 = TraceCache.key(app="cg", nranks=4, params={})
        k2 = TraceCache.key(app="cg", nranks=8, params={})
        k3 = TraceCache.key(app="cg", nranks=4, params={"n": 10})
        assert len({k1, k2, k3}) == 3

    def test_clear_and_len(self, tmp_path, pipeline_trace):
        cache = TraceCache(tmp_path)
        cache.load_or_build(cache.key(a=1), lambda: pipeline_trace)
        cache.load_or_build(cache.key(a=2), lambda: pipeline_trace)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_creates_directory(self, tmp_path):
        cache = TraceCache(tmp_path / "deep" / "nested")
        assert cache.directory.is_dir()


@pytest.fixture(scope="module")
def profiled_trace():
    """CG at 4 ranks: ~18 MB of access profiles on ~30 KB of records."""
    return AppExperiment("cg", nranks=4).trace("original")


def profile_bytes(trace) -> int:
    return sum(times.nbytes for rc in from_traceset(trace).ranks
               for *_, times in rc.profiles)


class TestSynchronousPublish:
    """``load_or_build`` publishes in the caller's thread, streaming."""

    def test_entry_on_disk_when_call_returns(self, tmp_path, monkeypatch,
                                             profiled_trace):
        started = []
        start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        cache = TraceCache(tmp_path)
        key = cache.key(app="cg", nranks=4)
        cache.load_or_build(key, lambda: profiled_trace)
        assert started == []
        col = decode(cache.path_for(key).read_bytes())
        assert any(rc.profiles for rc in col.ranks)
        assert col.encode() == from_traceset(profiled_trace).encode()

    def test_publish_copies_no_profile(self, tmp_path, profiled_trace):
        cache = TraceCache(tmp_path)
        key = cache.key(app="cg", nranks=4)
        tracemalloc.start()
        try:
            cache.load_or_build(key, lambda: profiled_trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache.path_for(key).exists()
        assert peak < profile_bytes(profiled_trace) / 4


class TestExperimentIntegration:
    def test_experiment_uses_cache_across_instances(self, tmp_path):
        cache = TraceCache(tmp_path)
        kwargs = dict(
            app_params=dict(n=4000, iterations=2),
            machine=MachineConfig.paper_testbed("cg"),
            cache=cache,
        )
        e1 = AppExperiment("cg", nranks=4, **kwargs)
        t1 = e1.trace("original")
        e2 = AppExperiment("cg", nranks=4, **kwargs)
        t2 = e2.trace("original")
        assert cache.misses == 1 and cache.hits == 1
        assert dim.dumps(t1) == dim.dumps(t2)
        # cached traces still drive the full pipeline
        s = e2.speedups()
        assert s["real"] > 0.5

    def test_experiment_sim_cache_across_instances(self, tmp_path):
        sim_cache = SimResultCache(tmp_path)
        kwargs = dict(
            app_params=dict(n=2000, iterations=1),
            machine=MachineConfig.paper_testbed("cg"),
            sim_cache=sim_cache,
        )
        e1 = AppExperiment("cg", nranks=4, **kwargs)
        d1 = e1.duration("original")
        e2 = AppExperiment("cg", nranks=4, **kwargs)
        d2 = e2.duration("original")
        assert sim_cache.misses == 1 and sim_cache.hits == 1
        assert d1 == d2  # exact: floats round-trip through JSON

    def test_warm_hit_skips_trace_building(self, tmp_path):
        sim_cache = SimResultCache(tmp_path)
        kwargs = dict(
            app_params=dict(n=2000, iterations=1),
            machine=MachineConfig.paper_testbed("cg"),
            sim_cache=sim_cache,
        )
        e1 = AppExperiment("cg", nranks=4, **kwargs)
        d1 = e1.duration("original")
        # the spec->digest index lets a fresh instance answer from the
        # cache without tracing or transforming anything
        e2 = AppExperiment("cg", nranks=4, **kwargs)
        d2 = e2.duration("original")
        assert d2 == d1
        assert e2._traces == {}

    def test_spec_key_hashed_once_per_variant(self, tmp_path, monkeypatch):
        from repro.experiments import cache as cache_mod

        hashed = []
        content_key = cache_mod.content_key

        def counting(**fields):
            if fields.get("kind") == "experiment":
                hashed.append(fields["variant"])
            return content_key(**fields)

        monkeypatch.setattr(cache_mod, "content_key", counting)
        sim_cache = SimResultCache(tmp_path)
        kwargs = dict(
            app_params=dict(n=2000, iterations=1),
            machine=MachineConfig.paper_testbed("cg"),
            sim_cache=sim_cache,
        )
        cold, e = (AppExperiment("cg", nranks=4, **kwargs) for _ in range(2))
        for exp in (cold, e, e, e):
            exp.duration("original")
            exp.duration("original", bandwidth_mbps=100.0)
        # One hash per variant and experiment; every warm lookup still
        # reads the spec->digest entry from disk.
        assert hashed == ["original", "original"]
        assert e._traces == {}

    def test_platform_variations_get_distinct_entries(self, tmp_path):
        sim_cache = SimResultCache(tmp_path)
        e = AppExperiment(
            "cg", nranks=4, app_params=dict(n=2000, iterations=1),
            machine=MachineConfig.paper_testbed("cg"), sim_cache=sim_cache,
        )
        d250 = e.duration("original")
        d100 = e.duration("original", bandwidth_mbps=100.0)
        assert d100 != d250
        assert len(sim_cache) == 2


def _race_builder():
    from repro.tracer.tracefile import run_traced
    from tests.conftest import make_pipeline_app
    return run_traced(make_pipeline_app(elements=16, iterations=2),
                      2, mips=1000.0).trace


def _race_worker(directory: str, barrier, q) -> None:
    cache = TraceCache(directory)
    key = cache.key(app="race", n=2)
    barrier.wait()  # maximize the chance both processes build+publish
    trace = cache.load_or_build(key, _race_builder)
    q.put(dim.dumps(trace))


class TestConcurrentWriters:
    def test_two_processes_same_key(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        q = ctx.Queue()
        procs = [
            ctx.Process(target=_race_worker, args=(str(tmp_path), barrier, q))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        outs = [q.get(timeout=120) for _ in range(2)]
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        # both writers succeed with identical content; the published
        # file is complete and no temp files leak
        assert outs[0] == outs[1]
        files = list(tmp_path.glob("*.rct"))
        assert len(files) == 1
        # published entry is a complete columnar container holding the
        # same trace both builders produced
        from repro.trace.columnar import decode
        stored = decode(files[0].read_bytes()).to_traceset()
        assert dim.dumps(stored) == outs[0]
        assert not list(tmp_path.glob("*.tmp"))


class TestSimResultCache:
    def test_miss_then_hit_exact_roundtrip(self, tmp_path, pipeline_trace,
                                           machine):
        cache = SimResultCache(tmp_path)
        cache.load_or_simulate(pipeline_trace, machine)
        restored = cache.load_or_simulate(pipeline_trace, machine)
        assert cache.misses == 1 and cache.hits == 1
        fresh = simulate(pipeline_trace, machine)
        assert restored.duration == fresh.duration
        assert restored.rank_end == fresh.rank_end
        assert restored.states == fresh.states
        assert restored.messages == fresh.messages
        assert restored.events == fresh.events

    def test_key_sensitive_to_every_machine_field(self, pipeline_trace):
        base = MachineConfig()
        variations = dict(
            bandwidth_mbps=100.0, latency=1e-5, buses=4, input_ports=2,
            output_ports=2, cpu_ratio=2.0, cores_per_node=2,
            intra_latency=2e-6, intra_bandwidth_mbps=1000.0,
            eager_threshold=1024, collective_model_factor=2.0,
            max_events=1_000_000, max_sim_time=3600.0,
            perturb=PerturbationSchedule(
                bandwidth=(BandwidthWindow(0.0, 1.0, 0.5),)
            ),
        )
        # the variation list covers the whole platform: adding a new
        # MachineConfig knob must extend this test
        assert set(variations) == {
            f.name for f in dataclasses.fields(MachineConfig)
        }
        keys = {SimResultCache.key(pipeline_trace, base)}
        for name, value in variations.items():
            keys.add(SimResultCache.key(
                pipeline_trace, dataclasses.replace(base, **{name: value}),
            ))
        assert len(keys) == len(variations) + 1

    @pytest.mark.parametrize("platform", [
        "testbed", "unlimited", "latency", "bandwidth-sag",
    ])
    def test_key_is_the_asdict_key(self, platform):
        """Keys equal those of the whole platform through
        ``dataclasses.asdict``: existing cache directories stay valid."""
        import hashlib
        import json

        from repro import __version__
        from repro.perturb.scenarios import build_scenario

        cfg = MachineConfig.paper_testbed("cg")
        cfg = {
            "testbed": cfg,
            "unlimited": cfg.with_platform(buses=None),
            "latency": cfg.with_platform(latency=5e-5),
            "bandwidth-sag": cfg.with_platform(
                perturb=build_scenario("bandwidth-sag", 0.25, seed=3)),
        }[platform]
        assert (cfg.perturb is not None) == (platform == "bandwidth-sag")
        digest = "0123456789abcdef01234567"
        blob = json.dumps(
            {"_version": __version__, "trace": digest,
             "machine": dataclasses.asdict(cfg)},
            sort_keys=True, default=repr,
        ).encode()
        assert (SimResultCache.key_for_digest(digest, cfg)
                == hashlib.sha256(blob).hexdigest()[:24])

    def test_key_sensitive_to_trace_content(self, pipeline_trace, machine):
        from repro.tracer.tracefile import run_traced
        from tests.conftest import make_pipeline_app
        other = run_traced(make_pipeline_app(iterations=2), 4,
                           mips=1000.0).trace
        assert SimResultCache.key(pipeline_trace, machine) != \
            SimResultCache.key(other, machine)

    def test_runner_hook_and_clear(self, tmp_path, pipeline_trace, machine):
        cache = SimResultCache(tmp_path)
        calls = []

        def runner(trace, m):
            calls.append(1)
            return simulate(trace, m)

        cache.load_or_simulate(pipeline_trace, machine, runner=runner)
        cache.load_or_simulate(pipeline_trace, machine, runner=runner)
        assert calls == [1]
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_trace_digest_stable(self, pipeline_trace):
        d1 = trace_digest(pipeline_trace)
        d2 = trace_digest(pipeline_trace)  # memoized path
        assert d1 == d2
        assert len(d1) == 24
