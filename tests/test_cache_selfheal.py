"""Self-healing caches: a corrupt entry is a miss and is rebuilt.

Every corruption a killed or buggy writer can produce — truncation,
bit-flips, garbage, stale schema, orphaned staging files — must be
detected on load, unlinked, and transparently rebuilt over.  A
corrupted cache may cost time, never correctness.
"""

import json
import multiprocessing
import os

import pytest

from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    SimResultCache,
    TraceCache,
    TraceStore,
    sweep_cache_dir,
    trace_digest,
)
from repro.obs import get_registry
from repro.trace import dim
from repro.trace.columnar import columnar_of
from repro.tracer import run_traced
from tests.conftest import make_pipeline_app

MACHINE = MachineConfig(bandwidth_mbps=100.0, latency=10e-6, buses=4)


@pytest.fixture(scope="module")
def trace():
    return run_traced(make_pipeline_app(), 4, mips=1000.0).trace


def discarded(before: float) -> float:
    """Corrupt entries unlinked since ``before`` (registry counter)."""
    return get_registry().counter("cache.discarded").value - before


def flip_byte(path):
    """Flip one byte in the middle of a file (never valid UTF-8 after)."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def assert_no_quarantine(directory):
    """A bad entry is unlinked, never moved aside."""
    assert not list(directory.rglob("quarantine"))


class TestTraceCacheHealing:
    def seed(self, tmp_path, trace):
        cache = TraceCache(tmp_path)
        key = cache.key(app="pipeline", nranks=4)
        cache.load_or_build(key, lambda: trace)
        return cache, key, cache.path_for(key)

    @pytest.mark.parametrize("damage", [
        lambda t: t[: len(t) // 2],              # truncated by a kill
        lambda t: b"!! not a trace !!\n",        # garbage
        lambda t: bytes([t[0] ^ 0x40]) + t[1:],  # magic destroyed
        lambda t: t[:4] + b"\x63\x00\x00\x00" + t[8:],   # foreign version
        lambda t: t[:-20] + bytes([t[-20] ^ 1]) + t[-19:],  # bit flip
    ])
    def test_bad_entry_quarantined_and_rebuilt(self, tmp_path, trace, damage):
        cache, key, path = self.seed(tmp_path, trace)
        good = dim.dumps(trace)
        path.write_bytes(damage(path.read_bytes()))

        before = get_registry().counter("cache.discarded").value
        fresh = TraceCache(tmp_path)
        rebuilt = fresh.load_or_build(key, lambda: trace)
        assert dim.dumps(rebuilt) == good
        assert fresh.rebuilt == 1 and fresh.misses == 1
        assert discarded(before) == 1
        assert_no_quarantine(tmp_path)
        # the healed entry verifies: next open is a clean hit
        again = TraceCache(tmp_path)
        again.load_or_build(key, lambda: pytest.fail("should be cached"))
        assert again.hits == 1 and again.rebuilt == 0


class TestSimResultCacheHealing:
    def seed(self, tmp_path, trace):
        cache = SimResultCache(tmp_path)
        result = cache.load_or_simulate(trace, MACHINE)
        return cache, cache.key(trace, MACHINE), result

    @pytest.mark.parametrize("damage", [
        lambda t: t[:-10],                       # truncated
        lambda t: t.replace('"duration"', '"duraXion"', 1),  # bit flip
        lambda t: json.dumps(json.loads(t)["result"]),  # pre-envelope entry
        lambda t: t.replace('"schema":1', '"schema":99', 1),  # future schema
    ])
    def test_bad_entry_requarantined_and_resimulated(self, tmp_path, trace,
                                                     damage):
        cache, key, result = self.seed(tmp_path, trace)
        path = cache.path_for(key)
        path.write_text(damage(path.read_text()))

        before = get_registry().counter("cache.discarded").value
        fresh = SimResultCache(tmp_path)
        healed = fresh.load_or_simulate(trace, MACHINE)
        assert fresh.rebuilt == 1 and fresh.misses == 1
        assert discarded(before) == 1
        assert_no_quarantine(tmp_path)
        # the healed value is the true simulation, bit for bit
        truth = simulate(trace, MACHINE)
        assert healed.duration == truth.duration
        assert healed.rank_end == truth.rank_end
        assert SimResultCache(tmp_path).load(key).duration == truth.duration

    def test_corrupt_entry_never_returns_garbage(self, tmp_path, trace):
        # a bit-flip *inside* a number must not surface as a wrong value
        cache, key, result = self.seed(tmp_path, trace)
        path = cache.path_for(key)
        text = path.read_text()
        dur = repr(result.duration)
        assert dur in text
        path.write_text(text.replace(dur, repr(result.duration * 10), 1))
        assert SimResultCache(tmp_path).load(key) is None

    def test_undecodable_sidecar_falls_back_to_envelope(self, tmp_path,
                                                        trace):
        """A flipped byte that leaves the sidecar invalid UTF-8 is
        corruption like any other: the envelope answers and the
        sidecar is rebuilt."""
        cache, key, result = self.seed(tmp_path, trace)
        flip_byte(cache._dur_path(key))
        assert SimResultCache(tmp_path).load_duration(key) == result.duration
        healed = SimResultCache(tmp_path)
        assert healed.load_duration(key) == result.duration
        assert healed.rebuilt == 0

    def test_bad_sidecar_without_envelope_counts_rebuilt(self, tmp_path,
                                                         trace):
        """A duration-only entry is its sidecar alone: discarding it
        costs a replay, counted as a rebuild like a bad envelope."""
        duration = simulate(trace, MACHINE).duration
        cache = SimResultCache(tmp_path)
        key = cache.key(trace, MACHINE)
        cache.store_duration(key, duration)
        flip_byte(cache._dur_path(key))

        before = get_registry().counter("cache.discarded").value
        fresh = SimResultCache(tmp_path)
        assert fresh.load_duration(key) is None
        assert fresh.rebuilt == 1 and fresh.misses == 1
        assert discarded(before) == 1
        fresh.store_duration(key, duration)
        again = SimResultCache(tmp_path)
        assert again.load_duration(key) == duration
        assert again.hits == 1 and again.rebuilt == 0

    def test_undecodable_digest_is_absent(self, tmp_path, trace):
        cache = SimResultCache(tmp_path)
        cache.put_digest("speckey", trace_digest(trace))
        flip_byte(tmp_path / "speckey.digest")
        assert cache.get_digest("speckey") is None
        assert not (tmp_path / "speckey.digest").exists()

    def test_malformed_digest_quarantined(self, tmp_path, trace):
        cache = SimResultCache(tmp_path)
        cache.put_digest("speckey", trace_digest(trace))
        assert cache.get_digest("speckey") == trace_digest(trace)
        (tmp_path / "speckey.digest").write_text("ZZ-not-hex")
        assert cache.get_digest("speckey") is None
        assert not (tmp_path / "speckey.digest").exists()
        assert_no_quarantine(tmp_path)
        # healable: a rewrite works again
        cache.put_digest("speckey", trace_digest(trace))
        assert cache.get_digest("speckey") == trace_digest(trace)


#: One entry of each kind, as a warm cache directory holds them; the
#: sidecar beside an envelope is healed from it instead of missing.
ENTRY_KINDS = ("traces/*.rct", "dispatch/*.rct", "replays/*.json",
               "replays/*.dur", "replays/*.dur beside *.json",
               "replays/*.digest")
TRACE_KEY = TraceCache.key(app="pipeline", nranks=4)
#: A platform whose replay has a sidecar and no envelope.
SIDECAR_ONLY = MachineConfig(bandwidth_mbps=50.0, latency=10e-6, buses=4)


@pytest.fixture
def cache_warnings(monkeypatch):
    """Every warning the cache module logs, formatted."""
    logged = []
    monkeypatch.setattr(cache_mod._log, "warning",
                        lambda msg, *args: logged.append(msg % args))
    return logged


def seed_every_kind(root, trace) -> dict:
    """Publish one entry of each kind under ``root``; their paths."""
    TraceCache(root / "traces").load_or_build(TRACE_KEY, lambda: trace)
    digest = TraceStore(root / "dispatch").put(columnar_of(trace))
    replays = SimResultCache(root / "replays")
    key = replays.key(trace, MACHINE)
    replays.store(key, simulate(trace, MACHINE))
    alone = replays.key(trace, SIDECAR_ONLY)
    replays.store_duration(alone, simulate(trace, SIDECAR_ONLY).duration)
    replays.put_digest("speckey", digest)
    return {
        "traces/*.rct": root / "traces" / f"{TRACE_KEY}.rct",
        "dispatch/*.rct": root / "dispatch" / f"{digest}.rct",
        "replays/*.json": replays.path_for(key),
        "replays/*.dur": replays._dur_path(alone),
        "replays/*.dur beside *.json": replays._dur_path(key),
        "replays/*.digest": root / "replays" / "speckey.digest",
    }


def look_up(kind, root, trace):
    """Look the entry of ``kind`` up on a fresh cache object: the
    object and its answer (None for a miss)."""
    if kind == "traces/*.rct":
        cache = TraceCache(root / "traces")
        built = []
        cache.load_or_build(TRACE_KEY, lambda: built.append(1) or trace)
        return cache, None if built else trace
    if kind == "dispatch/*.rct":
        cache = TraceStore(root / "dispatch")
        return cache, cache.get(trace_digest(trace))
    cache = SimResultCache(root / "replays")
    if kind == "replays/*.json":
        return cache, cache.load(cache.key(trace, MACHINE))
    if kind == "replays/*.dur":
        return cache, cache.load_duration(cache.key(trace, SIDECAR_ONLY))
    if kind == "replays/*.digest":
        return cache, cache.get_digest("speckey")
    return cache, cache.load_duration(cache.key(trace, MACHINE))


class TestOneReader:
    """Every entry kind is read through one reader, which counts a bad
    entry the same way for every kind."""

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    def test_flipped_byte_is_discarded_and_counted_once(
            self, tmp_path, trace, cache_warnings, kind):
        paths = seed_every_kind(tmp_path, trace)
        flip_byte(paths[kind])
        before = get_registry().counter("cache.discarded").value
        cache, answer = look_up(kind, tmp_path, trace)
        if kind == "replays/*.dur beside *.json":
            assert answer == simulate(trace, MACHINE).duration
            assert paths[kind].exists()  # healed from the envelope
        else:
            assert answer is None
        assert cache.rebuilt == 1
        assert discarded(before) == 1
        discards = [w for w in cache_warnings if w.startswith("discarding")]
        assert len(discards) == 1 and str(paths[kind]) in discards[0]
        assert_no_quarantine(tmp_path)

    def test_unusable_directory_is_a_plain_miss(self, tmp_path, trace,
                                                cache_warnings):
        """Under a path component that is a regular file every entry is
        absent: no entry is discarded, and nothing but the degrade is
        logged."""
        blocker = tmp_path / "file"
        blocker.write_text("x")
        before = get_registry().counter("cache.discarded").value
        traces = TraceCache(blocker / "traces")
        store = TraceStore(blocker / "dispatch")
        replays = SimResultCache(blocker / "replays")
        key = replays.key(trace, MACHINE)
        assert replays.get_digest("speckey") is None
        assert replays.load_duration(key) is None
        assert replays.load(key) is None
        assert store.get(trace_digest(trace)) is None
        assert traces.load_or_build(TRACE_KEY, lambda: trace) is trace
        assert discarded(before) == 0
        assert traces.rebuilt == store.rebuilt == replays.rebuilt == 0
        assert replays.misses == 2 and store.misses == traces.misses == 1
        assert all("cache degraded" in w for w in cache_warnings)


class TestOrphanSweep:
    DEAD_PID = 2 ** 22 + 12345  # beyond default pid_max: never alive

    def test_dead_writer_tmp_swept_on_open(self, tmp_path):
        orphan = tmp_path / f"abc123.dim.{self.DEAD_PID}.tmp"
        orphan.write_text("half-written")
        TraceCache(tmp_path)
        assert not orphan.exists()

    def test_live_writer_tmp_kept(self, tmp_path):
        busy = tmp_path / f"abc123.dim.{os.getpid()}.tmp"
        busy.write_text("mid-publish")
        TraceCache(tmp_path)
        assert busy.exists()

    def test_sweep_cache_dir_removes_own_tmps_too(self, tmp_path):
        # the Ctrl-C path: even this process's staging files are garbage
        for sub in ("traces", "replays"):
            d = tmp_path / sub
            d.mkdir()
            (d / f"k.x.{os.getpid()}.tmp").write_text("")
            (d / f"k.y.{self.DEAD_PID}.tmp").write_text("")
        assert sweep_cache_dir(tmp_path) == 4
        assert not list(tmp_path.rglob("*.tmp"))


def _heal_worker(directory, barrier, q):
    """Race a rebuild of one corrupted entry against a sibling process."""
    cache = TraceCache(directory)
    key = cache.key(app="pipeline", nranks=4)
    built = []

    def build():
        built.append(1)
        return run_traced(make_pipeline_app(), 4, mips=1000.0).trace

    barrier.wait()
    trace = cache.load_or_build(key, build)
    q.put((dim.dumps(trace), len(built)))


class TestConcurrentHealing:
    def test_corrupt_entry_healed_under_concurrent_writers(self, tmp_path,
                                                           trace):
        cache = TraceCache(tmp_path)
        key = cache.key(app="pipeline", nranks=4)
        cache.load_or_build(key, lambda: trace)
        cache.path_for(key).write_text("corrupted beyond repair\n")

        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        q = ctx.Queue()
        procs = [
            ctx.Process(target=_heal_worker, args=(str(tmp_path), barrier, q))
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        outs = [q.get(timeout=120) for _ in range(2)]
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

        # both racers got the true trace, no matter who discarded
        good = dim.dumps(trace)
        assert [o[0] for o in outs] == [good, good]
        assert sum(o[1] for o in outs) >= 1  # somebody rebuilt
        # the corrupt entry was rebuilt over and the published one verifies
        assert_no_quarantine(tmp_path)
        healed = TraceCache(tmp_path)
        healed.load_or_build(key, lambda: pytest.fail("should be cached"))
        assert healed.hits == 1
        assert not list(tmp_path.glob("*.tmp"))
