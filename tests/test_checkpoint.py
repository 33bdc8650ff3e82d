"""Resume and drain: campaigns resume from the result cache.

Covers the engine's serve-without-re-execution resume path on a cache
directory, graceful drain on SIGTERM/SIGINT, the report CLI's drain and
resume through its run directory, caches that degrade (they stop
publishing and keep nothing), staging sweeps, and the run-manifest
resume bookkeeping.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.audit.certify import result_digest
from repro.experiments import (
    CampaignInterrupted,
    ExperimentEngine,
    GridExecutionError,
    GridPoint,
    expand_grid,
    graceful_drain,
    list_runs,
)
from repro.experiments import cache as cache_mod
from repro.experiments.cache import (
    SimResultCache,
    TraceCache,
    _writer_alive,
    sweep_cache_dir,
)
from repro.experiments.checkpoint import render_runs_table
from repro.obs import RunContext, get_registry
from repro.trace.columnar import ColumnarTrace, from_traceset

#: A tiny Sweep3D instance so traces build in milliseconds.
TINY = dict(nx=8, ny=8, nz=4, mk=2, angle_block=2, iterations=1)

#: A grid point that fails identically on every attempt.
POISON = GridPoint(app="no_such_app", nranks=4)


def tiny_points():
    return expand_grid(
        ["sweep3d"],
        variants=("original", "real"),
        bandwidths=(None, 100.0),
        nranks=4,
        app_params=TINY,
    )


def counter(name: str) -> float:
    return get_registry().counter(name).value


# --------------------------------------------------------------------------- #
# Engine resume: a new engine on the same cache serves finished points.
# --------------------------------------------------------------------------- #

class TestEngineResume:
    def test_resume_serves_without_reexecution(self, tmp_path):
        pts = tiny_points()
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            first = eng.run_grid(pts)
        hits0 = counter("cache.replay.hits")
        runs0 = counter("replay.runs")
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            second = eng.run_grid(pts)
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
        assert counter("engine.points_executed") == executed0
        assert counter("replay.runs") == runs0
        assert counter("cache.replay.hits") == hits0 + len(pts)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_half_warm_cache_executes_only_misses(self, tmp_path, jobs):
        """Serial and pooled engines count a warm hit as served, not
        executed: with half the grid cached, half of it runs."""
        pts = tiny_points()
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            warm = eng.run_grid(pts[::2])
        hits0 = counter("cache.replay.hits")
        runs0 = counter("replay.runs")
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=jobs, cache_dir=tmp_path) as eng:
            results = eng.run_grid(pts)
        assert [r.to_dict() for r in results[::2]] == [
            r.to_dict() for r in warm]
        cold = len(pts) - len(warm)
        assert counter("cache.replay.hits") - hits0 == len(warm)
        assert counter("replay.runs") - runs0 == cold
        assert counter("engine.points_executed") - executed0 == cold

    def test_result_entry_serves_duration_request(self, tmp_path):
        pts = tiny_points()[:2]
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            results = eng.run_grid(pts)
        for sidecar in (tmp_path / "replays").glob("*.dur"):
            sidecar.unlink()  # only the result envelopes are left
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            durs = eng.durations(pts)
        assert durs == [r.duration for r in results]
        assert counter("engine.points_executed") == executed0

    def test_resumed_results_match_fresh_replay_bitwise(self, tmp_path):
        """A result served from the cache equals a fresh replay's."""
        pts = tiny_points()[:2]
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            eng.run_grid(pts)
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            served = eng.run_grid(pts)
        with ExperimentEngine(jobs=1) as eng:
            fresh = eng.run_grid(pts)
        assert ([result_digest(r) for r in served]
                == [result_digest(r) for r in fresh])

    @pytest.mark.parametrize("degraded", [True, False],
                             ids=["degraded", "strict"])
    def test_resumed_session_retries_failed_point(self, tmp_path, degraded):
        """Failures are not persisted: a resumed session, strict or
        degraded, gives a failed point a fresh attempt."""
        with ExperimentEngine(jobs=1, degraded=True,
                              cache_dir=tmp_path) as eng:
            out = eng.durations([POISON])
        assert out[0].point == POISON
        failed0 = counter("engine.points_failed")
        with ExperimentEngine(jobs=1, degraded=degraded,
                              cache_dir=tmp_path) as eng:
            if degraded:
                out = eng.durations([POISON])
                assert out[0].kind == "exception"
            else:
                with pytest.raises(GridExecutionError):
                    eng.durations([POISON])
        assert counter("engine.points_failed") == failed0 + 1

    def test_corrupt_result_payload_reruns_point(self, tmp_path):
        pts = tiny_points()[:1]
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            first = eng.run_grid(pts)
        # Falsify the stored result; the envelope checksum catches it.
        (entry,) = (tmp_path / "replays").glob("*.json")
        envelope = json.loads(entry.read_text())
        envelope["result"]["duration"] *= 2.0
        entry.write_text(json.dumps(envelope))
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            second = eng.run_grid(pts)
        assert counter("engine.points_executed") == executed0 + 1
        assert second[0].to_dict() == first[0].to_dict()
        # the rebuild published over the falsified entry
        rebuilt = SimResultCache(tmp_path / "replays").load(entry.stem)
        assert rebuilt.to_dict() == first[0].to_dict()
        assert not (tmp_path / "replays" / "quarantine").exists()


# --------------------------------------------------------------------------- #
# Graceful drain.
# --------------------------------------------------------------------------- #

def wait_until(condition, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestGracefulDrain:
    def test_drain_raises_campaign_interrupted_serial(self, tmp_path):
        pts = tiny_points()
        run = RunContext(tmp_path / "obs", command="t", run_id="rX")
        try:
            with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
                eng.request_drain()
                with pytest.raises(CampaignInterrupted) as ei:
                    eng.run_grid(pts)
        finally:
            run.finalize(status="interrupted")
        assert ei.value.resumable
        assert ei.value.run_id == "rX"
        assert ei.value.remaining == len(pts)

    def test_drain_without_run_or_cache_not_resumable(self, tmp_path):
        """Resuming needs both a run to reopen and a cache to serve."""
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            eng.request_drain()
            with pytest.raises(CampaignInterrupted) as ei:
                eng.durations(tiny_points())
        assert not ei.value.resumable
        run = RunContext(tmp_path / "obs", command="t")
        try:
            with ExperimentEngine(jobs=1) as eng:
                eng.request_drain()
                with pytest.raises(CampaignInterrupted) as ei:
                    eng.durations(tiny_points())
        finally:
            run.finalize(status="interrupted")
        assert not ei.value.resumable

    def test_sigterm_stops_unmediated_campaign_at_once(self):
        """Nothing of a serial, unmediated campaign is in flight: the
        first SIGTERM raises instead of waiting for the campaign to
        consult the engine, which it may never do."""
        previous = signal.getsignal(signal.SIGTERM)
        with ExperimentEngine(jobs=1) as eng:
            assert not eng.mediated
            t0 = time.monotonic()
            with pytest.raises(CampaignInterrupted) as ei:
                with graceful_drain(eng):
                    os.kill(os.getpid(), signal.SIGTERM)
                    wait_until(lambda: False, seconds=10.0)
            assert time.monotonic() - t0 < 5.0
            assert eng.drain_requested
        assert ei.value.remaining is None
        assert not ei.value.resumable
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_sigterm_requests_drain_then_resume_completes(self, tmp_path):
        pts = tiny_points()
        previous = signal.getsignal(signal.SIGTERM)
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            with pytest.raises(CampaignInterrupted):
                with graceful_drain(eng):
                    done = eng.durations(pts[:2])
                    os.kill(os.getpid(), signal.SIGTERM)
                    wait_until(lambda: False)
            assert eng.drain_requested
        # The old handler is restored and the campaign resumes cleanly.
        assert signal.getsignal(signal.SIGTERM) is previous
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            full = eng.durations(pts)
        assert full[:2] == done
        assert counter("engine.points_executed") == executed0 + len(pts) - 2

    def test_second_signal_escalates_to_keyboardinterrupt(self):
        # A mediated engine only raises at its next scheduling step, so
        # the first signal merely requests the drain.
        with ExperimentEngine(jobs=1, degraded=True) as eng:
            assert eng.mediated
            with graceful_drain(eng):
                os.kill(os.getpid(), signal.SIGINT)
                wait_until(lambda: eng.drain_requested)
                assert eng.drain_requested
                with pytest.raises(KeyboardInterrupt):
                    os.kill(os.getpid(), signal.SIGINT)
                    wait_until(lambda: False)

    def test_drain_preserves_completed_prefix(self, tmp_path):
        """Points stored before the drain are served on resume."""
        pts = tiny_points()
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            done = eng.durations(pts[:2])  # stored
            eng.request_drain()
            with pytest.raises(CampaignInterrupted):
                eng.durations(pts)
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            full = eng.durations(pts)
        assert full[:2] == done
        # Only the tail had to execute.
        assert counter("engine.points_executed") == executed0 + len(pts) - 2


def without_cache_line(report: str) -> str:
    """The report minus its ``cache:`` summary and the blank line that
    precedes it."""
    lines = report.split("\n")
    (i,) = [i for i, line in enumerate(lines) if line.startswith("cache: ")]
    assert lines[i - 1] == ""
    return "\n".join(lines[:i - 1] + lines[i + 1:])


class TestReportResume:
    ARGS = ["--nranks", "8", "--apps", "cg", "--no-bandwidth"]

    def test_report_drains_then_resumes_from_run_cache(
            self, tmp_path, monkeypatch, capsys):
        """An observed report without --cache-dir caches in its run
        directory: drained (exit 5) and resumed (exit 0), it prints the
        uninterrupted report, and the cache is gone once it is ok."""
        from repro import cli
        from repro.experiments import report as report_mod

        assert cli.main_report(self.ARGS) == 0
        expected = capsys.readouterr().out
        assert "cache:" not in expected

        obs = tmp_path / "obs"
        pattern_row = report_mod.pattern_row

        def sigterm_at_table2(exp):
            os.kill(os.getpid(), signal.SIGTERM)
            return pattern_row(exp)

        monkeypatch.setattr(report_mod, "pattern_row", sigterm_at_table2)
        assert cli.main_report(self.ARGS + ["--obs-dir", str(obs)]) == 5
        (run_id,) = [p.name for p in obs.iterdir()]
        assert "resume with: repro-report --resume" in capsys.readouterr().err
        assert list((obs / run_id / "cache" / "replays").glob("*.dur"))

        monkeypatch.setattr(report_mod, "pattern_row", pattern_row)
        hits0 = counter("cache.replay.hits")
        assert cli.main_report(self.ARGS + [
            "--obs-dir", str(obs), "--resume", run_id]) == 0
        resumed = capsys.readouterr().out
        assert counter("cache.replay.hits") > hits0
        assert without_cache_line(resumed) == expected
        assert not (obs / run_id / "cache").exists()
        manifest = json.loads((obs / run_id / "manifest.json").read_text())
        assert manifest["status"] == "ok" and manifest["run_seq"] == 2


# --------------------------------------------------------------------------- #
# Caches degrade instead of crashing: they stop publishing and keep
# nothing, and the experiments' memos hold what the process built.
# --------------------------------------------------------------------------- #

def work_done() -> tuple[float, float]:
    """Traces built and replays run so far (registry counters)."""
    return counter("smpi.runs"), counter("replay.runs")


class TestCacheDegrade:
    def test_sim_cache_enospc_degrades_once(self, tmp_path, monkeypatch):
        cache = SimResultCache(tmp_path / "replays")

        def explode(path, text):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache_mod, "_stage_and_publish", explode)
        degraded0 = counter("cache.degraded")
        from repro.experiments.pipeline import AppExperiment
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY,
                            sim_cache=cache)
        trace = exp.trace("original")
        cache.load_or_simulate(trace, exp.machine)
        assert cache.degraded
        assert counter("cache.degraded") == degraded0 + 1
        assert list(cache.directory.iterdir()) == []
        # The cache kept nothing: it misses.  The experiment's memo
        # answers a second duration() without a second replay.
        assert cache.load(cache.key(trace, exp.machine)) is None
        first = exp.duration("original")
        work = work_done()
        assert exp.duration("original") == first
        assert work_done() == work
        # Degrading twice does not double-count.
        cache._degrade("again")
        assert counter("cache.degraded") == degraded0 + 1

    def test_sim_cache_unusable_dir_degrades_at_init(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        degraded0 = counter("cache.degraded")
        cache = SimResultCache(blocker / "replays")
        assert cache.degraded
        assert counter("cache.degraded") == degraded0 + 1
        cache.put_digest("spec", "a" * 24)  # must not raise
        assert cache.get_digest("spec") is None
        from repro.experiments.pipeline import AppExperiment
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY,
                            sim_cache=cache)
        first = exp.duration("original")
        work = work_done()
        assert exp.duration("original") == first
        assert work_done() == work

    def test_trace_cache_degrades_and_serves_from_memory(
            self, tmp_path, monkeypatch):
        cache = TraceCache(tmp_path / "traces")

        def explode(path, text):
            raise OSError(30, "Read-only file system")

        monkeypatch.setattr(cache_mod, "_stage_and_publish", explode)
        from repro.experiments.pipeline import AppExperiment
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY,
                            cache=cache)
        t1 = exp.trace("original")
        assert cache.degraded
        assert list(cache.directory.iterdir()) == []
        # The experiment's memo answers a second trace() (no second
        # build); the cache kept nothing, so asking it again builds.
        work = work_done()
        assert exp.trace("original") is t1
        assert work_done() == work
        built = []
        cache.load_or_build(cache.key(app="sweep3d", nranks=4, params=TINY),
                            lambda: built.append(1) or t1)
        assert built == [1]
        assert cache.misses == 2 and cache.hits == 0

    def test_failed_publish_leaves_no_staging_file(self, tmp_path,
                                                   monkeypatch):
        """The disk fills halfway through a trace entry: the staging
        file is removed (its writer lives on, so no sweep would) and
        the cache degrades: it stops publishing and keeps nothing."""
        from repro.experiments.pipeline import AppExperiment
        trace = AppExperiment("sweep3d", nranks=4,
                              app_params=TINY).trace("original")
        entry = from_traceset(trace).encode()

        def enospc_midway(col, out):
            out.write(entry[:len(entry) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ColumnarTrace, "write", enospc_midway)
        cache = TraceCache(tmp_path / "traces")
        assert cache.load_or_build("k", lambda: trace) is trace
        assert cache.degraded
        assert list(cache.directory.iterdir()) == []
        built = []
        assert cache.load_or_build(
            "k", lambda: built.append(1) or trace) is trace
        assert built == [1] and cache.misses == 2
        assert list(cache.directory.iterdir()) == []
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY,
                            cache=cache)
        t1 = exp.trace("original")
        work = work_done()
        assert exp.trace("original") is t1
        assert work_done() == work


# --------------------------------------------------------------------------- #
# Staging sweeps: a staging file names its writer's PID.
# --------------------------------------------------------------------------- #

class TestWriterIdentity:
    DEAD_PID = 2 ** 22 + 12345

    def test_own_token_alive(self):
        assert _writer_alive(str(os.getpid()))
        assert _writer_alive(f"{os.getpid()}-3")

    def test_dead_pid_not_alive_either_format(self):
        assert not _writer_alive(str(self.DEAD_PID))
        assert not _writer_alive(f"{self.DEAD_PID}-12345")

    def test_sweep_cache_dir_handles_both_token_formats(self, tmp_path):
        for sub in ("traces", "replays"):
            d = tmp_path / sub
            d.mkdir()
            (d / f"k.x.{os.getpid()}.tmp").write_text("legacy own")
            (d / f"k.y.{os.getpid()}-3.tmp").write_text("new own")
            (d / f"k.z.{self.DEAD_PID}-7.tmp").write_text("dead writer")
        assert sweep_cache_dir(tmp_path) == 6
        for sub in ("traces", "replays"):
            assert not list((tmp_path / sub).glob("*.tmp"))

    def test_stage_and_publish_uses_pid_serial_token(self, tmp_path):
        seen = []
        orig_replace = Path.replace

        def spy(self, target):
            seen.append(self.name)
            return orig_replace(self, target)

        Path.replace = spy
        try:
            cache_mod._stage_and_publish(tmp_path / "out.json", "{}")
        finally:
            Path.replace = orig_replace
        # <name>.<pid>-<serial>.tmp — the serial gives every publish of
        # this process a staging file of its own
        assert seen
        prefix = f"out.json.{os.getpid()}-"
        assert seen[0].startswith(prefix) and seen[0].endswith(".tmp")
        assert seen[0][len(prefix):-len(".tmp")].isdigit()
        assert (tmp_path / "out.json").read_text() == "{}"


# --------------------------------------------------------------------------- #
# Manifest resume + operator tooling.
# --------------------------------------------------------------------------- #

class TestManifestResume:
    def test_resume_increments_seq_and_merges_counters(self, tmp_path):
        reg = get_registry()
        run = RunContext(tmp_path, command="t", run_id="run-a")
        reg.counter("test.ckpt.points").inc(3)
        m1 = run.finalize(status="interrupted")
        assert m1["run_seq"] == 1
        base = m1["merged_counters"]["test.ckpt.points"]

        reg.reset()  # a real resume is a fresh process
        run2 = RunContext(tmp_path, command="t", run_id="run-a", resume=True)
        reg.counter("test.ckpt.points").inc(2)
        m2 = run2.finalize(status="ok")
        assert m2["run_seq"] == 2
        assert m2["merged_counters"]["test.ckpt.points"] == base + 2
        # The per-session snapshot is NOT inflated by prior sequences.
        assert m2["metrics"]["counters"]["test.ckpt.points"] == 2

        events = [json.loads(line) for line in
                  (tmp_path / "run-a" / "events.jsonl").read_text()
                  .splitlines()]
        kinds = [e["kind"] for e in events]
        assert "resumed_from" in kinds
        assert kinds.count("run_start") == 2

    def test_resume_requires_existing_run(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunContext(tmp_path, run_id="no-such-run", resume=True)
        with pytest.raises(ValueError):
            RunContext(tmp_path, resume=True)

    def test_list_runs_reports_progress_and_resumability(self, tmp_path):
        reg = get_registry()
        reg.reset()
        run = RunContext(tmp_path, command="repro-report", run_id="run-x")
        reg.counter("replay.runs").inc(5)
        run.finalize(status="interrupted")

        reg.reset()
        done = RunContext(tmp_path, command="repro-report", run_id="run-y")
        done.finalize(status="ok")

        runs = {r["run_id"]: r for r in list_runs(tmp_path)}
        assert runs["run-x"]["resumable"]
        assert runs["run-x"]["replays"] == 5
        assert runs["run-x"]["status"] == "interrupted"
        assert not runs["run-y"]["resumable"]
        table = render_runs_table(list(runs.values()))
        assert table.splitlines()[0].split() == [
            "run-id", "seq", "status", "replays", "resumable", "command"]
        assert "run-x" in table and "repro-report" in table

    def test_list_runs_empty(self, tmp_path):
        assert list_runs(tmp_path / "nowhere") == []
        assert render_runs_table([]) == "no runs found"


class TestWorkerFunnelIsolation:
    def test_configure_worker_drops_inherited_deltas(self):
        """A forked worker must not re-report the parent's pre-fork
        activity: its first flushed payload starts from zero deltas."""
        from repro.obs import collect_worker_payload, configure_worker
        get_registry().counter("test.ckpt.prefork").inc(5)
        configure_worker(None)  # what _worker_init runs after the fork
        payload = collect_worker_payload()
        assert "test.ckpt.prefork" not in payload["metrics"]["counters"]
        # The counter value itself survives — only the delta is drained.
        assert counter("test.ckpt.prefork") == 5
