"""Grid failure policy: one attempt per point, one re-run after a crash.

Replay is deterministic, so a point that raises fails on its single
attempt, on the serial and the pool route alike.  A worker that dies
breaks every future in flight; those points re-run once, alone, on a
fresh pool, so a point that kills its worker every time ends the grid.

Faults come from outside ``src/``: a test-side wrapper around the
worker's task runner, installed before the engine forks its pool,
kills a worker, and the dispatch store is damaged on disk or made to
fail by the test.
"""

import errno
import math
import os
import re
import signal
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.experiments.bandwidth import (
    BandwidthSearch,
    equivalent_bandwidth,
    relaxation_bandwidth,
    search_bandwidths,
)
from repro.experiments.parallel import (
    DegradedBracketError,
    ExperimentEngine,
    GridExecutionError,
    GridPoint,
    PointFailure,
    expand_grid,
)
from repro.experiments.pipeline import AppExperiment
from repro.experiments.sweeps import bandwidth_sweep
from repro.obs import get_registry

#: A tiny Sweep3D instance so traces build in milliseconds.
TINY = dict(nx=8, ny=8, nz=4, mk=2, angle_block=2, iterations=1)

SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_points():
    return expand_grid(
        ["sweep3d"],
        variants=("original", "real"),
        bandwidths=(None, 100.0),
        nranks=4,
        app_params=TINY,
    )


def other_bandwidths():
    """The points of :func:`tiny_points` on two other platforms: the
    same traces, none of the same replays."""
    return expand_grid(
        ["sweep3d"],
        variants=("original", "real"),
        bandwidths=(50.0, 25.0),
        nranks=4,
        app_params=TINY,
    )


def flip_byte(path):
    """Flip one byte in the middle of a file."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def counter(name: str) -> float:
    return get_registry().counter(name).value


#: A grid point that fails identically on every attempt.
POISON = GridPoint(app="no_such_app", nranks=4)


@pytest.fixture(scope="module")
def serial_reference():
    with ExperimentEngine(jobs=1) as eng:
        return eng.durations(tiny_points())


def kill_worker_when(monkeypatch, condition):
    """SIGKILL the pool worker that starts a task whose point meets
    ``condition``.

    The wrapper replaces the worker's task runner before the engine
    forks its pool, so every worker inherits it; the parent never runs
    it (the serial route replays in place).
    """
    run_task = parallel._run_task

    def run_or_die(task, mode):
        if condition(task[0]):
            os.kill(os.getpid(), signal.SIGKILL)
        return run_task(task, mode)

    monkeypatch.setattr(parallel, "_run_task", run_or_die)


def once(tmp_path):
    """A condition true for exactly one call in any process: the first
    caller wins the unlink of a marker file."""
    marker = tmp_path / "kill-once.marker"
    marker.touch()

    def claim(_point) -> bool:
        try:
            marker.unlink()
        except FileNotFoundError:
            return False
        return True

    return claim, marker


def dispatched_points(monkeypatch) -> list:
    """Spy on the parent's pool submissions: the point of every task
    sent to a worker, re-runs included."""
    sent = []
    submit = ProcessPoolExecutor.submit

    def spy(self, fn, *args, **kwargs):
        if fn is parallel._worker_run_batch:
            sent.extend(task[0] for task in args[0])
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
    return sent


def test_src_names_no_test_hook_variable():
    """Faults are injected from outside the program: no file under
    ``src/`` reads a ``REPRO_TEST_*`` variable."""
    hooked = [str(p.relative_to(SRC)) for p in sorted(SRC.rglob("*"))
              if p.is_file() and re.search(rb"REPRO_TEST_", p.read_bytes())]
    assert hooked == []


class TestWorkerFailures:
    def test_killed_worker_does_not_abort_grid(self, monkeypatch, tmp_path,
                                               serial_reference):
        condition, marker = once(tmp_path)
        kill_worker_when(monkeypatch, condition)
        recycles0 = counter("engine.pool_recycles")
        with ExperimentEngine(jobs=2) as eng:
            got = eng.durations(tiny_points())
        assert got == serial_reference  # bitwise identical after recovery
        assert not marker.exists()  # the fault actually fired
        assert counter("engine.pool_recycles") == recycles0 + 1

    def test_killed_worker_run_grid_results(self, monkeypatch, tmp_path):
        with ExperimentEngine(jobs=1) as eng:
            ref = [r.to_dict() for r in eng.run_grid(tiny_points())]
        condition, marker = once(tmp_path)
        kill_worker_when(monkeypatch, condition)
        with ExperimentEngine(jobs=2) as eng:
            got = [r.to_dict() for r in eng.run_grid(tiny_points())]
        assert got == ref
        assert not marker.exists()

    @staticmethod
    def killer():
        """The point whose replay kills its worker every time."""
        return tiny_points()[3]

    def test_point_killing_every_worker_fails_degraded(self, monkeypatch,
                                                       serial_reference):
        killer = self.killer()
        kill_worker_when(monkeypatch, lambda point: point == killer)
        recycles0 = counter("engine.pool_recycles")
        with ExperimentEngine(jobs=2, degraded=True) as eng:
            got = eng.durations(tiny_points())
        failure = got[3]
        assert isinstance(failure, PointFailure)
        assert (failure.point, failure.kind) == (killer, "pool_crash")
        assert [k for k, _, _ in failure.attempt_history] == ["pool_crash"] * 2
        assert got[:3] == serial_reference[:3]
        # one crash in flight, one more when the point re-ran alone
        assert counter("engine.pool_recycles") == recycles0 + 2

    def test_point_killing_every_worker_fails_strict(self, monkeypatch):
        killer = self.killer()
        kill_worker_when(monkeypatch, lambda point: point == killer)
        with ExperimentEngine(jobs=2) as eng:
            with pytest.raises(GridExecutionError) as ei:
                eng.durations(tiny_points())
        (failure,) = ei.value.failures
        assert (failure.point, failure.kind) == (killer, "pool_crash")
        assert failure.describe() in str(ei.value)


class TestQuarantine:
    """A failed point is set aside: a sentinel in degraded mode, a
    :class:`GridExecutionError` in strict mode."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_point_fails_once_on_every_route(self, jobs,
                                                     serial_reference):
        failed0 = counter("engine.points_failed")
        with ExperimentEngine(jobs=jobs, degraded=True) as eng:
            got = eng.durations(tiny_points()[:1] + [POISON])
        assert got[0] == serial_reference[0]
        failure = got[1]
        assert isinstance(failure, PointFailure)
        assert (failure.point, failure.kind, failure.attempts) == (
            POISON, "exception", 1)
        ((kind, seconds, error),) = failure.attempt_history
        assert kind == "exception" and seconds >= 0.0
        assert error == failure.error and "no_such_app" in error
        assert counter("engine.points_failed") == failed0 + 1

    def test_strict_mode_raises_with_failures(self, serial_reference):
        with ExperimentEngine(jobs=2) as eng:
            with pytest.raises(GridExecutionError) as ei:
                eng.durations(tiny_points()[:1] + [POISON])
            assert len(ei.value.failures) == 1
            failure = ei.value.failures[0]
            assert failure.point == POISON
            assert failure.attempts == 1

    def test_degraded_mode_returns_sentinels(self, serial_reference):
        with ExperimentEngine(jobs=2, degraded=True) as eng:
            got = eng.durations(tiny_points()[:1] + [POISON])
        assert got[0] == serial_reference[0]  # survivors intact
        assert isinstance(got[1], PointFailure)
        assert "no_such_app" in got[1].describe()

    def test_degraded_serial_matches_contract(self, serial_reference):
        with ExperimentEngine(jobs=1, degraded=True) as eng:
            got = eng.durations(tiny_points()[:1] + [POISON])
        assert got[0] == serial_reference[0]
        assert isinstance(got[1], PointFailure)

    def test_strict_serial_raises(self):
        with ExperimentEngine(jobs=1) as eng:
            with pytest.raises(GridExecutionError):
                eng.durations([POISON])

    def test_failure_carries_attempt_history_and_traceback(self):
        """Post-mortem: the attempt's (kind, wall, error) triple plus
        the worker traceback survive into the sentinel."""
        with ExperimentEngine(jobs=2, degraded=True) as eng:
            got = eng.durations(tiny_points()[:1] + [POISON])
        failure = got[1]
        assert isinstance(failure, PointFailure)
        assert len(failure.attempt_history) == 1
        assert "no_such_app" in failure.traceback
        assert "Traceback" in failure.traceback
        detail = failure.detail()
        assert "attempt 1:" in detail and "attempt 2:" not in detail
        assert "worker traceback" in detail

    def test_serial_failure_carries_traceback(self):
        with ExperimentEngine(jobs=1, degraded=True) as eng:
            (failure,) = eng.durations([POISON])
        assert failure.attempt_history and failure.traceback
        assert "no_such_app" in failure.detail()


class TestShippedPointRescue:
    """A shipped digest that the worker's dispatch store cannot produce:
    the worker replays the point from its spec in place, so every point
    runs once and none is dispatched twice."""

    def test_store_degrading_during_put(self, monkeypatch, tmp_path,
                                        serial_reference):
        """ENOSPC inside ``TraceStore.put``: the digest ships, but its
        columns live only in the parent's memory."""
        from repro.experiments import cache as cache_mod

        parent = os.getpid()
        publish = cache_mod._stage_and_publish

        def enospc_on_dispatch(path, data):
            if os.getpid() == parent and path.parent.name == "dispatch":
                raise OSError(errno.ENOSPC, "No space left on device")
            return publish(path, data)

        monkeypatch.setattr(cache_mod, "_stage_and_publish",
                            enospc_on_dispatch)
        sent = dispatched_points(monkeypatch)
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            got = eng.durations(tiny_points())
            assert eng._dispatch_store().degraded
        assert got == serial_reference
        assert counter("engine.points_executed") == executed0 + len(got)
        assert len(sent) == len(set(sent)) == len(got)

    def test_corrupt_dispatch_entries_on_warm_cache(self, monkeypatch,
                                                    tmp_path):
        """Both dispatch entries of a warm cache fail their checksum;
        every point of the next grid ships one of them."""
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            eng.durations(tiny_points())
        entries = sorted((tmp_path / "dispatch").glob("*.rct"))
        assert len(entries) == 2
        for path in entries:
            flip_byte(path)
        points = other_bandwidths()
        with ExperimentEngine(jobs=1) as eng:
            expected = eng.durations(points)
        sent = dispatched_points(monkeypatch)
        executed0 = counter("engine.points_executed")
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            got = eng.durations(points)
        assert got == expected
        assert counter("engine.points_executed") == executed0 + len(points)
        assert len(sent) == len(set(sent)) == len(points)
        # the bad entries are gone, not set aside
        assert not list(tmp_path.rglob("quarantine"))


class TestDegradedConsumers:
    def test_bisection_refuses_degraded_bracket(self, monkeypatch):
        # every replay fails: the search must refuse, not guess
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY)
        with ExperimentEngine(jobs=1, degraded=True) as eng:
            monkeypatch.setattr(
                "repro.experiments.parallel._simulate_point",
                lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
            )
            with pytest.raises(DegradedBracketError):
                relaxation_bandwidth(exp, "real", engine=eng)
            (found,) = search_bandwidths(
                eng, [BandwidthSearch(exp, "equivalent", "ideal")])
        assert isinstance(found, DegradedBracketError)
        assert "boom" in found.failures[0].describe()

    def test_campaign_fails_only_the_broken_apps_searches(self):
        """A degraded two-worker campaign in which every replay of one
        app fails: that app's searches come back as
        DegradedBracketError, the others with their sequential
        thresholds."""
        good = AppExperiment("sweep3d", nranks=4, app_params=TINY)
        bad = AppExperiment("cg", nranks=4, app_params={"no_such_param": 1})
        kinds = [("relaxation", "real"), ("equivalent", "ideal")]
        searches = [BandwidthSearch(e, k, v)
                    for e in (good, bad) for k, v in kinds]
        fresh = AppExperiment("sweep3d", nranks=4, app_params=TINY)
        expected = [relaxation_bandwidth(fresh, "real"),
                    equivalent_bandwidth(fresh, "ideal")]
        with ExperimentEngine(jobs=2, degraded=True) as eng:
            found = search_bandwidths(eng, searches)
        assert found[:2] == expected
        for f in found[2:]:
            assert isinstance(f, DegradedBracketError)
            assert all(x.point.app == "cg" for x in f.failures)

    def test_relaxation_search_works_on_degraded_engine(self):
        # healthy workers: degraded mode must not change the threshold
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY)
        base = relaxation_bandwidth(exp, "real")
        with ExperimentEngine(jobs=2, degraded=True) as eng:
            got = relaxation_bandwidth(exp, "real", engine=eng)
        assert got == base

    def test_sweep_maps_failures_to_nan(self, monkeypatch):
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY)
        with ExperimentEngine(jobs=1, degraded=True) as eng:
            monkeypatch.setattr(
                "repro.experiments.parallel._simulate_point",
                lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
            )
            sweep = bandwidth_sweep(exp, bandwidths=[50.0, 100.0],
                                    variants=("original",), engine=eng)
        assert all(math.isnan(d) for d in sweep.durations["original"])
