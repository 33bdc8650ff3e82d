"""Resilient grid execution: crashes, hangs, retries, quarantine.

Worker failures are injected deterministically through the engine's
marker-file test hooks (``REPRO_TEST_*`` environment variables): the
first worker to claim the marker misbehaves exactly once, so every
scenario is reproducible without patching multiprocessing internals.
"""

import math

import pytest

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
    RetryPolicy,
    expand_grid,
)
from repro.experiments.pipeline import AppExperiment
from repro.experiments.sweeps import bandwidth_sweep

#: A tiny Sweep3D instance so traces build in milliseconds.
TINY = dict(nx=8, ny=8, nz=4, mk=2, angle_block=2, iterations=1)


def tiny_points():
    return expand_grid(
        ["sweep3d"],
        variants=("original", "real"),
        bandwidths=(None, 100.0),
        nranks=4,
        app_params=TINY,
    )


#: A grid point that fails identically on every attempt.
POISON = GridPoint(app="no_such_app", nranks=4)


@pytest.fixture(scope="module")
def serial_reference():
    with ExperimentEngine(jobs=1) as eng:
        return eng.durations(tiny_points())


def arm(monkeypatch, tmp_path, env_var):
    marker = tmp_path / f"{env_var}.marker"
    marker.touch()
    monkeypatch.setenv(env_var, str(marker))
    return marker


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(point_timeout=0.0)

    def test_exponential_delay(self):
        p = RetryPolicy(backoff=0.1, backoff_factor=2.0)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(3) == pytest.approx(0.4)

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_full_jitter_sleeps_inside_the_backoff_band(self):
        import random

        p = RetryPolicy(backoff=0.1, backoff_factor=2.0, jitter=0.5)
        rng = random.Random(0)
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.4)):
            draws = [p.delay(attempt, rng) for _ in range(50)]
            lo, hi = base * 0.5, base
            assert all(lo <= d <= hi for d in draws), (attempt, draws)
            assert max(draws) - min(draws) > 0.0  # actually jittered

    def test_jitter_deterministic_per_seed_and_off_without_rng(self):
        import random

        p = RetryPolicy(backoff=0.1, jitter=1.0)
        a = [p.delay(1, random.Random(7)) for _ in range(3)]
        b = [p.delay(1, random.Random(7)) for _ in range(3)]
        assert a == b
        # No rng (or jitter=0) degrades to the plain exponential delay.
        assert p.delay(1) == pytest.approx(0.1)
        assert RetryPolicy(backoff=0.1).delay(
            1, random.Random(7)) == pytest.approx(0.1)


class TestWorkerFailures:
    def test_worker_exception_is_retried(self, monkeypatch, tmp_path,
                                         serial_reference):
        marker = arm(monkeypatch, tmp_path, "REPRO_TEST_RAISE_ONCE")
        with ExperimentEngine(jobs=2) as eng:
            got = eng.durations(tiny_points())
        assert got == serial_reference
        assert not marker.exists()  # the fault actually fired

    def test_killed_worker_does_not_abort_grid(self, monkeypatch, tmp_path,
                                               serial_reference):
        marker = arm(monkeypatch, tmp_path, "REPRO_TEST_KILL_WORKER_ONCE")
        with ExperimentEngine(jobs=2) as eng:
            got = eng.durations(tiny_points())
        assert got == serial_reference  # bitwise identical after recovery
        assert not marker.exists()

    def test_killed_worker_run_grid_results(self, monkeypatch, tmp_path):
        marker = arm(monkeypatch, tmp_path, "REPRO_TEST_KILL_WORKER_ONCE")
        with ExperimentEngine(jobs=1) as eng:
            ref = [r.duration for r in eng.run_grid(tiny_points())]
        with ExperimentEngine(jobs=2) as eng:
            got = [r.duration for r in eng.run_grid(tiny_points())]
        assert got == ref
        assert not marker.exists()

    def test_hung_worker_recycled_by_point_timeout(self, monkeypatch,
                                                   tmp_path,
                                                   serial_reference):
        marker = arm(monkeypatch, tmp_path, "REPRO_TEST_HANG_ONCE")
        retry = RetryPolicy(point_timeout=15.0, backoff=0.01)
        with ExperimentEngine(jobs=2, retry=retry) as eng:
            got = eng.durations(tiny_points())
        assert got == serial_reference
        assert not marker.exists()


class TestQuarantine:
    RETRY = RetryPolicy(max_attempts=2, backoff=0.01)

    def test_strict_mode_raises_with_failures(self, serial_reference):
        with ExperimentEngine(jobs=2, retry=self.RETRY) as eng:
            with pytest.raises(GridExecutionError) as ei:
                eng.durations(tiny_points()[:1] + [POISON])
            assert len(ei.value.failures) == 1
            failure = ei.value.failures[0]
            assert failure.point == POISON
            assert failure.attempts == 2  # the budget was honored
            assert POISON in eng.quarantine

    def test_degraded_mode_returns_sentinels(self, serial_reference):
        with ExperimentEngine(jobs=2, retry=self.RETRY, degraded=True) as eng:
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
        """Post-mortem satellite: every attempt's (kind, wall, error)
        triple plus the worker traceback survive into the sentinel."""
        with ExperimentEngine(jobs=2, retry=self.RETRY, degraded=True) as eng:
            got = eng.durations(tiny_points()[:1] + [POISON])
        failure = got[1]
        assert isinstance(failure, PointFailure)
        assert len(failure.attempt_history) == 2
        for kind, seconds, error in failure.attempt_history:
            assert kind == "exception"
            assert seconds >= 0.0
            assert "no_such_app" in error
        assert "no_such_app" in failure.traceback
        assert "Traceback" in failure.traceback
        detail = failure.detail()
        assert "attempt 1:" in detail and "attempt 2:" in detail
        assert "worker traceback" in detail

    def test_serial_failure_carries_traceback(self):
        with ExperimentEngine(jobs=1, degraded=True) as eng:
            (failure,) = eng.durations([POISON])
        assert failure.attempt_history and failure.traceback
        assert "no_such_app" in failure.detail()


class TestDegradedConsumers:
    def test_bisection_refuses_degraded_bracket(self, monkeypatch):
        # every replay fails: the search must refuse, not guess
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY)
        retry = RetryPolicy(max_attempts=1)
        with ExperimentEngine(jobs=1, retry=retry, degraded=True) as eng:
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
        retry = RetryPolicy(max_attempts=1)
        with ExperimentEngine(jobs=2, retry=retry, degraded=True) as eng:
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
        retry = RetryPolicy(max_attempts=1)
        with ExperimentEngine(jobs=1, retry=retry, degraded=True) as eng:
            monkeypatch.setattr(
                "repro.experiments.parallel._simulate_point",
                lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
            )
            sweep = bandwidth_sweep(exp, bandwidths=[50.0, 100.0],
                                    variants=("original",), engine=eng)
        assert all(math.isnan(d) for d in sweep.durations["original"])
