"""Tests of the parallel experiment engine and the search campaign."""

import math
from dataclasses import replace

import pytest

from repro.dimemas.machine import MachineConfig
from repro.experiments.bandwidth import (
    BW_MAX,
    BW_MIN,
    BandwidthSearch,
    bisect_bandwidth,
    equivalent_bandwidth,
    relaxation_bandwidth,
    search_bandwidths,
)
from repro.experiments.cache import SimResultCache, TraceCache
from repro.experiments.parallel import (
    ExperimentEngine,
    GridPoint,
    expand_grid,
)
from repro.experiments.pipeline import VARIANTS, AppExperiment
from repro.obs import get_registry

#: A tiny Sweep3D instance so traces build in milliseconds.
TINY = dict(nx=8, ny=8, nz=4, mk=2, angle_block=2, iterations=1)


def tiny_exp(nranks=4, **kwargs):
    return AppExperiment("sweep3d", nranks=nranks, app_params=TINY, **kwargs)


def tiny_points():
    return expand_grid(
        ["sweep3d"],
        variants=("original", "real"),
        bandwidths=(None, 100.0),
        nranks=4,
        app_params=TINY,
    )


class TestGridPoint:
    def test_hashable_and_picklable(self):
        import pickle

        p = GridPoint(app="cg", bandwidth_mbps=100.0, app_params=(("n", 4),))
        assert hash(p) == hash(pickle.loads(pickle.dumps(p)))

    def test_experiment_key_ignores_platform_overrides(self):
        a = GridPoint(app="cg", bandwidth_mbps=100.0, buses=4)
        b = GridPoint(app="cg", bandwidth_mbps=500.0, buses=1,
                      machine=MachineConfig.paper_testbed("cg", latency=1e-3))
        assert a.experiment_key() == b.experiment_key()
        c = GridPoint(app="cg", nranks=8)
        assert a.experiment_key() != c.experiment_key()

    def test_expand_grid_is_full_product(self):
        pts = expand_grid(
            ["cg", "bt"], variants=("original", "real"),
            bandwidths=(100.0, 250.0), buses=("default", 4),
        )
        assert len(pts) == 2 * 2 * 2 * 2
        assert len(set(pts)) == len(pts)


class TestEngineSerial:
    def test_durations_match_direct_experiment(self):
        exp = tiny_exp()
        eng = ExperimentEngine(jobs=1)
        pts = tiny_points()
        expected = [
            exp.duration(p.variant, bandwidth_mbps=p.bandwidth_mbps)
            for p in pts
        ]
        assert eng.durations(pts) == expected

    def test_run_grid_returns_results_in_input_order(self):
        eng = ExperimentEngine(jobs=1)
        pts = tiny_points()
        results = eng.run_grid(pts)
        assert [r.duration for r in results] == eng.durations(pts)

    def test_experiment_reuse(self):
        eng = ExperimentEngine(jobs=1)
        pts = tiny_points()
        eng.durations(pts)
        # all four points share one traced experiment bundle
        assert len(eng._experiments) == 1

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)


class TestEngineParallel:
    def test_parallel_identical_to_serial(self, tmp_path):
        pts = tiny_points()
        serial = ExperimentEngine(jobs=1).durations(pts)
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            assert eng.durations(pts) == serial
            # second pass is answered from the persistent cache
            assert eng.durations(pts) == serial
            assert [r.duration for r in eng.run_grid(pts)] == serial

    def test_grid_durations_match_experiment_speedups(self):
        # engine-side grid vs the AppExperiment memoized path
        eng = ExperimentEngine(jobs=1)
        exp = AppExperiment("sweep3d", nranks=4, app_params=TINY)
        pts = [
            GridPoint(app="sweep3d", variant=v, nranks=4,
                      app_params=tuple(sorted(TINY.items())))
            for v in ("original", "real", "ideal")
        ]
        d0, dr, di = eng.durations(pts)
        s = exp.speedups()
        assert d0 / dr == pytest.approx(s["real"])
        assert d0 / di == pytest.approx(s["ideal"])


#: Sweep3D's paper test bed with a millisecond latency.
SLOW = MachineConfig.paper_testbed("sweep3d", latency=1e-3)
#: The original trace of :func:`tiny_exp` on the paper test bed.
TINY_POINT = GridPoint(app="sweep3d", nranks=4,
                       app_params=tuple(sorted(TINY.items())))


class TestOneExperimentPerTrace:
    """The engine keeps one experiment per trace, and every point
    replays on its own platform, whatever machine its points or an
    adopted experiment name."""

    def test_serial_search_transforms_nothing_after_the_ladder(self, tmp_path):
        """A search on a caller's experiment (on the paper test bed)
        replays the traces that the ladder (``machine=None``) built."""
        expected = relaxation_bandwidth(tiny_exp(), "real")
        names = ("transform.runs", "cache.trace.hits", "cache.trace.misses",
                 "cache.trace.rebuilt")
        reg = get_registry()
        with ExperimentEngine(jobs=1, cache_dir=tmp_path) as eng:
            eng.durations(expand_grid(["sweep3d"], variants=VARIANTS,
                                      bandwidths=(None, 100.0), nranks=4,
                                      app_params=TINY))
            exp = tiny_exp(cache=TraceCache(tmp_path / "traces"),
                           sim_cache=SimResultCache(tmp_path / "replays"))
            before = [reg.counter(n).value for n in names]
            assert relaxation_bandwidth(exp, "real", engine=eng) == expected
        assert [reg.counter(n).value for n in names] == before

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_points_on_two_machines_share_one_trace(self, jobs):
        runs = get_registry().counter("smpi.runs")
        r0 = runs.value
        with ExperimentEngine(jobs=jobs) as eng:
            durs = eng.durations([TINY_POINT, replace(TINY_POINT, machine=SLOW)])
        assert runs.value - r0 == 1
        assert durs == [tiny_exp().duration(), tiny_exp(machine=SLOW).duration()]
        assert durs[0] != durs[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_adopted_experiment_lends_no_machine(self, jobs):
        exp = tiny_exp(machine=SLOW)
        with ExperimentEngine(jobs=jobs) as eng:
            eng.point_for(exp)
            (d,) = eng.durations([TINY_POINT])
        assert d == tiny_exp().duration()
        assert d != exp.duration()


class TestBisectEdgeCases:
    def test_lo_equals_hi_satisfied(self):
        assert bisect_bandwidth(lambda bw: True, lo=10.0, hi=10.0) == 10.0

    def test_lo_equals_hi_unsatisfied(self):
        assert math.isinf(bisect_bandwidth(lambda bw: False, lo=10.0, hi=10.0))

    def test_invalid_brackets(self):
        with pytest.raises(ValueError):
            bisect_bandwidth(lambda bw: True, lo=-1.0, hi=10.0)
        with pytest.raises(ValueError):
            bisect_bandwidth(lambda bw: True, lo=10.0, hi=1.0)
        with pytest.raises(ValueError):
            bisect_bandwidth(lambda bw: True, rel_tol=0.0)

    def test_rel_tol_convergence(self):
        # the returned value satisfies the predicate and overestimates
        # the true threshold by at most rel_tol
        thr = 73.19
        for tol in (0.1, 0.01, 0.001):
            got = bisect_bandwidth(lambda bw: bw >= thr, rel_tol=tol)
            assert got >= thr
            assert got <= thr * (1 + tol) * (1 + 1e-12)

    def test_unsatisfiable_returns_inf(self):
        assert math.isinf(bisect_bandwidth(lambda bw: False))

    def test_always_satisfied_returns_lo(self):
        assert bisect_bandwidth(lambda bw: True, lo=3.0) == 3.0


class PredicateEngine(ExperimentEngine):
    """An engine whose replays are a predicate of the bandwidth.

    The anchor (the original at the baseline) takes 1.0 s; a probe
    takes 1.0 s where ``ok(bw)`` holds and 2.0 s where it does not, so
    a relaxation search's walk sees exactly ``ok``.  ``rounds`` records
    the bandwidths of every grid the campaign asks for.
    """

    def __init__(self, ok, jobs: int):
        super().__init__(jobs=jobs)
        self.ok = ok
        self.rounds: list[list[float]] = []

    def durations(self, points):
        points = list(points)
        self.rounds.append([p.bandwidth_mbps for p in points])
        return [1.0 if p.variant == "original" or self.ok(p.bandwidth_mbps)
                else 2.0 for p in points]


def campaign(ok, jobs, lo=BW_MIN, hi=BW_MAX, rel_tol=0.01):
    """One relaxation search on ``[lo, hi]`` with predicate ``ok``."""
    eng = PredicateEngine(ok, jobs)
    search = BandwidthSearch(tiny_exp(), "relaxation", baseline_bw=hi,
                             rel_tol=rel_tol)
    assert search.walk().lo == lo
    (found,) = search_bandwidths(eng, [search])
    return found, eng


def holey(bw):
    """True above 5 MB/s except a hole at [25, 40] MB/s."""
    return bw >= 5.0 and not (25.0 <= bw <= 40.0)


def nonmonotone() -> int:
    return get_registry().counter("bisect.nonmonotone").value


class TestBatchedBisect:
    """The search campaign, successor of the speculative batched
    bisection: speculation on idle workers may only save rounds, never
    move a threshold or raise."""

    @pytest.mark.parametrize("thr", [0.3, 1.0, 5.0, 123.456, 9999.0, 127999.0])
    @pytest.mark.parametrize("jobs", [1, 3, 7, 15])
    def test_bitwise_identical_to_sequential(self, thr, jobs):
        seq = bisect_bandwidth(lambda bw: bw >= thr)
        found, _ = campaign(lambda bw: bw >= thr, jobs)
        assert seq == found  # exact float equality, not approx

    def test_identical_under_rel_tol_variations(self):
        thr = 42.0
        for tol in (0.1, 0.01, 0.001):
            seq = bisect_bandwidth(lambda bw: bw >= thr, rel_tol=tol)
            for jobs in (1, 3):
                found, _ = campaign(lambda bw: bw >= thr, jobs, rel_tol=tol)
                assert seq == found

    def test_lo_equals_hi(self):
        assert campaign(lambda bw: True, 2, hi=BW_MIN)[0] == BW_MIN
        assert math.isinf(campaign(lambda bw: False, 2, hi=BW_MIN)[0])

    def test_non_monotone_is_counted_not_raised(self):
        """The holey predicate on one, two and three workers: every
        route returns the sequential walk's threshold and none raises.
        Only on three workers does a speculative probe land in the hole
        (34.6 MB/s); that contradiction is counted."""
        seq = bisect_bandwidth(holey)
        for jobs, contradictions in ((1, 0), (2, 0), (3, 1)):
            before = nonmonotone()
            found, eng = campaign(holey, jobs)
            assert found == seq
            in_hole = [bw for grid in eng.rounds for bw in grid
                       if 25.0 <= bw <= 40.0]
            assert len(in_hole) == contradictions
            assert nonmonotone() - before == contradictions

    def test_non_monotone_at_bracket_is_counted(self):
        # holds at lo, fails above: the walk stops at lo; on two
        # workers the spare probe of hi sees the failure
        before = nonmonotone()
        found, _ = campaign(lambda bw: bw <= 10.0, 2, hi=1000.0)
        assert found == BW_MIN
        assert nonmonotone() == before + 1

    def test_wrong_answer_count_raises(self):
        class Short(PredicateEngine):
            def durations(self, points):
                return super().durations(points)[:-1]

        search = BandwidthSearch(tiny_exp(), "relaxation")
        with pytest.raises(ValueError):
            search_bandwidths(Short(lambda bw: True, 2), [search])

    @pytest.mark.parametrize("jobs", [1, 2, 5])
    def test_rounds_fill_the_pool_and_no_more(self, jobs):
        _, eng = campaign(lambda bw: bw >= 50.0, jobs)
        assert eng.rounds[0] == [BW_MAX]  # the anchor
        assert all(1 <= len(grid) <= jobs for grid in eng.rounds[1:])
        if jobs > 1:
            assert max(len(grid) for grid in eng.rounds) == jobs

    def test_fewer_rounds_than_sequential_probes(self):
        calls = {"seq": 0}

        def pred(bw):
            calls["seq"] += 1
            return bw >= 50.0

        bisect_bandwidth(pred)
        _, eng = campaign(lambda bw: bw >= 50.0, 7)
        # six spare workers descend about three levels per round
        assert len(eng.rounds) - 1 < calls["seq"] / 2


class TestEngineBackedSearches:
    def test_relaxation_identical(self, tmp_path):
        exp = tiny_exp()
        seq = relaxation_bandwidth(exp)
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            bat = relaxation_bandwidth(tiny_exp(), engine=eng)
        assert seq == bat

    def test_equivalent_identical(self, tmp_path):
        exp = tiny_exp()
        seq = equivalent_bandwidth(exp)
        with ExperimentEngine(jobs=2, cache_dir=tmp_path) as eng:
            bat = equivalent_bandwidth(tiny_exp(), engine=eng)
        assert seq == bat

    def test_serial_engine_reuses_experiment_memo(self):
        """A search without an engine runs on a private serial one that
        replays on the caller's experiment."""
        exp = tiny_exp()
        probes = get_registry().counter("bisect.probes")
        runs = get_registry().counter("replay.runs")
        p0 = probes.value
        first = relaxation_bandwidth(exp)
        # the anchor and every probe landed in the experiment's memo
        assert len(exp._durations) == probes.value - p0 + 1
        r0 = runs.value
        assert relaxation_bandwidth(exp) == first
        assert runs.value == r0  # answered from that memo


class TestEngineWiredHelpers:
    def test_calibration_and_sweeps_identical(self):
        from repro.experiments.calibration import (
            bus_sensitivity, calibrate_buses, saturation_knee,
        )
        from repro.experiments.sweeps import bandwidth_sweep, latency_sweep

        exp = tiny_exp()
        with ExperimentEngine(jobs=2) as eng:
            assert bus_sensitivity(exp, [1, 2, 4]) == \
                bus_sensitivity(exp, [1, 2, 4], engine=eng)
            assert saturation_knee(exp, max_buses=8) == \
                saturation_knee(exp, max_buses=8, engine=eng)
            ref = exp.duration("original", buses=4)
            assert calibrate_buses(exp, ref, max_buses=8) == \
                calibrate_buses(exp, ref, max_buses=8, engine=eng)
            assert bandwidth_sweep(exp, [100.0, 250.0]) == \
                bandwidth_sweep(exp, [100.0, 250.0], engine=eng)
            assert latency_sweep(exp, [1e-6, 8e-6]) == \
                latency_sweep(exp, [1e-6, 8e-6], engine=eng)

    def test_scaling_study_identical(self):
        from repro.experiments.scaling import scaling_study

        serial = scaling_study("sweep3d", rank_counts=(2, 4), app_params=TINY)
        with ExperimentEngine(jobs=2) as eng:
            parallel = scaling_study(
                "sweep3d", rank_counts=(2, 4), app_params=TINY, engine=eng,
            )
        assert serial == parallel


class TestWithPlatform:
    def test_no_overrides_returns_self(self):
        m = MachineConfig()
        assert m.with_platform() is m

    def test_overrides_replace_fields(self):
        m = MachineConfig()
        m2 = m.with_platform(bandwidth_mbps=500.0, buses=4)
        assert m2.bandwidth_mbps == 500.0 and m2.buses == 4
        assert m.bandwidth_mbps == 250.0 and m.buses is None

    def test_validation_reruns(self):
        with pytest.raises(ValueError):
            MachineConfig().with_platform(bandwidth_mbps=-1.0)
