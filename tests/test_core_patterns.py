"""Tests of production/consumption pattern analysis (Table II, Fig. 5)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import (
    IDEAL_CONSUMPTION,
    IDEAL_PRODUCTION,
    ConsumptionStats,
    ProductionStats,
    consumption_stats,
    consumption_table,
    iter_profiles,
    production_stats,
    production_table,
    scatter_points,
)
from repro.trace.records import AccessProfile
from repro.tracer import run_traced
from tests.conftest import access_profiles, make_pipeline_app, profile_trace


def prod(times, lo=0.0, hi=1.0):
    return AccessProfile("production", np.asarray(times, float), lo, hi)


def cons(times, lo=0.0, hi=1.0):
    return AccessProfile("consumption", np.asarray(times, float), lo, hi)


class TestProductionStats:
    def test_ideal_linear_producer(self):
        n = 1000
        p = prod(np.linspace(0, 1, n))
        s = production_stats(p)
        assert s.first_element == pytest.approx(0.0)
        assert s.quarter == pytest.approx(0.25, abs=0.01)
        assert s.half == pytest.approx(0.50, abs=0.01)
        assert s.whole == pytest.approx(1.0)

    def test_first_element_is_global_min(self):
        """Paper wording: the first final version of ANY element."""
        s = production_stats(prod([0.9, 0.2, 0.95, 0.99]))
        assert s.first_element == pytest.approx(0.2)

    def test_prefix_semantics_for_fractions(self):
        s = production_stats(prod([0.3, 0.4, 0.8, 0.9]))
        assert s.quarter == pytest.approx(0.3)   # elements[:1]
        assert s.half == pytest.approx(0.4)      # elements[:2]
        assert s.whole == pytest.approx(0.9)

    def test_all_nan_profile(self):
        s = production_stats(prod([np.nan, np.nan]))
        assert all(math.isnan(v) for v in (s.first_element, s.quarter, s.half, s.whole))

    def test_kind_check(self):
        with pytest.raises(ValueError):
            production_stats(cons([0.5]))

    def test_as_percent(self):
        s = production_stats(prod([0.5, 0.5]))
        assert s.as_percent()["whole"] == pytest.approx(50.0)


class TestConsumptionStats:
    def test_ideal_linear_consumer(self):
        s = consumption_stats(cons(np.linspace(0, 1, 1000)))
        assert s.nothing == pytest.approx(0.0)
        assert s.quarter == pytest.approx(0.25, abs=0.01)
        assert s.half == pytest.approx(0.50, abs=0.01)

    def test_independent_work_shows_in_nothing(self):
        """BT-style: nothing loaded before 13.68% of the phase."""
        s = consumption_stats(cons(np.full(100, 0.1368)))
        assert s.nothing == pytest.approx(0.1368)
        assert s.quarter == pytest.approx(0.1368)

    def test_suffix_semantics(self):
        s = consumption_stats(cons([0.1, 0.2, 0.7, 0.9]))
        assert s.nothing == pytest.approx(0.1)
        assert s.quarter == pytest.approx(0.2)   # elements[1:]
        assert s.half == pytest.approx(0.7)      # elements[2:]

    def test_never_needed_elements_pass_whole_phase(self):
        s = consumption_stats(cons([0.3, np.nan, np.nan, np.nan]))
        assert s.quarter == pytest.approx(1.0)

    def test_kind_check(self):
        with pytest.raises(ValueError):
            consumption_stats(prod([0.5]))


class TestIdealRows:
    def test_paper_ideal_production_row(self):
        assert IDEAL_PRODUCTION.first_element == 0.0
        assert IDEAL_PRODUCTION.quarter == 0.25
        assert IDEAL_PRODUCTION.half == 0.50
        assert IDEAL_PRODUCTION.whole == 1.0

    def test_paper_ideal_consumption_row(self):
        assert IDEAL_CONSUMPTION.nothing == 0.0
        assert IDEAL_CONSUMPTION.quarter == 0.25
        assert IDEAL_CONSUMPTION.half == 0.50


class TestTraceAggregation:
    def make_trace(self, prod_anchors, cons_anchors):
        app = make_pipeline_app(elements=200, prod=prod_anchors,
                                cons=cons_anchors)
        return run_traced(app, 3, mips=1000.0).trace

    def test_anchored_app_recovers_its_anchors(self):
        tr = self.make_trace(
            prod_anchors=[(0.0, 0.663), (0.25, 0.948), (0.5, 0.982), (1.0, 0.998)],
            cons_anchors=[(0.0, 0.02), (0.25, 0.1), (0.5, 0.2), (1.0, 0.4)],
        )
        p = production_table(tr, channel=0)
        assert p.first_element == pytest.approx(0.663, abs=0.02)
        assert p.quarter == pytest.approx(0.948, abs=0.02)
        assert p.whole == pytest.approx(0.998, abs=0.02)

    def test_consumption_aggregation_scaled_by_interval(self):
        """Consumption fractions shrink when the interval spans more
        than the consuming burst — aggregated values stay ordered."""
        tr = self.make_trace(
            prod_anchors=[(0.0, 0.9), (1.0, 1.0)],
            cons_anchors=[(0.0, 0.1), (0.25, 0.2), (0.5, 0.3), (1.0, 0.5)],
        )
        c = consumption_table(tr, channel=0)
        assert 0 < c.nothing <= c.quarter <= c.half

    def test_iter_profiles_filters(self, pipeline_trace):
        prods = list(iter_profiles(pipeline_trace, "production", channel=0))
        assert prods
        assert all(p.kind == "production" for _, _, p in prods)
        none_for_rank = list(iter_profiles(pipeline_trace, "production",
                                           channel=0, rank=3))
        assert none_for_rank == []  # last rank sends nothing

    def test_invalid_kind(self, pipeline_trace):
        with pytest.raises(ValueError):
            list(iter_profiles(pipeline_trace, "bogus"))

    def test_empty_aggregate_is_nan(self):
        tr = run_traced(lambda c: c.compute(10), 1).trace
        t = production_table(tr)
        assert math.isnan(t.whole)


class TestScatterPoints:
    def test_points_collected_with_streams(self):
        app = make_pipeline_app(elements=50)
        tr = run_traced(app, 2, record_streams=True).trace
        x, y = scatter_points(tr, "production")
        assert x.size > 0 and x.size == y.size
        assert (0 <= x).all() and (x <= 1).all()
        assert y.max() < 50

    def test_no_streams_no_points(self, pipeline_trace):
        x, y = scatter_points(pipeline_trace, "production")
        assert x.size == 0

    def test_max_points_subsampling(self):
        app = make_pipeline_app(elements=100)
        tr = run_traced(app, 2, record_streams=True).trace
        x, y = scatter_points(tr, "production", max_points=17)
        assert x.size == 17


# -- Reference formulas: a normalized copy of every profile, then
# -- nan-reductions of its slices.
def _oracle_normalized(p):
    if p.span <= 0.0:
        out = np.zeros_like(p.times)
        out[np.isnan(p.times)] = np.nan
        return out
    out = (p.times - p.interval_start) / p.span
    return np.clip(out, 0.0, 1.0, out=out)


def oracle_production_stats(profile):
    t = _oracle_normalized(profile)
    n = t.shape[0]
    if n == 0 or np.all(np.isnan(t)):
        return ProductionStats(math.nan, math.nan, math.nan, math.nan)

    def prefix_max(frac):
        k = max(1, int(math.ceil(frac * n)))
        seg = t[:k]
        if np.all(np.isnan(seg)):
            return math.nan
        return float(np.nanmax(seg))

    return ProductionStats(
        first_element=float(np.nanmin(t)),
        quarter=prefix_max(0.25),
        half=prefix_max(0.50),
        whole=prefix_max(1.0),
    )


def oracle_consumption_stats(profile):
    t = _oracle_normalized(profile)
    n = t.shape[0]
    if n == 0:
        return ConsumptionStats(math.nan, math.nan, math.nan)

    def passable(frac):
        k = int(math.ceil(frac * n))
        seg = t[k:]
        if seg.size == 0 or np.all(np.isnan(seg)):
            return 1.0
        return float(np.nanmin(seg))

    return ConsumptionStats(
        nothing=passable(0.0),
        quarter=passable(0.25),
        half=passable(0.50),
    )


def oracle_aggregate(rows, cls):
    names = [f.name for f in dataclasses.fields(cls)]
    if not rows:
        return cls(**{n: math.nan for n in names})
    mat = np.array([[getattr(r, n) for n in names] for r in rows], dtype=float)
    w = np.ones(mat.shape[0])
    out = {}
    for j, n in enumerate(names):
        col = mat[:, j]
        mask = ~np.isnan(col)
        out[n] = (float(np.average(col[mask], weights=w[mask]))
                  if mask.any() else math.nan)
    return cls(**out)


def assert_same_bits(new, old):
    """Equal values, NaN where NaN, and the same ``repr`` (so the same
    sign of every zero)."""
    assert np.array_equal(np.array(dataclasses.astuple(new)),
                          np.array(dataclasses.astuple(old)), equal_nan=True)
    assert repr(new) == repr(old)


class TestRawTimeReduction:
    """The rows reduced on raw times equal, bit for bit, the
    reference's reductions of a normalized copy."""

    @given(p=access_profiles("production", min_elements=0))
    @settings(max_examples=400, deadline=None)
    def test_production_row(self, p):
        assert_same_bits(production_stats(p), oracle_production_stats(p))

    @given(p=access_profiles("consumption", min_elements=0))
    @settings(max_examples=400, deadline=None)
    def test_consumption_row(self, p):
        assert_same_bits(consumption_stats(p), oracle_consumption_stats(p))

    @given(prods=st.lists(access_profiles("production", min_elements=0),
                          max_size=40),
           conss=st.lists(access_profiles("consumption", min_elements=0),
                          max_size=40),
           min_elements=st.integers(0, 2))
    @settings(max_examples=100, deadline=None)
    def test_tables(self, prods, conss, min_elements):
        trace = profile_trace(prods, conss)
        assert_same_bits(
            production_table(trace, min_elements=min_elements),
            oracle_aggregate([oracle_production_stats(p) for p in prods
                              if p.elements >= min_elements],
                             ProductionStats))
        assert_same_bits(
            consumption_table(trace, min_elements=min_elements),
            oracle_aggregate([oracle_consumption_stats(p) for p in conss
                              if p.elements >= min_elements],
                             ConsumptionStats))

    def test_empty_profiles(self):
        assert_same_bits(production_stats(prod([])),
                         ProductionStats(*[math.nan] * 4))
        assert_same_bits(consumption_stats(cons([])),
                         ConsumptionStats(*[math.nan] * 3))
