"""Tests of the phase-level overlap analysis (future-work extension)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import iter_profiles
from repro.core.phases import PhasePotential, phase_overlap_potential
from repro.tracer import run_traced
from tests.conftest import access_profiles, make_pipeline_app, profile_trace


def traced(prod, cons, work=1_000_000):
    app = make_pipeline_app(elements=100, work=work, iterations=2,
                            prod=prod, cons=cons)
    return run_traced(app, 3, mips=1000.0).trace


class TestConsumptionSide:
    def test_independent_work_measured(self):
        tr = traced(prod=[(0.0, 0.9), (1.0, 1.0)],
                    cons=[(0.0, 0.3), (1.0, 0.5)])
        pot = phase_overlap_potential(tr, channel=0)
        assert pot.consumption_intervals > 0
        # loads start at 30% of the consuming burst; intervals extend
        # past the burst so the fraction is diluted but clearly positive
        assert 0.05 < pot.independent_fraction < 0.5

    def test_immediate_consumer_has_none(self):
        tr = traced(prod=[(0.0, 0.9), (1.0, 1.0)],
                    cons=[(0.0, 0.0), (1.0, 0.0)])
        pot = phase_overlap_potential(tr, channel=0)
        assert pot.independent_fraction == pytest.approx(0.0, abs=0.01)


class TestProductionSide:
    def test_late_producer_has_preproduction_headroom(self):
        tr = traced(prod=[(0.0, 0.95), (1.0, 1.0)],
                    cons=[(0.0, 0.0), (1.0, 0.2)])
        pot = phase_overlap_potential(tr, channel=0)
        assert pot.preproduction_fraction > 0.5

    def test_linear_producer_has_little(self):
        tr = traced(prod=[(0.0, 0.0), (1.0, 1.0)],
                    cons=[(0.0, 0.0), (1.0, 0.2)])
        pot = phase_overlap_potential(tr, channel=0)
        assert pot.preproduction_fraction == pytest.approx(0.0, abs=0.01)


class TestAggregate:
    def test_reorderable_sums_both_sides(self):
        tr = traced(prod=[(0.0, 0.5), (1.0, 1.0)],
                    cons=[(0.0, 0.5), (1.0, 0.9)])
        pot = phase_overlap_potential(tr, channel=0)
        assert pot.reorderable_seconds == pytest.approx(
            pot.independent_consumption + pot.pre_production)

    def test_paper_narrative_bt_vs_sweep3d(self):
        """BT has phase-level headroom (its 13.7% independent work);
        Sweep3D has essentially none on the consumption side."""
        from repro.apps import get_app
        bt = get_app("bt").trace(nranks=8).trace
        sw = get_app("sweep3d").trace(nranks=8).trace
        pot_bt = phase_overlap_potential(bt, channel=0)
        pot_sw = phase_overlap_potential(sw, channel=0)
        assert pot_bt.independent_fraction > pot_sw.independent_fraction

    def test_str_renders(self):
        tr = traced(prod=[(0.0, 0.5), (1.0, 1.0)],
                    cons=[(0.0, 0.1), (1.0, 0.9)])
        assert "phase potential" in str(phase_overlap_potential(tr))

    def test_empty_trace(self):
        tr = run_traced(lambda c: c.compute(10), 1).trace
        pot = phase_overlap_potential(tr)
        assert pot.reorderable_seconds == 0.0
        assert pot.independent_fraction == 0.0


def oracle_phase_overlap_potential(trace, channel=None, min_elements=1):
    """Reference headroom: a clipped copy of every profile, then its
    nan-minimum."""
    pot = PhasePotential()
    for _, _, p in iter_profiles(trace, "consumption", channel, min_elements):
        if p.span <= 0:
            continue
        t = np.clip(p.times, p.interval_start, p.interval_end)
        first_need = (float(np.nanmin(t)) if not np.all(np.isnan(t))
                      else p.interval_end)
        pot.independent_consumption += first_need - p.interval_start
        pot.dependent_consumption += p.interval_end - first_need
        pot.consumption_intervals += 1
    for _, _, p in iter_profiles(trace, "production", channel, min_elements):
        if p.span <= 0:
            continue
        t = np.clip(p.times, p.interval_start, p.interval_end)
        first_final = (float(np.nanmin(t)) if not np.all(np.isnan(t))
                       else p.interval_end)
        pot.pre_production += first_final - p.interval_start
        pot.late_production += p.interval_end - first_final
        pot.production_intervals += 1
    return pot


class TestRawTimeReduction:
    @given(prods=st.lists(access_profiles("production", min_elements=0),
                          max_size=24),
           conss=st.lists(access_profiles("consumption", min_elements=0),
                          max_size=24),
           min_elements=st.integers(0, 2))
    @settings(max_examples=200, deadline=None)
    def test_headroom_bit_for_bit(self, prods, conss, min_elements):
        trace = profile_trace(prods, conss)
        new = phase_overlap_potential(trace, min_elements=min_elements)
        old = oracle_phase_overlap_potential(trace, min_elements=min_elements)
        assert np.array_equal(np.array(dataclasses.astuple(new)),
                              np.array(dataclasses.astuple(old)),
                              equal_nan=True)
        assert repr(new) == repr(old)
