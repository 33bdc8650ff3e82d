"""Tests of the application pool and its pattern calibration."""

import numpy as np
import pytest

from repro.apps import APPS, get_app, grid_2d
from repro.apps.patterns import (
    anchored_times,
    consumption_batches,
    production_batches,
    shift_anchors,
)
from repro.core.patterns import consumption_table, production_table
from repro.experiments.tables import PAPER_CONSUMPTION, PAPER_PRODUCTION
from repro.trace import dim
from repro.trace.validate import validate

SMALL = 8  # ranks for smoke runs


class TestGrids:
    @pytest.mark.parametrize("n,expect", [(1, (1, 1)), (4, (2, 2)),
                                          (6, (2, 3)), (64, (8, 8)),
                                          (7, (1, 7))])
    def test_grid_2d(self, n, expect):
        assert grid_2d(n) == expect


class TestPatternGenerators:
    def test_anchored_times_hits_anchors(self):
        t = anchored_times(101, [(0.0, 0.1), (0.5, 0.6), (1.0, 0.9)])
        assert t[0] == pytest.approx(0.1)
        assert t[50] == pytest.approx(0.6)
        assert t[-1] == pytest.approx(0.9)
        assert (np.diff(t) >= 0).all()

    def test_anchored_times_single_element(self):
        assert anchored_times(1, [(0.0, 0.3), (1.0, 0.9)])[0] == pytest.approx(0.3)

    def test_anchored_times_validation(self):
        with pytest.raises(ValueError):
            anchored_times(10, [(0.0, 0.9), (1.0, 0.1)])
        with pytest.raises(ValueError):
            anchored_times(10, [(0.0, 0.5), (1.0, 1.5)])
        with pytest.raises(ValueError):
            anchored_times(0, [(0.0, 0.0), (1.0, 1.0)])

    def test_production_revisits_do_not_change_last_store(self):
        anchors = [(0.0, 0.6), (1.0, 0.9)]
        plain = production_batches(32, anchors, revisits=0)
        noisy = production_batches(32, anchors, revisits=3)
        assert len(noisy) == 4
        # all revisit passes land before the earliest final store
        final = plain[-1][1]
        for offs, at in noisy[:-1]:
            assert (at <= final.min() + 1e-12).all()

    def test_consumption_rereads_after_first_load(self):
        anchors = [(0.0, 0.1), (1.0, 0.2)]
        batches = consumption_batches(16, anchors, rereads=2)
        first = batches[0][1]
        for offs, at in batches[1:]:
            assert (at >= first.max() - 1e-12).all()

    def test_batches_shared_per_geometry(self):
        """Equal arguments return the same read-only arrays, built as
        the unmemoized body builds them."""
        import repro.apps.patterns as patterns
        anchors = [(0.0, 0.6), (1.0, 0.9)]
        for build, body in ((production_batches, patterns._production_batches),
                            (consumption_batches, patterns._consumption_batches)):
            batches = build(32, anchors, 2)
            assert isinstance(batches, tuple)
            assert build(32, [list(a) for a in anchors], 2) is batches
            assert build(32, tuple(anchors), 2)[0][1] is batches[0][1]
            assert all(not at.flags.writeable for _o, at in batches)
            fresh = body.__wrapped__(32, tuple(anchors), 2)
            assert [at.tobytes() for _o, at in fresh] == [
                at.tobytes() for _o, at in batches]
            assert build(32, anchors, 1) is not batches
            assert build(33, anchors, 2) is not batches
            assert build(32, [(0.0, 0.5), (1.0, 0.9)], 2) is not batches

    def test_shift_anchors_clipped(self):
        out = shift_anchors([(0.0, 0.95), (1.0, 0.999)], 0.1)
        assert out[1][1] == 1.0
        out2 = shift_anchors([(0.0, 0.05)], -0.1)
        assert out2[0][1] == 0.0


@pytest.mark.parametrize("name", sorted(APPS))
class TestPoolApps:
    def test_trace_validates(self, name):
        run = get_app(name).trace(nranks=SMALL)
        validate(run.trace, strict=True)

    def test_deterministic(self, name):
        a = dim.dumps(get_app(name).trace(nranks=SMALL).trace)
        b = dim.dumps(get_app(name).trace(nranks=SMALL).trace)
        assert a == b

    def test_single_rank_degenerates(self, name):
        run = get_app(name).trace(nranks=1)
        assert run.trace.nranks == 1

    def test_params_recorded_in_meta(self, name):
        run = get_app(name).trace(nranks=SMALL)
        assert run.trace.meta["app"] == name
        assert isinstance(run.trace.meta["params"], dict)

    def test_invalid_params_rejected(self, name):
        cls = APPS[name]
        first_param = next(iter(get_app(name).params()))
        with pytest.raises((ValueError, TypeError)):
            cls(**{first_param: 0})


class TestPatternCalibration:
    """Measured Table II rows must approximate the paper's values."""

    @pytest.mark.parametrize("name", ["bt", "cg", "sweep3d", "pop", "specfem3d"])
    def test_production_row(self, name):
        tr = get_app(name).trace(nranks=16).trace
        row = production_table(tr, channel=0)
        paper = PAPER_PRODUCTION[name]
        assert row.first_element == pytest.approx(paper.first_element, abs=0.05)
        assert row.whole == pytest.approx(paper.whole, abs=0.05)

    @pytest.mark.parametrize("name", ["bt", "specfem3d"])
    def test_consumption_independent_work(self, name):
        """The 'nothing' column — how much independent work exists."""
        tr = get_app(name).trace(nranks=16).trace
        row = consumption_table(tr, channel=0)
        paper = PAPER_CONSUMPTION[name]
        # consumption intervals span beyond the consuming burst, so the
        # measured fraction is a scaled-down version of the anchor;
        # the qualitative distinction (BT ~14% vs specfem ~0%) must hold.
        if paper.nothing > 0.05:
            assert row.nothing > 0.02
        else:
            assert row.nothing < 0.02

    def test_cg_production_is_near_linear(self):
        tr = get_app("cg").trace(nranks=16).trace
        row = production_table(tr, channel=0)
        assert row.first_element < 0.15
        assert 0.15 < row.quarter < 0.45
        assert 0.35 < row.half < 0.65

    def test_alya_scalar_reductions_dominate(self):
        tr = get_app("alya").trace(nranks=8).trace
        from repro.trace.records import CHANNEL_COLLECTIVE, ISend, Send
        coll = [r for p in tr for r in p
                if isinstance(r, (Send, ISend)) and r.channel == CHANNEL_COLLECTIVE]
        app = [r for p in tr for r in p
               if isinstance(r, (Send, ISend)) and r.channel == 0]
        assert len(coll) > len(app)

    def test_sweep3d_buffer_is_about_600_elements_at_64(self):
        """Figure 5(a): 'the communicated buffer has 600 elements'."""
        app = get_app("sweep3d")
        run = app.trace(nranks=64)
        assert run.results[0]["face_elements"] == 600
