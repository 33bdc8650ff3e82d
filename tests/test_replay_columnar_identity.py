"""Columnar vs object replay path: bitwise-identical results.

The parallel engine replays traces that round-tripped through the
binary codec (parent encodes, worker decodes); the correctness claim of
the whole zero-copy dispatch is that this changes *nothing* — not one
ulp of one duration, not the order of one message.  This suite pins
that claim for every application skeleton in the pool.
"""

import pytest

from repro.apps import APPS, get_app
from repro.dimemas.machine import MachineConfig
from repro.dimemas.replay import simulate
from repro.experiments.pipeline import AppExperiment
from repro.trace.columnar import columnar_of, decode, from_traceset

SMALL = 8  # ranks: enough for real communication structure, fast to run


def assert_results_identical(a, b):
    assert a.duration == b.duration
    assert a.rank_end == b.rank_end
    assert a.states == b.states
    assert a.messages == b.messages
    assert a.events == b.events
    assert (
        a.network_stats["events_executed"] == b.network_stats["events_executed"]
    )


@pytest.mark.parametrize("name", sorted(APPS))
class TestPoolAppIdentity:
    def test_codec_round_trip_replays_identically(self, name):
        ts = get_app(name).trace(nranks=SMALL).trace
        cfg = MachineConfig.paper_testbed(name)
        direct = simulate(ts, cfg)
        shipped = simulate(decode(from_traceset(ts).encode()), cfg)
        assert_results_identical(direct, shipped)


@pytest.mark.parametrize("variant", ["original", "real", "ideal"])
class TestTransformedTraceIdentity:
    def test_variant_round_trip(self, variant):
        exp = AppExperiment(
            "cg", nranks=4, app_params=dict(n=2000, iterations=1),
        )
        ts = exp.trace(variant)
        cfg = exp.platform(bandwidth_mbps=125.0)
        direct = simulate(ts, cfg)
        shipped = simulate(decode(columnar_of(ts).encode()), cfg)
        assert_results_identical(direct, shipped)
