"""The replay and CPython's cyclic garbage collector.

``simulate`` pauses the collector while it runs and hands the caller's
setting back on every exit.  The pause is safe only because a replay
leaves no reference cycle behind: once ``simulate`` returns, reference
counting has freed all of it, so a collection finds nothing.
"""

import gc

import pytest

from repro.dimemas.machine import PAPER_BUSES
from repro.dimemas.replay import DeadlockError, SimulationTimeout, simulate
from repro.experiments.pipeline import VARIANTS, AppExperiment
from repro.insight import InsightCollector
from repro.perturb import build_scenario
from repro.trace.records import ProcessTrace, Recv, Send, TraceSet

APPS = tuple(PAPER_BUSES)


@pytest.fixture
def restore_gc():
    """Put the collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def pair_trace() -> TraceSet:
    return TraceSet([
        ProcessTrace(0, [Send(peer=1, tag=0, size=8)]),
        ProcessTrace(1, [Recv(peer=0, tag=0, size=8)]),
    ])


def deadlocked_trace() -> TraceSet:
    """Two blocking receives that no send pairs with."""
    return TraceSet([
        ProcessTrace(0, [Recv(peer=1, tag=0, size=8)]),
        ProcessTrace(1, [Recv(peer=0, tag=0, size=8)]),
    ])


class _ReadOutProbe(InsightCollector):
    """Records the collector's state when ``simulate`` reads the log."""

    def read_log(self, sim) -> None:
        self.gc_enabled = gc.isenabled()
        super().read_log(sim)


@pytest.mark.parametrize("outcome", ["returns", "deadlock", "timeout"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_collector_paused_then_restored(restore_gc, enabled, outcome):
    (gc.enable if enabled else gc.disable)()
    if outcome == "returns":
        probe = _ReadOutProbe()
        simulate(pair_trace(), insight=probe)
        assert probe.gc_enabled is False
    elif outcome == "deadlock":
        with pytest.raises(DeadlockError):
            simulate(deadlocked_trace())
    else:
        with pytest.raises(SimulationTimeout):
            simulate(pair_trace(), max_events=1)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("app", APPS)
def test_replays_leave_no_cyclic_garbage(restore_gc, app):
    """Plain, audited, attributed and perturbed replays of every variant
    are freed by reference counting alone."""
    exp = AppExperiment(app, nranks=8)
    cfg = exp.machine
    for variant in VARIANTS:
        trace = exp.trace(variant)
        gc.collect()
        gc.disable()
        found = {}
        duration = simulate(trace, cfg).duration
        found["plain"] = gc.collect()
        simulate(trace, cfg, audit="full")
        found["audit"] = gc.collect()
        simulate(trace, cfg, insight=InsightCollector())
        found["insight"] = gc.collect()
        schedule = build_scenario("outage-stall", duration, seed=1)
        simulate(trace, cfg, perturb=schedule)
        found["perturb"] = gc.collect()
        assert found == dict.fromkeys(found, 0), variant
