"""Fault injection and deadlock post-mortems.

The contract under test: a seeded injector perturbs exactly one site
deterministically, and every structurally-broken mutant is *diagnosed*
— flagged by validation with the right location, or replayed into a
:class:`DeadlockError` whose report names the blocked ranks — never a
hang, a KeyError, or a silently wrong number.
"""

import hashlib

import pytest

from repro.dimemas import (
    DeadlockError,
    MachineConfig,
    SimulationTimeout,
    simulate,
)
from repro.trace import dim
from repro.trace.validate import validate
from repro.tracer import run_traced
from tests import faults
from tests.conftest import make_pipeline_app

MACHINE = MachineConfig(bandwidth_mbps=100.0, latency=10e-6, buses=4)

#: Generous event budget: replay of the tiny pipeline needs ~40 events,
#: so hitting this means a runaway, not a slow simulation.
EVENT_BUDGET = 200_000

#: Every mutant the injectors build from the ``trace`` fixture with
#: seeds 3 and 11: ``(kind, seed) -> (sha256 of the mutant's .dim
#: text, fault rank, fault index, fault details)``.  Recorded while the
#: injectors deep-copied the trace and edited the copy in place;
#: building each mutant by replacement gives the same bytes and faults.
MUTANTS = {
    ("corrupt_size", 3): (
        "2137fcba909137741af1b0e782807440c39f5ebbcddbc1d2a20a044b1098c92c",
        1, 9, {"old_size": 512, "new_size": 1512}),
    ("corrupt_size", 11): (
        "b855393b7ad4a60c8086f342c39d0c5f1f480f7704b91f11cf244aee167a9dea",
        2, 11, {"old_size": 512, "new_size": 1951}),
    ("drop", 3): (
        "3a6ff7bbf2622e3f47ba93d2a5150ece2c1e94cc831c53f973960857b1dd099b",
        1, 9, {"record": "Recv"}),
    ("drop", 11): (
        "7691bdfa35f90f4d18a116074ec1a4cbf5169d8bb11d8c2ca79e88338aa3f089",
        2, 11, {"record": "Send"}),
    ("duplicate", 3): (
        "721c26e9d31133b8b427ae354d6db59d4cf80ba8bb386635a9bf5fe7d8d40493",
        1, 9, {"record": "Recv"}),
    ("duplicate", 11): (
        "e749354ac1486441325bd8b6ebc14c465b93c0cc8001c078498e4675edc93b34",
        2, 11, {"record": "Send"}),
    ("reorder", 3): (
        "a506c7c45ee8547bc73aeacf1cb87d60dfcd9adc76de043d205b37793ed80891",
        1, 3, {"first": "Event", "second": "Send"}),
    ("reorder", 11): (
        "842607b06b4c640620628909376dda97254f37ed9878b98f6744a9ff65809845",
        2, 1, {"first": "CpuBurst", "second": "Recv"}),
    ("skew", 3): (
        "344fa3ac031c2ef16d6bf27b57437f800a2826cc46e18d8fceaf8d750e69e9c3",
        1, 2, {"factor": 1.3889613659407485, "record": "CpuBurst",
               "bursts": 3}),
    ("skew", 11): (
        "a1d291780962a553cf8506fdc4f21a135274e9b7e09ce4fc24899e050e821a2a",
        3, 2, {"factor": 1.7986134278748822, "record": "CpuBurst",
               "bursts": 3}),
    ("truncate", 3): (
        "20d59d4c3d1a4e5387c34e693cff9316bdcf0d18f2ef17ad3dd748bd10055a70",
        1, 10, {"removed": 2, "record": "CpuBurst"}),
    ("truncate", 11): (
        "fd19f6aea2ac10ccab9fb4055736d57ea7beb861c6d258f8968fe951f393cd09",
        3, 8, {"removed": 1, "record": "CpuBurst"}),
}


@pytest.fixture(scope="module")
def trace():
    return run_traced(make_pipeline_app(), 4, mips=1000.0).trace


def diagnose(mutant):
    """Replay a mutant; returns ('ok', result) or ('deadlock', report)."""
    try:
        return "ok", simulate(mutant, MACHINE, max_events=EVENT_BUDGET)
    except DeadlockError as exc:
        return "deadlock", exc.report


class TestInjectorContract:
    @pytest.mark.parametrize("kind", sorted(faults.FAULT_KINDS))
    def test_same_seed_same_mutant(self, trace, kind):
        m1, f1 = faults.inject(trace, kind, seed=11)
        m2, f2 = faults.inject(trace, kind, seed=11)
        assert dim.dumps(m1) == dim.dumps(m2)
        assert f1 == f2

    @pytest.mark.parametrize("kind", sorted(faults.FAULT_KINDS))
    def test_original_never_mutated(self, trace, kind):
        before = dim.dumps(trace)
        faults.inject(trace, kind, seed=3)
        assert dim.dumps(trace) == before

    def test_pinned_mutants_and_faults(self, trace):
        assert {k for k, _ in MUTANTS} == set(faults.FAULT_KINDS)
        for (kind, seed), (sha, rank, index, details) in MUTANTS.items():
            mutant, fault = faults.inject(trace, kind, seed=seed)
            digest = hashlib.sha256(dim.dumps(mutant).encode()).hexdigest()
            assert digest == sha, (kind, seed)
            assert fault == faults.Fault(kind=kind, rank=rank, index=index,
                                         seed=seed, details=details)

    def test_seeds_explore_different_sites(self, trace):
        sites = {
            (f.rank, f.index)
            for seed in range(16)
            for _, f in [faults.inject(trace, "drop", seed=seed)]
        }
        assert len(sites) > 1

    def test_unknown_kind_raises(self, trace):
        with pytest.raises(KeyError, match="unknown fault kind"):
            faults.inject(trace, "cosmic_ray")

    def test_uninjectable_raises(self):
        # a communication-free trace offers no site to drop
        silent = run_traced(lambda comm: comm.compute(1000), 2,
                            mips=1000.0).trace
        with pytest.raises(faults.FaultInjectionError):
            faults.drop_record(silent)

    def test_fault_describe_names_location(self, trace):
        _, f = faults.inject(trace, "drop", seed=5)
        text = f.describe()
        assert f"rank={f.rank}" in text and f"record={f.index}" in text


class TestDiagnosis:
    """Every mutant is caught: validation blames the right rank, and
    replay either completes or produces a structured post-mortem."""

    @pytest.mark.parametrize("kind", ["drop", "truncate"])
    def test_missing_records_deadlock_with_blame(self, trace, kind):
        mutant, fault = faults.inject(trace, kind, seed=7)
        assert not validate(mutant).ok
        status, report = diagnose(mutant)
        assert status == "deadlock"
        assert report.blocked_ranks  # somebody is named
        # the orphaned partner blocks; the perturbed rank is either the
        # blocked one or the peer of a blocked op
        involved = set(report.blocked_ranks) | {
            b.peer for b in report.blocked if b.peer is not None
        }
        assert fault.rank in involved
        assert report.unmatched  # lenient matcher reported the orphan

    @pytest.mark.parametrize("kind", ["duplicate", "corrupt_size"])
    def test_mismatches_flagged_by_validation(self, trace, kind):
        mutant, fault = faults.inject(trace, kind, seed=7)
        rep = validate(mutant)
        assert not rep.ok
        located = [
            i for i in rep.issues
            if i.rank == fault.rank or f"={fault.rank}," in i or "key (" in i
        ]
        assert located, rep.issues
        # replay must terminate either way (eager orphans complete)
        status, _ = diagnose(mutant)
        assert status in ("ok", "deadlock")

    def test_corrupt_size_blames_exact_record(self, trace):
        mutant, fault = faults.inject(trace, "corrupt_size", seed=7)
        rep = validate(mutant)
        assert any(
            i.rank == fault.rank and i.record == fault.index
            for i in rep.issues
        ), rep.issues

    def test_skew_stays_valid_and_replayable(self, trace):
        mutant, fault = faults.inject(trace, "skew", seed=7)
        assert validate(mutant).ok
        status, result = diagnose(mutant)
        assert status == "ok"
        base = simulate(trace, MACHINE).duration
        assert result.duration != base  # the skew is visible in timing
        assert fault.details["factor"] != 1.0

    def test_reorder_terminates(self, trace):
        mutant, _ = faults.inject(trace, "reorder", seed=7)
        status, _ = diagnose(mutant)
        assert status in ("ok", "deadlock")


class TestPostmortemStructure:
    def _rendezvous_cycle(self):
        """Two ranks that Send to each other first: a classic deadlock
        once the messages are too big for the eager protocol."""
        import numpy as np

        def app(comm):
            buf = np.zeros(4096)
            other = 1 - comm.rank
            comm.send(buf, other, tag=0)
            comm.Recv(buf, other, tag=0)

        return run_traced(app, 2, mips=1000.0).trace

    def test_cycle_named_in_report(self):
        trace = self._rendezvous_cycle()
        machine = MachineConfig(eager_threshold=0)
        with pytest.raises(DeadlockError) as ei:
            simulate(trace, machine, max_events=EVENT_BUDGET)
        report = ei.value.report
        assert sorted(report.blocked_ranks) == [0, 1]
        assert report.cycle and report.cycle[0] == report.cycle[-1]
        assert set(report.cycle) == {0, 1}
        text = report.render()
        assert "wait cycle" in text and "rank 0" in text and "rank 1" in text
        # message compatible with historical matcher ("stalled")
        assert "stalled" in str(ei.value)

    def test_report_to_dict_roundtrips_structure(self):
        trace = self._rendezvous_cycle()
        with pytest.raises(DeadlockError) as ei:
            simulate(trace, MachineConfig(eager_threshold=0),
                     max_events=EVENT_BUDGET)
        d = ei.value.report.to_dict()
        assert d["blocked"] and d["cycle"]
        assert {b["rank"] for b in d["blocked"]} == {0, 1}

    def test_max_events_watchdog(self, trace):
        with pytest.raises(SimulationTimeout) as ei:
            simulate(trace, MACHINE, max_events=2)
        assert ei.value.reason == "max_events"
        assert ei.value.report.events_executed <= 2

    def test_max_sim_time_watchdog(self, trace):
        machine = MachineConfig(
            bandwidth_mbps=100.0, latency=10e-6, buses=4, max_sim_time=1e-9,
        )
        with pytest.raises(SimulationTimeout) as ei:
            simulate(trace, machine)
        assert ei.value.reason == "max_sim_time"

    def test_watchdog_config_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(max_events=0)
        with pytest.raises(ValueError):
            MachineConfig(max_sim_time=-1.0)

    def test_generous_budgets_change_nothing(self, trace):
        base = simulate(trace, MACHINE)
        guarded = simulate(trace, MACHINE, max_events=10**9,
                           max_sim_time=10**6)
        assert guarded.duration == base.duration
