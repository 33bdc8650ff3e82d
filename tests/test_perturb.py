"""Platform fault injection (``repro.perturb``) and resilience analysis.

Covers, in dependency order:

* the schedule model — validation, normalization, canonical digest,
  round-trip serialization, the seeded ``unit_hash`` draw;
* the named scenario registry that the CLIs parse;
* ``MachineConfig.perturb`` — duck validation and the no-op collapse
  that makes a zero-magnitude schedule *be* the pristine platform;
* perturbed replay semantics on hand-built traces — bandwidth
  windows, latency windows, outage stall vs restart, blocked starts,
  stragglers, CPU noise — plus the two identity contracts (disabled
  path bitwise-identical, machine-carried == explicit kwarg);
* the typed :class:`PerturbationStall` post-mortem naming the window;
* wait-cause attribution of perturbation damage with exact per-rank
  conservation;
* injector ``Fault.describe()`` carrying seed and site (docs §4);
* the resilience sweep, its index math, and all three renderers.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

from repro.dimemas.machine import MachineConfig
from repro.dimemas.postmortem import PerturbationStall, SimulationTimeout
from repro.dimemas.replay import simulate
from repro.experiments.resilience import (
    SCHEMA_ID,
    ResilienceRow,
    render_html,
    render_text,
    resilience_sweep,
    to_json,
)
from repro.perturb import (
    BandwidthWindow,
    CpuNoise,
    LatencyWindow,
    OutageWindow,
    PerturbationSchedule,
    SCENARIO_KINDS,
    Straggler,
    build_scenario,
    default_scenarios,
    unit_hash,
)
from repro.trace.records import (
    CpuBurst,
    ProcessTrace,
    Recv,
    Send,
    TraceSet,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from validate_schema import validate  # noqa: E402

US = 1e-6

#: 100 MB/s, zero latency: 1000 bytes = 10 us of pure wire time.
CFG = MachineConfig(bandwidth_mbps=100.0, latency=0.0)


def ts(*rank_records) -> TraceSet:
    return TraceSet([ProcessTrace(r, list(recs))
                     for r, recs in enumerate(rank_records)])


def ping(size=1000, pre=0.0):
    """Rank 0 sends ``size`` eager bytes to rank 1 after ``pre`` s of
    compute; rank 1 receives after the same compute."""
    return ts(
        [CpuBurst(pre), Send(peer=1, size=size, tag=0)] if pre else
        [Send(peer=1, size=size, tag=0)],
        [CpuBurst(pre), Recv(peer=0, size=size, tag=0)] if pre else
        [Recv(peer=0, size=size, tag=0)],
    )


def same_result(a, b) -> bool:
    """Bitwise-equality proxy: every reconstructed quantity agrees."""
    return (a.duration == b.duration
            and a.states == b.states
            and [(m.src, m.dst, m.size, m.t_send, m.t_recv)
                 for m in a.messages]
            == [(m.src, m.dst, m.size, m.t_send, m.t_recv)
                for m in b.messages])


# --------------------------------------------------------------------------- #
# unit_hash.
# --------------------------------------------------------------------------- #

class TestUnitHash:
    def test_range_and_determinism(self):
        draws = [unit_hash(s, "cpu", e, r, i)
                 for s in (0, 1, 2**63) for e in (0, 1)
                 for r in (0, 7) for i in (0, 100)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert unit_hash(7, "cpu", 0, 3, 5) == unit_hash(7, "cpu", 0, 3, 5)

    def test_distinct_coordinates_distinct_draws(self):
        a = unit_hash(0, "cpu", 0, 0, 0)
        assert a != unit_hash(1, "cpu", 0, 0, 0)  # seed
        assert a != unit_hash(0, "cpu", 0, 0, 1)  # coordinate


# --------------------------------------------------------------------------- #
# Schedule validation + canonical forms.
# --------------------------------------------------------------------------- #

class TestScheduleValidation:
    def test_window_bounds(self):
        with pytest.raises(ValueError):
            BandwidthWindow(1.0, 1.0, 0.5)         # empty
        with pytest.raises(ValueError):
            BandwidthWindow(-1.0, 1.0, 0.5)        # negative start
        with pytest.raises(ValueError):
            BandwidthWindow(0.0, math.inf, 0.5)    # non-finite
        with pytest.raises(ValueError):
            BandwidthWindow(0.0, 1.0, 0.0)         # dead link != sag
        with pytest.raises(ValueError):
            LatencyWindow(0.0, 1.0, -1e-6)
        with pytest.raises(ValueError):
            OutageWindow(0.0, 1.0, semantics="retry")
        with pytest.raises(ValueError):
            CpuNoise(-0.1)
        with pytest.raises(ValueError):
            Straggler(-1, 2.0)
        with pytest.raises(ValueError):
            Straggler(0, 0.0)

    def test_wire_windows_must_not_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            PerturbationSchedule(
                bandwidth=(BandwidthWindow(0.0, 2.0, 0.5),),
                outages=(OutageWindow(1.0, 3.0),),
            )
        with pytest.raises(ValueError, match="latency windows overlap"):
            PerturbationSchedule(latency=(LatencyWindow(0.0, 2.0, 1e-3),
                                          LatencyWindow(1.0, 3.0, 1e-3)))
        with pytest.raises(ValueError, match="duplicate straggler"):
            PerturbationSchedule(stragglers=(Straggler(2, 1.5),
                                             Straggler(2, 2.0)))

    def test_normalized_drops_zero_magnitude(self):
        sched = PerturbationSchedule(
            seed=3,
            bandwidth=(BandwidthWindow(0.0, 1.0, 1.0),),
            latency=(LatencyWindow(0.0, 1.0, 0.0),),
            cpu_noise=(CpuNoise(0.0),),
            stragglers=(Straggler(1, 1.0),),
        )
        assert not sched.is_noop()          # ingredients present ...
        norm = sched.normalized()
        assert norm.is_noop()               # ... but all zero-magnitude
        assert norm.digest() == PerturbationSchedule(seed=3).digest()

    def test_digest_ignores_window_order(self):
        a = PerturbationSchedule(latency=(LatencyWindow(0.0, 1.0, 1e-3),
                                          LatencyWindow(2.0, 3.0, 1e-3)))
        b = PerturbationSchedule(latency=(LatencyWindow(2.0, 3.0, 1e-3),
                                          LatencyWindow(0.0, 1.0, 1e-3)))
        assert a.digest() == b.digest()

    def test_digest_sensitive_to_seed_and_content(self):
        base = build_scenario("cpu-noise", 1.0, seed=0)
        assert base.digest() != build_scenario("cpu-noise", 1.0, 1).digest()
        assert base.digest() != build_scenario("straggler", 1.0, 0).digest()

    def test_roundtrip_and_describe(self):
        sched = PerturbationSchedule(
            seed=9,
            bandwidth=(BandwidthWindow(0.1, 0.2, 0.25),),
            latency=(LatencyWindow(0.3, 0.4, 5e-4),),
            outages=(OutageWindow(0.5, 0.6, "restart"),),
            cpu_noise=(CpuNoise(0.15, ranks=(1, 3)),),
            stragglers=(Straggler(0, 1.5),),
        )
        back = PerturbationSchedule.from_dict(
            json.loads(json.dumps(sched.to_dict())))
        assert back == sched
        text = sched.describe()
        for bit in ("seed=9", "outage (restart)", "bandwidth x0.25",
                    "latency +0.0005s", "cpu noise", "straggler rank 0"):
            assert bit in text


class TestScenarios:
    def test_registry_is_the_documented_six(self):
        assert set(SCENARIO_KINDS) == {
            "bandwidth-sag", "latency-spike", "outage-stall",
            "outage-restart", "cpu-noise", "straggler",
        }

    def test_every_scenario_builds_non_noop(self):
        for kind, sched in default_scenarios(0.05, seed=4).items():
            assert not sched.normalized().is_noop(), kind
            assert sched.seed == 4

    def test_unknown_kind_and_bad_horizon(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("meteor-strike", 1.0)
        with pytest.raises(ValueError, match="horizon"):
            build_scenario("bandwidth-sag", 0.0)


# --------------------------------------------------------------------------- #
# MachineConfig integration.
# --------------------------------------------------------------------------- #

class TestMachinePerturb:
    def test_rejects_non_schedules(self):
        with pytest.raises(ValueError, match="PerturbationSchedule"):
            MachineConfig(perturb="bandwidth-sag")

    def test_noop_schedule_collapses_to_none(self):
        cfg = MachineConfig(perturb=PerturbationSchedule(
            seed=5, bandwidth=(BandwidthWindow(0.0, 1.0, 1.0),)))
        assert cfg.perturb is None
        assert cfg == MachineConfig()       # identical cache identity

    def test_real_schedule_survives_normalized(self):
        sched = PerturbationSchedule(stragglers=(Straggler(0, 1.5),))
        cfg = MachineConfig(perturb=sched)
        assert cfg.perturb == sched.normalized()
        assert dataclasses.asdict(cfg) != dataclasses.asdict(MachineConfig())


# --------------------------------------------------------------------------- #
# Perturbed replay semantics (hand-computed, tiny traces).
# --------------------------------------------------------------------------- #

class TestPerturbedReplay:
    def test_disabled_path_bitwise_identical(self):
        trace = ping(pre=20 * US)
        assert same_result(simulate(trace, CFG), simulate(trace, CFG))
        noop = PerturbationSchedule(
            seed=11, cpu_noise=(CpuNoise(0.0),),
            bandwidth=(BandwidthWindow(0.0, 1.0, 1.0),))
        assert same_result(simulate(trace, CFG),
                           simulate(trace, CFG, perturb=noop))

    def test_window_outside_run_changes_nothing(self):
        trace = ping(pre=20 * US)
        base = simulate(trace, CFG)
        late = PerturbationSchedule(
            bandwidth=(BandwidthWindow(10.0, 20.0, 0.01),),
            outages=(OutageWindow(30.0, 40.0),))
        assert same_result(base, simulate(trace, CFG, perturb=late))

    def test_bandwidth_window_stretches_crossing_transfer(self):
        # 1000 B at 100 MB/s = 10 us of wire; the window halves the
        # rate over the whole flight, so the wire takes exactly 20 us.
        trace = ping()
        base = simulate(trace, CFG)
        sag = PerturbationSchedule(
            bandwidth=(BandwidthWindow(0.0, 1.0, 0.5),))
        slow = simulate(trace, CFG, perturb=sag)
        assert slow.duration == pytest.approx(base.duration + 10 * US)

    def test_partial_window_integrates_piecewise(self):
        # Window covers only the first 5 us of the flight: 5 us at half
        # rate moves 250 B, the remaining 750 B flow at full rate
        # (7.5 us) -> 12.5 us total wire.
        trace = ping()
        sag = PerturbationSchedule(
            bandwidth=(BandwidthWindow(0.0, 5 * US, 0.5),))
        assert simulate(trace, CFG, perturb=sag).duration == (
            pytest.approx(12.5 * US))

    def test_latency_window_adds_extra(self):
        cfg = MachineConfig(bandwidth_mbps=100.0, latency=10 * US)
        trace = ping()
        base = simulate(trace, cfg)
        spike = PerturbationSchedule(
            latency=(LatencyWindow(0.0, 1.0, 40 * US),))
        assert simulate(trace, cfg, perturb=spike).duration == (
            pytest.approx(base.duration + 40 * US))

    def test_outage_blocks_new_starts(self):
        # The send is ready at t=0 but the link is down until 100 us;
        # the 10 us transfer runs entirely after the window.
        trace = ping()
        out = PerturbationSchedule(outages=(OutageWindow(0.0, 100 * US),))
        assert simulate(trace, CFG, perturb=out).duration == (
            pytest.approx(110 * US))

    def test_stall_resumes_where_restart_repeats(self):
        # Wire starts at t=0, outage hits at 5 us (half the flight)
        # and lasts until 50 us.  Stall: the remaining 5 us resume at
        # 50 us -> done 55 us.  Restart: the full 10 us re-inject at
        # 50 us -> done 60 us.
        trace = ping()
        stall = PerturbationSchedule(
            outages=(OutageWindow(5 * US, 50 * US, "stall"),))
        restart = PerturbationSchedule(
            outages=(OutageWindow(5 * US, 50 * US, "restart"),))
        t_stall = simulate(trace, CFG, perturb=stall).duration
        t_restart = simulate(trace, CFG, perturb=restart).duration
        assert t_stall == pytest.approx(55 * US)
        assert t_restart == pytest.approx(60 * US)

    def test_straggler_scales_one_ranks_compute(self):
        trace = ts([CpuBurst(100 * US)], [CpuBurst(100 * US)])
        sched = PerturbationSchedule(stragglers=(Straggler(1, 1.5),))
        r = simulate(trace, CFG, perturb=sched)
        running = {
            rank: sum(t1 - t0 for s, t0, t1 in r.states[rank]
                      if s == "Running")
            for rank in (0, 1)
        }
        assert running[0] == pytest.approx(100 * US)
        assert running[1] == pytest.approx(150 * US)

    def test_cpu_noise_stretches_and_is_seeded(self):
        trace = ts([CpuBurst(100 * US), CpuBurst(100 * US)])
        base = simulate(trace, CFG).duration
        noisy = PerturbationSchedule(seed=1, cpu_noise=(CpuNoise(0.5),))
        d1 = simulate(trace, CFG, perturb=noisy).duration
        assert base < d1 <= base * 1.5 + 1e-12
        assert d1 == simulate(trace, CFG, perturb=noisy).duration
        other = PerturbationSchedule(seed=2, cpu_noise=(CpuNoise(0.5),))
        assert d1 != simulate(trace, CFG, perturb=other).duration

    def test_machine_carried_equals_explicit_kwarg(self):
        trace = ping(pre=20 * US)
        sched = build_scenario("bandwidth-sag", 40 * US, seed=3)
        via_kwarg = simulate(trace, CFG, perturb=sched)
        via_machine = simulate(trace, CFG.with_platform(perturb=sched))
        assert same_result(via_kwarg, via_machine)
        assert not same_result(via_kwarg, simulate(trace, CFG))


class TestPerturbationStall:
    def test_outage_stall_names_the_window(self):
        trace = ping()
        sched = PerturbationSchedule(
            outages=(OutageWindow(5 * US, 10.0, "stall"),))
        with pytest.raises(PerturbationStall) as info:
            simulate(trace, CFG, perturb=sched, max_sim_time=1.0)
        exc = info.value
        assert isinstance(exc, SimulationTimeout)   # handlers keep working
        assert "outage (stall)" in exc.window
        assert exc.window in str(exc)
        assert exc.report.sim_time <= 10.0

    def test_unperturbed_timeout_stays_generic(self):
        with pytest.raises(SimulationTimeout) as info:
            simulate(ping(), CFG, max_sim_time=1e-9)
        assert not isinstance(info.value, PerturbationStall)


# --------------------------------------------------------------------------- #
# Attribution: perturbation damage shows up as a wait cause, exactly.
# --------------------------------------------------------------------------- #

class TestPerturbationAttribution:
    def _attributed(self, trace, cfg, sched):
        from repro.insight import attribute, collect
        result, col = collect(trace, cfg, perturb=sched)
        return result, attribute(result, col)

    def _assert_conservation(self, result, attr):
        for rank in range(result.nranks):
            blocked = sum(t1 - t0 for s, t0, t1 in result.states[rank]
                          if s != "Running")
            assert attr.rank_total(rank) == pytest.approx(
                blocked, abs=1e-9), f"rank {rank}"

    def test_bandwidth_sag_attributed_and_conserved(self):
        trace = ping()
        sag = PerturbationSchedule(
            bandwidth=(BandwidthWindow(0.0, 1.0, 0.25),))
        result, attr = self._attributed(trace, CFG, sag)
        totals = attr.totals()
        # 1000 B at quarter rate: 40 us wire instead of 10 -> 30 us of
        # the receiver's wait is the perturbation's fault.
        assert totals["perturbation"] == pytest.approx(30 * US)
        self._assert_conservation(result, attr)

    def test_outage_wait_attributed(self):
        trace = ping()
        out = PerturbationSchedule(outages=(OutageWindow(0.0, 100 * US),))
        result, attr = self._attributed(trace, CFG, out)
        assert attr.totals()["perturbation"] == pytest.approx(100 * US)
        self._assert_conservation(result, attr)

    def test_app_skeleton_conserves_under_every_scenario(self):
        from repro.experiments import AppExperiment
        exp = AppExperiment("cg", nranks=4)
        trace = exp.trace("original")
        cfg = MachineConfig.paper_testbed("cg")
        horizon = simulate(trace, cfg).duration
        for kind in SCENARIO_KINDS:
            sched = build_scenario(kind, horizon, seed=0)
            result, attr = self._attributed(trace, cfg, sched)
            self._assert_conservation(result, attr)

    def test_unperturbed_replay_attributes_no_perturbation(self):
        trace = ping(pre=20 * US)
        from repro.insight import attribute, collect
        result, col = collect(trace, CFG)
        assert attribute(result, col).totals()["perturbation"] == 0.0


# --------------------------------------------------------------------------- #
# Injector Fault.describe(): seed + site (docs/ROBUSTNESS.md §4).
# --------------------------------------------------------------------------- #

class TestFaultDescribe:
    @pytest.fixture(scope="class")
    def trace(self):
        from repro.experiments import AppExperiment
        return AppExperiment("cg", nranks=4).trace("original")

    def test_describe_pins_seed_and_site(self, trace):
        from tests.faults import inject
        for kind in ("drop", "duplicate", "reorder", "corrupt_size",
                     "truncate", "skew"):
            _, fault = inject(trace, kind, seed=7)
            text = fault.describe()
            assert text.startswith(f"fault[{kind}] rank={fault.rank} "
                                   f"record={fault.index} seed=7"), text
            assert fault.seed == 7

    def test_truncate_names_first_removed_record(self, trace):
        from tests.faults import truncate_rank
        mutant, fault = truncate_rank(trace, seed=7)
        assert fault.details["removed"] == (
            len(trace[fault.rank].records) - fault.index)
        assert fault.details["record"] == type(
            trace[fault.rank].records[fault.index]).__name__
        assert f"record={fault.details['record']}" in fault.describe()

    def test_skew_reports_burst_count_and_factor(self, trace):
        from tests.faults import skew_timestamps
        from repro.trace.records import CpuBurst as Burst
        _, fault = skew_timestamps(trace, seed=7)
        assert fault.details["record"] == "CpuBurst"
        assert fault.details["bursts"] == sum(
            isinstance(r, Burst) for r in trace[fault.rank].records)
        assert 0.5 <= fault.details["factor"] <= 2.0
        assert "bursts=" in fault.describe()
        assert "record=CpuBurst" in fault.describe()

    def test_same_seed_same_fault(self, trace):
        from tests.faults import inject
        a = inject(trace, "drop", seed=13)[1]
        b = inject(trace, "drop", seed=13)[1]
        assert (a.rank, a.index, a.details) == (b.rank, b.index, b.details)


# --------------------------------------------------------------------------- #
# The resilience sweep and its renderers.
# --------------------------------------------------------------------------- #

class TestResilienceIndex:
    def row(self, bo, br, po, pr):
        return ResilienceRow(
            app="cg", scenario="straggler", schedule_digest="d" * 24,
            schedule={}, baseline_original=bo, baseline_real=br,
            perturbed_original=po, perturbed_real=pr)

    def test_index_math(self):
        # Original loses 1.0 s, overlapped only 0.25 s: 75% masked.
        r = self.row(2.0, 1.8, 3.0, 2.05)
        assert r.resilience_index == pytest.approx(0.75)
        assert r.delta_original == pytest.approx(1.0)
        assert r.slowdown_original == pytest.approx(1.5)

    def test_index_none_when_nothing_injected(self):
        assert self.row(2.0, 1.8, 2.0, 1.9).resilience_index is None

    def test_index_none_on_nan(self):
        r = self.row(2.0, math.nan, 3.0, 2.0)
        assert r.resilience_index is None
        assert r.to_dict()["baseline_real"] is None

    def test_negative_index_when_overlap_hurts(self):
        # Overlapped variant loses *more* than the original: rho < 0.
        assert self.row(2.0, 1.8, 3.0, 3.3).resilience_index == (
            pytest.approx(-0.5))


class TestResilienceSweep:
    @pytest.fixture(scope="class")
    def report(self):
        return resilience_sweep(
            ["cg"], scenarios=["straggler", "bandwidth-sag"],
            seed=0, nranks=4, chunks=2)

    def test_rows_and_lookup(self, report):
        assert {(r.app, r.scenario) for r in report.rows} == {
            ("cg", "straggler"), ("cg", "bandwidth-sag")}
        row = report.row("cg", "straggler")
        assert row.perturbed_original > row.baseline_original
        assert report.row("cg", "meteor") is None

    def test_digest_reproducible(self, report):
        again = resilience_sweep(
            ["cg"], scenarios=["straggler", "bandwidth-sag"],
            seed=0, nranks=4, chunks=2)
        assert report.result_digest() == again.result_digest()
        other_seed = resilience_sweep(
            ["cg"], scenarios=["straggler"], seed=1, nranks=4, chunks=2)
        assert report.result_digest() != other_seed.result_digest()

    def test_unknown_inputs_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            resilience_sweep(["cg"], scenarios=["meteor"], nranks=4)
        with pytest.raises(KeyError):
            resilience_sweep(["nosuchapp"], scenarios=["straggler"],
                             nranks=4)

    def test_render_text(self, report):
        text = render_text(report)
        assert "straggler" in text and "bandwidth-sag" in text
        assert report.result_digest() in text
        assert "resilience index" in text.lower()

    def test_json_validates_against_schema(self, report, tmp_path):
        doc = to_json(report)
        assert doc["schema"] == SCHEMA_ID
        schema = json.loads(Path(
            Path(__file__).resolve().parent.parent,
            "docs/schema/repro-resilience.schema.json").read_text())
        assert validate(json.loads(json.dumps(doc)), schema) == []

    def test_render_html(self, report):
        html = render_html(report)
        assert html.lstrip().lower().startswith("<!doctype html")
        assert report.result_digest() in html
        assert "straggler" in html
