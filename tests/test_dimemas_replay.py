"""Replay semantics: hand-computed reconstruction timings."""

import pytest

from repro.audit.certify import result_digest
from repro.dimemas import replay as replay_mod
from repro.dimemas.machine import MachineConfig
from repro.dimemas.postmortem import BlockedOp
from repro.dimemas.replay import DeadlockError, ReplayError, simulate
from repro.dimemas.results import MessageFlight, SimResult
from repro.experiments.pipeline import AppExperiment
from repro.trace.columnar import OP_CPU, ROW_DEFAULTS, _TYPECODES, columnar_of
from repro.trace.records import (
    CollOp,
    CpuBurst,
    Event,
    GlobalOp,
    IRecv,
    ISend,
    ProcessTrace,
    Recv,
    Send,
    TraceSet,
    Wait,
)

#: 100 MB/s, 10 us latency: 1000 bytes = 10 us wire + 10 us latency.
CFG = MachineConfig(bandwidth_mbps=100.0, latency=10e-6)
US = 1e-6


def ts(*rank_records) -> TraceSet:
    return TraceSet([ProcessTrace(r, list(recs))
                     for r, recs in enumerate(rank_records)])


class TestElementaryTiming:
    def test_pure_compute(self):
        res = simulate(ts([CpuBurst(100 * US)]), CFG)
        assert res.duration == pytest.approx(100 * US)
        assert res.states[0] == [("Running", 0.0, pytest.approx(100 * US))]

    def test_cpu_ratio_scales_bursts(self):
        cfg = MachineConfig(cpu_ratio=2.0)
        res = simulate(ts([CpuBurst(100 * US)]), cfg)
        assert res.duration == pytest.approx(200 * US)

    def test_eager_send_costs_sender_nothing(self):
        res = simulate(ts(
            [CpuBurst(100 * US), Send(peer=1, tag=0, size=1000)],
            [Recv(peer=0, tag=0, size=1000)],
        ), CFG)
        assert res.rank_end[0] == pytest.approx(100 * US)
        # receiver: send at 100, +10 wire, +10 latency
        assert res.rank_end[1] == pytest.approx(120 * US)
        assert res.time_in_state("Waiting a message", 1) == pytest.approx(120 * US)

    def test_rendezvous_send_blocks_until_delivery(self):
        res = simulate(ts(
            [CpuBurst(100 * US), Send(peer=1, tag=0, size=1000, rendezvous=True)],
            [Recv(peer=0, tag=0, size=1000)],
        ), CFG)
        assert res.rank_end[0] == pytest.approx(120 * US)
        assert res.time_in_state("Send", 0) == pytest.approx(20 * US)

    def test_rendezvous_waits_for_late_receiver(self):
        res = simulate(ts(
            [Send(peer=1, tag=0, size=1000, rendezvous=True)],
            [CpuBurst(500 * US), Recv(peer=0, tag=0, size=1000)],
        ), CFG)
        # transfer starts when the recv is posted at 500
        assert res.rank_end[0] == pytest.approx(520 * US)
        assert res.rank_end[1] == pytest.approx(520 * US)

    def test_eager_threshold_selects_protocol(self):
        cfg = MachineConfig(bandwidth_mbps=100.0, latency=10e-6,
                            eager_threshold=500)
        res = simulate(ts(
            [Send(peer=1, tag=0, size=1000)],     # > threshold: rendezvous
            [CpuBurst(300 * US), Recv(peer=0, tag=0, size=1000)],
        ), cfg)
        assert res.rank_end[0] == pytest.approx(320 * US)

    def test_message_already_arrived_costs_nothing(self):
        res = simulate(ts(
            [Send(peer=1, tag=0, size=1000)],
            [CpuBurst(500 * US), Recv(peer=0, tag=0, size=1000)],
        ), CFG)
        assert res.rank_end[1] == pytest.approx(500 * US)
        assert res.time_in_state("Waiting a message", 1) == 0.0

    def test_isend_wait_is_buffered(self):
        res = simulate(ts(
            [ISend(peer=1, tag=0, size=1000, request=1), Wait((1,)),
             CpuBurst(5 * US)],
            [Recv(peer=0, tag=0, size=1000)],
        ), CFG)
        assert res.rank_end[0] == pytest.approx(5 * US)

    def test_irecv_wait_blocks_until_arrival(self):
        res = simulate(ts(
            [CpuBurst(100 * US), Send(peer=1, tag=0, size=1000)],
            [IRecv(peer=0, tag=0, size=1000, request=1), CpuBurst(50 * US),
             Wait((1,))],
        ), CFG)
        assert res.rank_end[1] == pytest.approx(120 * US)
        assert res.time_in_state("Wait/WaitAll", 1) == pytest.approx(70 * US)

    def test_waitall_completes_at_last_arrival(self):
        res = simulate(ts(
            [CpuBurst(100 * US), Send(peer=2, tag=0, size=1000)],
            [CpuBurst(300 * US), Send(peer=2, tag=0, size=1000)],
            [IRecv(peer=0, tag=0, size=1000, request=1),
             IRecv(peer=1, tag=0, size=1000, request=2),
             Wait((1, 2))],
        ), CFG)
        assert res.rank_end[2] == pytest.approx(320 * US)

    def test_events_timestamped(self):
        res = simulate(ts([CpuBurst(10 * US), Event("mark", 7)]), CFG)
        assert res.events[0] == [(pytest.approx(10 * US), "mark", 7)]


class TestPipelines:
    def test_three_stage_pipeline_fill(self):
        """Each hop adds wire+latency; compute overlaps downstream."""
        chain = ts(
            [CpuBurst(100 * US), Send(peer=1, tag=0, size=1000)],
            [Recv(peer=0, tag=0, size=1000), CpuBurst(100 * US),
             Send(peer=2, tag=0, size=1000)],
            [Recv(peer=1, tag=0, size=1000), CpuBurst(100 * US)],
        )
        res = simulate(chain, CFG)
        # 100 + 20 + 100 + 20 + 100
        assert res.duration == pytest.approx(340 * US)

    def test_messages_reported(self):
        res = simulate(ts(
            [Send(peer=1, tag=5, size=1000)],
            [Recv(peer=0, tag=5, size=1000)],
        ), CFG)
        (m,) = res.messages
        assert (m.src, m.dst, m.tag, m.size) == (0, 1, 5, 1000)
        assert m.t_recv == pytest.approx(20 * US)
        assert m.flight_time == pytest.approx(20 * US)
        assert m.queue_delay == 0.0


class TestCollectivesAnalytic:
    def test_barrier_synchronizes(self):
        res = simulate(ts(
            [CpuBurst(100 * US), GlobalOp(op=CollOp.BARRIER, seq=1)],
            [CpuBurst(300 * US), GlobalOp(op=CollOp.BARRIER, seq=1)],
        ), CFG)
        # cost = 2 * log2(2) * latency = 20 us after the slowest entry
        assert res.rank_end[0] == pytest.approx(320 * US)
        assert res.rank_end[1] == pytest.approx(320 * US)
        assert res.time_in_state("Group communication", 0) == pytest.approx(220 * US)

    def test_allreduce_cost_scales_with_size(self):
        g = lambda: GlobalOp(op=CollOp.ALLREDUCE, send_size=1000,
                             recv_size=1000, seq=1)
        res = simulate(ts([g()], [g()]), CFG)
        # 2 * log2(2) * (10 us + 10 us) = 40 us
        assert res.duration == pytest.approx(40 * US)

    def test_single_rank_collective_free(self):
        res = simulate(ts([GlobalOp(op=CollOp.BCAST, seq=1)]), CFG)
        assert res.duration == pytest.approx(0.0)


class TestStallDetection:
    def test_rendezvous_cycle_detected(self):
        cyc = ts(
            [Send(peer=1, tag=0, size=1000, rendezvous=True),
             Recv(peer=1, tag=0, size=1000)],
            [Send(peer=0, tag=0, size=1000, rendezvous=True),
             Recv(peer=0, tag=0, size=1000)],
        )
        with pytest.raises(ReplayError, match="stalled"):
            simulate(cyc, CFG)

    def test_missing_collective_partner_detected(self):
        bad = ts(
            [GlobalOp(op=CollOp.BARRIER, seq=1)],
            [CpuBurst(1 * US)],
        )
        with pytest.raises(ReplayError):
            simulate(bad, CFG)


class TestDeterminism:
    def test_replay_is_reproducible(self, pipeline_trace, machine):
        a = simulate(pipeline_trace, machine)
        b = simulate(pipeline_trace, machine)
        assert a.duration == b.duration
        assert a.states == b.states
        assert a.messages == b.messages


class TestResolvedWaits:
    """A Wait's requests are resolved to pairs once per trace and eager
    threshold; the replay and its post-mortem read that resolution."""

    def _stall(self, trace) -> DeadlockError:
        with pytest.raises(DeadlockError) as info:
            simulate(trace, CFG)
        return info.value

    def test_wait_on_unmatched_isend_blocks(self):
        err = self._stall(ts(
            [ISend(peer=1, tag=0, size=1000, request=7), Wait((7,))],
            [CpuBurst(1 * US)],
        ))
        assert err.report.blocked == [BlockedOp(
            rank=0, op="Wait", record_index=1, state="Wait/WaitAll",
            detail="request(s) [7] were never posted",
        )]
        assert "rank 0: blocked in Wait at record 1  request(s) [7] " \
            "were never posted" in str(err)

    def test_wait_on_unmatched_irecv_blocks(self):
        err = self._stall(ts(
            [CpuBurst(1 * US)],
            [IRecv(peer=0, tag=0, size=1000, request=3), Wait((3,))],
        ))
        assert err.report.blocked == [BlockedOp(
            rank=1, op="Wait", record_index=1, state="Wait/WaitAll",
            detail="request(s) [3] were never posted",
        )]

    def test_dangling_wait_still_names_its_pending_peer(self):
        # Request 1 pairs with a send rank 1 never reaches; request 2
        # pairs with nothing.
        err = self._stall(ts(
            [IRecv(peer=1, tag=0, size=1000, request=1),
             IRecv(peer=2, tag=9, size=1000, request=2), Wait((1, 2))],
            [Recv(peer=0, tag=3, size=1000), Send(peer=0, tag=0, size=1000)],
            [CpuBurst(1 * US)],
        ))
        assert err.report.blocked[0] == BlockedOp(
            rank=0, op="Wait", record_index=2, state="Wait/WaitAll",
            waiting_on=(1,), detail="request(s) [2] were never posted",
        )
        assert "rank 0: blocked in Wait at record 2  waiting on rank(s) 1" \
            "  request(s) [2] were never posted" in str(err)

    def _isend_wait(self, **platform) -> SimResult:
        cfg = MachineConfig(bandwidth_mbps=100.0, latency=10e-6, **platform)
        return simulate(ts(
            [ISend(peer=1, tag=0, size=1000, request=1), Wait((1,)),
             CpuBurst(5 * US)],
            [Recv(peer=0, tag=0, size=1000)],
        ), cfg)

    def test_wait_on_eager_isend_completes_at_once(self):
        res = self._isend_wait()
        assert res.rank_end[0] == pytest.approx(5 * US)
        assert res.time_in_state("Wait/WaitAll", 0) == 0.0

    def test_wait_on_rendezvous_isend_blocks_until_delivery(self):
        res = self._isend_wait(eager_threshold=0)
        # The receive is posted at 0: 10 us wire + 10 us latency.
        assert res.time_in_state("Wait/WaitAll", 0) == pytest.approx(20 * US)
        assert res.rank_end[0] == pytest.approx(25 * US)

    def test_thresholds_alternate_on_one_plan(self):
        # A ring of non-blocking exchanges: under the 1500-byte
        # threshold the 1000-byte sends are eager and the 2000-byte
        # ones rendezvous; under 0 every send is rendezvous.
        ring = []
        for r in range(3):
            nxt, prv = (r + 1) % 3, (r - 1) % 3
            ring.append([
                CpuBurst((10 + 20 * r) * US),
                IRecv(peer=prv, tag=0, size=1000, request=1),
                IRecv(peer=prv, tag=1, size=2000, request=2),
                ISend(peer=nxt, tag=0, size=1000, request=3),
                ISend(peer=nxt, tag=1, size=2000, request=4),
                CpuBurst(5 * US), Wait((3, 1)), CpuBurst(5 * US),
                Wait((2, 4)),
            ])
        col = columnar_of(ts(*ring))
        cfgs = [MachineConfig(bandwidth_mbps=100.0, latency=10e-6,
                              eager_threshold=k) for k in (1500, 0)]
        fresh = []
        for cfg in cfgs:
            replay_mod._plan_lru.pop(col.digest, None)
            fresh.append(result_digest(simulate(col, cfg)))
        assert fresh[0] != fresh[1]
        for _ in range(2):
            for cfg, want in zip(cfgs, fresh):
                assert result_digest(simulate(col, cfg)) == want
        plan = replay_mod._plan_lru[col.digest]
        assert sorted(plan._wait_cache) == [0, 1500]


class TestMessageFlight:
    def test_immutable_and_hashable(self):
        m = MessageFlight(src=0, dst=1, t_send=1.0, t_start=1.5,
                          t_recv=2.0, size=8, tag=3)
        with pytest.raises(AttributeError):
            m.src = 2
        assert hash(m) == hash(MessageFlight(0, 1, 1.0, 1.5, 2.0, 8, 3))
        assert len({m, MessageFlight(**m._asdict())}) == 1

    def test_result_round_trips_through_dict(self, pipeline_trace, machine):
        res = simulate(pipeline_trace, machine)
        assert res.messages
        assert SimResult.from_dict(res.to_dict()) == res


def reference_coalesce(col):
    """Adjacent bursts merged row by row: durations added left to
    right, instruction counts summed (-1 once one is unknown), every
    other column of a merged row at its ``ROW_DEFAULTS`` value; and per
    rank the new index of every old row."""
    ranks, renumber = [], []
    for rc in col.ranks:
        rows, new_index = [], []
        for i in range(rc.n):
            row = {name: getattr(rc, name)[i] for name in _TYPECODES}
            last = rows[-1] if rows else None
            if row["op"] == OP_CPU and last is not None and last["op"] == OP_CPU:
                instr = (last["instr"] + row["instr"]
                         if last["instr"] >= 0 and row["instr"] >= 0 else -1)
                rows[-1] = {"op": OP_CPU, **ROW_DEFAULTS,
                            "dur": last["dur"] + row["dur"], "instr": instr}
            else:
                rows.append(row)
            new_index.append(len(rows) - 1)
        ranks.append(rows)
        renumber.append(new_index)
    return ranks, renumber


class TestCoalesce:
    """Adjacent CpuBursts merge into one row before replay, every
    column of the layout carried (``trace/columnar.py``)."""

    def check(self, col):
        out, renumber = replay_mod._coalesce_columnar(col)
        want, want_renumber = reference_coalesce(col)
        assert [list(r) for r in renumber] == want_renumber
        for rc, old, rows in zip(out.ranks, col.ranks, want):
            assert rc.n == len(rows)
            for name in _TYPECODES:
                assert list(getattr(rc, name)) == [row[name] for row in rows], name
            assert (rc.waits, rc.events, rc.colls) == (old.waits, old.events, old.colls)
        return out

    def test_adjacent_bursts_merge(self):
        tiny = [CpuBurst(1e-16, instructions=1) for _ in range(10)]
        col = columnar_of(ts(
            [CpuBurst(0.1, instructions=10), CpuBurst(0.2, instructions=20),
             CpuBurst(0.3, instructions=None), Send(peer=1, tag=0, size=8),
             CpuBurst(1.0, instructions=3), *tiny],
            [],
            [CpuBurst(0.5), Recv(peer=0, tag=0, size=8), Event("phase", 1),
             CpuBurst(0.25, instructions=4), CpuBurst(0.5, instructions=4)],
        ))
        out = self.check(col)
        assert out is not col
        # Left to right: (0.1 + 0.2) + 0.3, and ten 1e-16 lost in 1.0 one
        # at a time (a pairwise sum would keep some of them).
        assert out.ranks[0].dur[0] == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)
        assert out.ranks[0].instr[0] == -1
        assert out.ranks[0].dur[2] == 1.0
        assert out.ranks[0].instr[2] == 13
        assert out.ranks[1].n == 0
        assert list(out.ranks[2].instr) == [-1, -1, -1, 8]

    def test_burst_maximal_columns_are_kept(self):
        col = columnar_of(ts(
            [CpuBurst(0.1), Send(peer=1, tag=0, size=8), CpuBurst(0.2)],
            [Recv(peer=0, tag=0, size=8)],
        ))
        out, renumber = replay_mod._coalesce_columnar(col)
        assert out is col
        assert [list(r) for r in renumber] == [[0, 1, 2], [0]]

    def test_overlapped_sweep3d(self):
        # The overlap transform leaves adjacent burst pieces in Sweep3D.
        col = AppExperiment("sweep3d", nranks=8).trace("real")
        out = self.check(col)
        assert out.total_records() < col.total_records()
