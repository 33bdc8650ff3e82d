"""Tests of the instrumentation layer (memory tracker + interceptor)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.records import (
    CHANNEL_COLLECTIVE,
    CollOp,
    CpuBurst,
    Event,
    GlobalOp,
    IRecv,
    ISend,
    Recv,
    Send,
    Wait,
)
from repro.trace.validate import validate
from repro.tracer import Clock, MemoryTracker, run_traced
from repro.tracer.timestamps import DEFAULT_MIPS


class TestClock:
    def test_seconds(self):
        assert Clock(1000.0).seconds(1_000_000) == pytest.approx(1e-3)

    def test_instructions(self):
        assert Clock(1000.0).instructions(2e-3) == 2_000_000

    def test_default_mips_is_paper_cpu(self):
        assert DEFAULT_MIPS == 2300.0

    def test_invalid_mips(self):
        with pytest.raises(ValueError):
            Clock(0.0)


class TestMemoryTracker:
    def setup_method(self):
        self.clock = Clock(1000.0)
        self.mt = MemoryTracker(self.clock)
        self.buf = np.zeros(8)

    def test_untracked_types_ignored(self):
        assert self.mt.lookup(3.14) is None
        assert self.mt.lookup([1, 2]) is None
        self.mt.record_stores([1, 2], [0], None, 0, 100)  # no-op, no raise

    def test_last_store_wins(self):
        self.mt.record_stores(self.buf, [2], np.array([0.5]), 0, 1000)
        self.mt.record_stores(self.buf, [2], np.array([0.1]), 1000, 1000)
        p = self.mt.close_production(self.buf, 2000)
        # second batch: absolute icount 1100 > 500 from the first
        assert p.times[2] == pytest.approx(self.clock.seconds(1100))

    def test_untouched_elements_are_nan(self):
        self.mt.record_stores(self.buf, [0], None, 0, 10)
        p = self.mt.close_production(self.buf, 10)
        assert np.isnan(p.times[1:]).all()

    def test_production_interval_resets(self):
        self.mt.record_stores(self.buf, [0], None, 0, 100)
        self.mt.close_production(self.buf, 100)
        p2 = self.mt.close_production(self.buf, 300)
        assert p2.interval_start == pytest.approx(self.clock.seconds(100))
        assert np.isnan(p2.times).all()

    def test_first_load_wins(self):
        rec = Recv(peer=0, tag=0, size=64)
        self.mt.note_recv(self.buf, rec, 0)
        self.mt.record_loads(self.buf, [3], np.array([0.5]), 0, 100)
        self.mt.record_loads(self.buf, [3], np.array([0.9]), 100, 100)
        self.mt.finalize(500)
        assert rec.consumption.times[3] == pytest.approx(self.clock.seconds(50))

    def test_consumption_patched_on_next_recv(self):
        r1, r2 = Recv(peer=0, tag=0, size=64), Recv(peer=0, tag=0, size=64)
        self.mt.note_recv(self.buf, r1, 0)
        self.mt.record_loads(self.buf, [0], None, 0, 100)
        self.mt.note_recv(self.buf, r2, 200)
        assert r1.consumption is not None
        assert r1.consumption.interval_end == pytest.approx(self.clock.seconds(200))
        assert r2.consumption is None

    def test_out_of_range_offsets_rejected(self):
        with pytest.raises(IndexError):
            self.mt.record_stores(self.buf, [8], None, 0, 10)
        with pytest.raises(IndexError):
            self.mt.record_loads(self.buf, [-1], None, 0, 10)

    def test_bad_positions_rejected(self):
        with pytest.raises(ValueError):
            self.mt.record_stores(self.buf, [0], np.array([1.5]), 0, 10)
        with pytest.raises(ValueError):
            self.mt.record_stores(self.buf, [0, 1], np.array([0.5]), 0, 10)

    def test_default_placement_stores_end_loads_start(self):
        self.mt.record_stores(self.buf, np.arange(8), None, 0, 800)
        p = self.mt.close_production(self.buf, 800)
        # store defaults: (i+1)/n of the burst
        assert p.times[-1] == pytest.approx(self.clock.seconds(800))
        rec = Recv(peer=0, tag=0, size=64)
        self.mt.note_recv(self.buf, rec, 800)
        self.mt.record_loads(self.buf, np.arange(8), None, 800, 800)
        self.mt.finalize(1600)
        assert rec.consumption.times[0] == pytest.approx(self.clock.seconds(800))

    def test_send_reads_buffer(self):
        """A send of a received buffer counts as consuming it."""
        rec = Recv(peer=0, tag=0, size=64)
        self.mt.note_recv(self.buf, rec, 100)
        self.mt.note_send_reads(self.buf, 150)
        self.mt.finalize(400)
        assert np.allclose(rec.consumption.times, self.clock.seconds(150))

    def test_streams_recorded_on_demand(self):
        mt = MemoryTracker(self.clock, record_streams=True)
        buf = np.zeros(4)
        mt.record_stores(buf, [0, 1], np.array([0.2, 0.4]), 0, 100)
        mt.record_stores(buf, [0], np.array([0.9]), 100, 100)
        p = mt.close_production(buf, 200)
        offs, times = p.stream
        assert offs.tolist() == [0, 1, 0]
        assert len(times) == 3

    def test_no_streams_by_default(self):
        self.mt.record_stores(self.buf, [0], None, 0, 10)
        p = self.mt.close_production(self.buf, 10)
        assert p.stream is None


@st.composite
def _batches(draw):
    """A buffer size, a sequence of access batches on it and the time
    they end: ``(kind, at, start, instructions)`` whole-buffer batches,
    with partial ``("partial-" + kind, offsets, at, ...)`` ones and
    interval ends (``("send" | "recv", now)``) in between."""
    n = draw(st.integers(1, 40))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    ops = []
    now = 0
    for _ in range(draw(st.integers(1, 12))):
        choice = draw(st.sampled_from(("store", "load", "partial-store",
                                       "partial-load", "send", "recv")))
        instructions = draw(st.integers(0, 10_000))
        if choice in ("send", "recv"):
            ops.append((choice, now))
        elif choice.startswith("partial-"):
            offs = draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=2 * n))
            at = np.array(draw(st.lists(unit, min_size=len(offs),
                                        max_size=len(offs))))
            ops.append((choice, np.array(offs), at, now, instructions))
        else:
            at = draw(st.one_of(st.none(), st.lists(
                unit, min_size=n, max_size=n).map(np.array)))
            ops.append((choice, at, now, instructions))
        now += instructions
    return n, ops, now


def _drive(n, ops, end, whole, record_streams):
    """Apply ``ops`` to a fresh tracker; a whole-buffer batch goes in
    with ``offsets=None`` when ``whole`` is set and as explicit
    ``arange`` offsets otherwise.  Returns the shadow bytes after every
    op and every profile emitted."""
    mt = MemoryTracker(Clock(1000.0), record_streams=record_streams)
    buf = np.zeros(n)
    state = mt.lookup(buf)
    recvs, profiles, shadows = [], [], []
    for op in ops:
        kind = op[0]
        if kind == "send":
            profiles.append(mt.close_production(buf, op[1]))
        elif kind == "recv":
            recvs.append(Recv(peer=0, tag=0, size=8 * n))
            mt.note_recv(buf, recvs[-1], op[1])
        elif kind.startswith("partial-"):
            record = (mt.record_stores if kind == "partial-store"
                      else mt.record_loads)
            record(buf, *op[1:])
        else:
            _, at, start, instructions = op
            offsets = None if whole else np.arange(n)
            record = mt.record_stores if kind == "store" else mt.record_loads
            record(buf, offsets, at, start, instructions)
        shadows.append((state.last_store.tobytes(), state.first_load.tobytes()))
    mt.finalize(end)
    profiles.extend(r.consumption for r in recvs if r.consumption is not None)
    return shadows, profiles


def _profile_bytes(p):
    stream = None if p.stream is None else tuple(
        (a.dtype.str, a.tobytes()) for a in p.stream)
    return (p.kind, p.times.tobytes(), p.interval_start, p.interval_end,
            stream)


class TestWholeBufferBatches:
    """``offsets=None`` is the whole buffer in order: the same bytes as
    explicit ``arange`` offsets through the scatter path."""

    @settings(max_examples=150, deadline=None)
    @given(case=_batches(), record_streams=st.booleans())
    def test_same_bytes_as_explicit_offsets(self, case, record_streams):
        got = _drive(*case, whole=True, record_streams=record_streams)
        want = _drive(*case, whole=False, record_streams=record_streams)
        assert got[0] == want[0]
        assert ([_profile_bytes(p) for p in got[1]]
                == [_profile_bytes(p) for p in want[1]])

    def test_positions_checked(self):
        mt = MemoryTracker(Clock(1000.0))
        buf = np.zeros(4)
        with pytest.raises(ValueError):
            mt.record_stores(buf, None, np.array([0.5, 0.5]), 0, 10)
        with pytest.raises(ValueError):
            mt.record_loads(buf, None, np.array([0.1, 0.2, 0.3, 1.5]), 0, 10)

    def test_empty_buffer_is_a_no_op(self):
        mt = MemoryTracker(Clock(1000.0), record_streams=True)
        buf = np.zeros(0)
        mt.record_stores(buf, None, None, 0, 10)
        p = mt.close_production(buf, 10)
        assert p.times.size == 0 and p.stream[0].size == 0


def _read_only(values) -> np.ndarray:
    at = np.array(values, dtype=np.float64)
    at.flags.writeable = False
    return at


class TestCheckedPositions:
    """A read-only ``at`` is range-checked once; every check still
    raises with its message."""

    def test_bad_read_only_positions_raise_every_time(self):
        mt = MemoryTracker(Clock(1000.0))
        buf = np.zeros(3)
        at = _read_only([0.1, 0.2, 1.5])
        for _ in range(2):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                mt.record_stores(buf, None, at, 0, 10)

    def test_checked_positions_still_shape_checked(self):
        mt = MemoryTracker(Clock(1000.0))
        at = _read_only([0.25, 0.5, 0.75])
        mt.record_stores(np.zeros(3), None, at, 0, 10)
        with pytest.raises(ValueError, match="shape mismatch"):
            mt.record_stores(np.zeros(4), None, at, 0, 10)
        with pytest.raises(ValueError, match="shape mismatch"):
            mt.record_loads(np.zeros(2), [0, 1], at, 0, 10)

    def test_writable_positions_checked_on_every_call(self):
        mt = MemoryTracker(Clock(1000.0))
        buf = np.zeros(2)
        at = np.array([0.5, 0.5])
        mt.record_stores(buf, None, at, 0, 10)
        at[1] = -0.5
        with pytest.raises(ValueError, match="must lie in"):
            mt.record_stores(buf, None, at, 10, 10)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1,
                        max_size=12),
        bursts=st.lists(st.tuples(st.integers(0, 1000),
                                  st.sampled_from((7, 10, 10_000))),
                        min_size=1, max_size=6),
    )
    def test_checked_positions_give_the_same_bytes(self, values, bursts):
        """One read-only array passed on every call records what fresh
        writable copies record, whatever the burst lengths."""
        at = _read_only(values)
        got, want = (MemoryTracker(Clock(1000.0), record_streams=True)
                     for _ in range(2))
        bufs = {id(mt): np.zeros(len(values)) for mt in (got, want)}
        now = 0
        for gap, instructions in bursts:
            now += gap
            for mt, positions in ((got, at), (want, np.array(values))):
                buf = bufs[id(mt)]
                mt.record_stores(buf, None, positions, now, instructions)
                mt.record_loads(buf, None, positions, now, instructions)
            now += instructions
        a, b = (mt.lookup(bufs[id(mt)]) for mt in (got, want))
        assert a.last_store.tobytes() == b.last_store.tobytes()
        assert a.first_load.tobytes() == b.first_load.tobytes()
        assert ([t.tobytes() for _o, t in a.store_stream]
                == [t.tobytes() for _o, t in b.store_stream])

    def test_read_only_view_of_writable_memory_checked_every_call(self):
        mt = MemoryTracker(Clock(1000.0))
        buf = np.zeros(2)
        memory = np.array([0.5, 0.5])
        view = memory.view()
        view.flags.writeable = False
        mt.record_stores(buf, None, view, 0, 10)
        memory[0] = 3.0
        with pytest.raises(ValueError, match="must lie in"):
            mt.record_stores(buf, None, view, 10, 10)

    def test_a_new_array_at_a_reused_id_is_checked(self):
        mt = MemoryTracker(Clock(1000.0))
        buf = np.zeros(2)
        mt.record_stores(buf, None, _read_only([0.5, 0.5]), 0, 10)
        # The first array is gone; the next may take its id.
        for _ in range(8):
            with pytest.raises(ValueError, match="must lie in"):
                mt.record_stores(buf, None, _read_only([0.5, 2.0]), 0, 10)

    def test_skeleton_positions_are_read_only(self):
        from repro.apps.patterns import (consumption_batches,
                                         production_batches, scalar_at)
        batches = (production_batches(8, [(0, 0.2), (1, 1)], revisits=2)
                   + consumption_batches(8, [(0, 0), (1, 0.5)], rereads=2))
        assert not any(at.flags.writeable for _o, at in batches)
        assert not scalar_at(0.5).flags.writeable


class TestTracingEndToEnd:
    def test_record_sequence_single_rank(self):
        def app(comm):
            comm.event("phase", 1)
            comm.compute(1000)
            comm.compute(500)
        run = run_traced(app, 1, mips=1000.0)
        types = [type(r) for r in run.trace[0]]
        # Back-to-back computes coalesce into one maximal burst at
        # trace-build time (replay hot-path invariant).
        assert types == [Event, CpuBurst]
        assert run.trace[0][1].duration == pytest.approx(1.5e-6)
        assert run.trace[0][1].instructions == 1500

    def test_send_recv_records_and_profiles(self):
        buf = {}
        def app(comm):
            out = np.zeros(4)
            if comm.rank == 0:
                comm.compute(100, stores=[(out, np.arange(4))])
                comm.send(out, 1, tag=9)
            else:
                inb = np.zeros(4)
                comm.Recv(inb, 0, tag=9)
                comm.compute(100, loads=[(inb, np.arange(4))])
        tr = run_traced(app, 2, mips=1000.0).trace
        send = next(r for r in tr[0] if isinstance(r, Send))
        recv = next(r for r in tr[1] if isinstance(r, Recv))
        assert send.tag == 9 and send.size == 32 and send.elements == 4
        assert send.production is not None
        assert recv.consumption is not None  # flushed at on_finish
        assert recv.meta["buf"] == send.meta["buf"] or True  # ids differ per rank

    def test_irecv_record_patched(self):
        def app(comm):
            if comm.rank == 0:
                comm.send(np.ones(3), 1, tag=4)
            else:
                b = np.zeros(3)
                req = comm.Irecv(b, 0, tag=4)
                comm.wait(req)
        tr = run_traced(app, 2).trace
        ir = next(r for r in tr[1] if isinstance(r, IRecv))
        w = next(r for r in tr[1] if isinstance(r, Wait))
        assert ir.size == 24 and ir.peer == 0 and ir.elements == 3
        assert w.requests == (ir.request,)

    def test_collectives_decomposed_on_collective_channel(self):
        def app(comm):
            comm.allreduce(1.0)
        tr = run_traced(app, 4).trace
        sends = [r for p in tr for r in p if isinstance(r, (Send, ISend))]
        assert sends and all(s.channel == CHANNEL_COLLECTIVE for s in sends)
        assert not any(isinstance(r, GlobalOp) for p in tr for r in p)

    def test_collectives_analytic_mode(self):
        def app(comm):
            comm.allreduce(1.0)
            comm.barrier()
        tr = run_traced(app, 4, decompose_collectives=False).trace
        for p in tr:
            ops = [r.op for r in p if isinstance(r, GlobalOp)]
            assert ops == [CollOp.ALLREDUCE, CollOp.BARRIER]
            assert not any(isinstance(r, (Send, Recv)) for r in p)

    def test_trace_validates_strictly(self, pipeline_trace):
        validate(pipeline_trace, strict=True)

    def test_trace_meta(self):
        run = run_traced(lambda c: None, 2, mips=500.0, meta={"app": "x"})
        assert run.trace.meta["mips"] == 500.0
        assert run.trace.meta["app"] == "x"
        assert run.trace.meta["nranks"] == 2

    def test_results_returned(self):
        run = run_traced(lambda c: c.rank + 1, 3)
        assert run.results == [1, 2, 3]

    def test_tracing_is_deterministic(self):
        from repro.trace import dim
        from tests.conftest import make_pipeline_app
        a = dim.dumps(run_traced(make_pipeline_app(), 3).trace)
        b = dim.dumps(run_traced(make_pipeline_app(), 3).trace)
        assert a == b
