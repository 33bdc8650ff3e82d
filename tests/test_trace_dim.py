"""Serialization tests of the Dimemas-dialect trace format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import dim
from repro.trace.records import (
    AccessProfile,
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


def roundtrip(ts: TraceSet) -> TraceSet:
    return dim.loads(dim.dumps(ts))


def make_full_trace() -> TraceSet:
    prod = AccessProfile(
        kind="production", times=np.array([0.1, np.nan, 0.3]),
        interval_start=0.0, interval_end=0.5,
    )
    cons = AccessProfile(
        kind="consumption", times=np.array([0.6, 0.7, np.nan]),
        interval_start=0.5, interval_end=1.0,
    )
    p0 = ProcessTrace(0, [
        Event("iteration", 0),
        CpuBurst(0.5, instructions=1000),
        Send(peer=1, tag=3, size=24, elements=3, production=prod),
        ISend(peer=1, tag=4, size=8, elements=1, request=1, rendezvous=False),
        Wait((1,)),
        GlobalOp(op=CollOp.ALLREDUCE, root=0, send_size=8, recv_size=8, seq=1),
    ])
    p1 = ProcessTrace(1, [
        IRecv(peer=0, tag=4, size=8, elements=1, request=2),
        Recv(peer=0, tag=3, size=24, elements=3, consumption=cons),
        Wait((2,)),
        CpuBurst(0.25),
        GlobalOp(op=CollOp.ALLREDUCE, root=0, send_size=8, recv_size=8, seq=1),
    ])
    return TraceSet([p0, p1], meta={"app": "test", "mips": 1000.0})


class TestRoundTrip:
    def test_identity_on_full_trace(self):
        ts = make_full_trace()
        assert dim.dumps(roundtrip(ts)) == dim.dumps(ts)

    def test_meta_preserved(self):
        ts = roundtrip(make_full_trace())
        assert ts.meta["app"] == "test" and ts.meta["mips"] == 1000.0

    def test_profile_values_preserved_exactly(self):
        ts = roundtrip(make_full_trace())
        send = ts[0][2]
        assert isinstance(send, Send)
        times = send.production.times
        assert times[0] == 0.1 and np.isnan(times[1]) and times[2] == 0.3
        assert send.production.interval_end == 0.5

    def test_consumption_attaches_to_recv(self):
        ts = roundtrip(make_full_trace())
        recv = ts[1][1]
        assert isinstance(recv, Recv) and recv.consumption is not None
        assert recv.consumption.kind == "consumption"

    def test_rendezvous_flag_tristate(self):
        for rv in (None, True, False):
            ts = TraceSet([ProcessTrace(0, [Send(peer=0, tag=0, size=1, rendezvous=rv)])])
            assert roundtrip(ts)[0][0].rendezvous is rv

    def test_numpy_scalars_serializable(self):
        ts = TraceSet([ProcessTrace(0, [CpuBurst(np.float64(0.125))])])
        assert roundtrip(ts)[0][0].duration == 0.125

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.dim"
        ts = make_full_trace()
        dim.dump(ts, path)
        assert dim.dumps(dim.load(path)) == dim.dumps(ts)


class TestErrors:
    def test_missing_magic(self):
        with pytest.raises(dim.TraceFormatError, match="magic"):
            dim.loads("B:1.0:-\n")

    def test_record_before_process(self):
        with pytest.raises(dim.TraceFormatError):
            dim.loads("#DIMEMAS-REPRO:1\nB:1.0:-\n")

    def test_unknown_record_kind(self):
        with pytest.raises(dim.TraceFormatError, match="unknown"):
            dim.loads("#DIMEMAS-REPRO:1\nP:0\nZZ:1:2\n")

    def test_malformed_fields(self):
        with pytest.raises(dim.TraceFormatError):
            dim.loads("#DIMEMAS-REPRO:1\nP:0\nS:0:0\n")

    def test_bad_rendezvous_flag(self):
        with pytest.raises(dim.TraceFormatError):
            dim.loads("#DIMEMAS-REPRO:1\nP:0\nS:0:0:8:0:0:1:0:x\n")

    def test_orphan_profile_line(self):
        text = "#DIMEMAS-REPRO:1\nP:0\nB:1.0:-\nAP:production:0.0:1.0:0:\n"
        with pytest.raises(dim.TraceFormatError, match="attach"):
            dim.loads(text)

    def test_second_profile_of_one_kind_rejected(self):
        import base64
        lines = ["#DIMEMAS-REPRO:1", "P:0", "S:0:0:8:0:0:1:0:-"]
        for value in (0.25, 0.75):
            payload = base64.b64encode(np.array([value]).tobytes()).decode()
            lines.append(f"AP:production:0.0:1.0:1:{payload}")
        with pytest.raises(dim.TraceFormatError,
                           match=r"line 5: second AP:production line"):
            dim.loads("\n".join(lines) + "\n")
        kept = dim.loads("\n".join(lines[:4]) + "\n")
        assert kept[0][0].production.times.tolist() == [0.25]

    def test_profile_count_mismatch(self):
        import base64
        payload = base64.b64encode(np.zeros(2).tobytes()).decode()
        text = (
            "#DIMEMAS-REPRO:1\nP:0\nS:0:0:8:0:0:1:0:-\n"
            f"AP:production:0.0:1.0:3:{payload}\n"
        )
        with pytest.raises(dim.TraceFormatError, match="mismatch"):
            dim.loads(text)

    def test_empty_trace_rejected(self):
        with pytest.raises(dim.TraceFormatError, match="no processes"):
            dim.loads("#DIMEMAS-REPRO:1\n")


@st.composite
def random_process(draw, rank: int):
    n = draw(st.integers(0, 12))
    recs = []
    req = 0
    pending = []
    for _ in range(n):
        kind = draw(st.sampled_from(["B", "S", "R", "IS", "E"]))
        if kind == "B":
            recs.append(CpuBurst(draw(st.floats(0, 1e-3, allow_nan=False))))
        elif kind == "S":
            recs.append(Send(peer=draw(st.integers(0, 3)),
                             tag=draw(st.integers(0, 9)),
                             size=draw(st.integers(0, 4096))))
        elif kind == "R":
            recs.append(Recv(peer=draw(st.integers(0, 3)),
                             tag=draw(st.integers(0, 9)),
                             size=draw(st.integers(0, 4096))))
        elif kind == "IS":
            req += 1
            recs.append(ISend(peer=0, tag=0, size=8, request=req))
            pending.append(req)
        else:
            recs.append(Event(draw(st.sampled_from(["it", "phase"])),
                              draw(st.integers(0, 5))))
    if pending:
        recs.append(Wait(tuple(pending)))
    return ProcessTrace(rank, recs)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_property_roundtrip_random_traces(data):
    """Any structurally-valid trace round-trips byte-identically."""
    nranks = data.draw(st.integers(1, 4))
    procs = [data.draw(random_process(r)) for r in range(nranks)]
    ts = TraceSet(procs, meta={"seed": 1})
    assert dim.dumps(roundtrip(ts)) == dim.dumps(ts)
