"""Tests of the packed columnar trace codec.

The codec is the backbone of the trace cache, the dispatch store, and
the replay planner, so three properties are non-negotiable: round-trips
are lossless for every record type, damaged bytes are *rejected* (never
partially decoded), and the content digest tracks replay semantics only.
"""

import struct

import numpy as np
import pytest

from repro.dimemas.replay import simulate
from repro.trace import dim
from repro.trace.columnar import (
    MAGIC,
    VERSION,
    ColumnarFormatError,
    columnar_of,
    decode,
    from_traceset,
)
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
from repro.trace.validate import validate


def _profile(kind: str) -> AccessProfile:
    return AccessProfile(
        kind=kind,
        times=np.linspace(0.25, 0.75, 5),
        interval_start=0.125,
        interval_end=0.875,
    )


def make_full_trace() -> TraceSet:
    """A small trace exercising every record type and edge flavour:
    optional fields present and absent, zero-byte sends, explicit
    eager/rendezvous protocol pins, multi-request waits, every
    collective op, and both access-profile kinds."""
    r0 = [
        CpuBurst(1e-3),
        CpuBurst(2e-3, instructions=123_456),
        Event("iteration", value=1),
        Send(peer=1, tag=7, size=0),                      # pure sync
        Send(peer=1, tag=8, size=4096, channel=2, sub=3,
             elements=512, context=1, rendezvous=False,
             production=_profile("production")),
        ISend(peer=1, tag=9, size=1 << 20, request=41, rendezvous=True),
        Wait((41,)),
        Event("iteration", value=2),
    ]
    r1 = [
        CpuBurst(5e-4),
        Recv(peer=0, tag=7, size=0),
        Recv(peer=0, tag=8, size=4096, channel=2, sub=3,
             elements=512, context=1,
             consumption=_profile("consumption")),
        IRecv(peer=0, tag=9, size=1 << 20, request=17),
        IRecv(peer=0, tag=10, size=64, request=18),
        Wait((17, 18)),
        Send(peer=0, tag=10, size=64),
    ]
    # rank 1 needs a matching send for tag 10's IRecv in replay terms,
    # but the codec does not care about matchability — only fidelity.
    colls = [
        GlobalOp(op=op, root=i % 2, send_size=8 * i, recv_size=16 * i,
                 seq=i, context=i % 3, members=2)
        for i, op in enumerate(CollOp)
    ]
    return TraceSet(
        [ProcessTrace(0, r0 + colls), ProcessTrace(1, r1 + colls)],
        meta={"app": "codec-test", "nranks": 2, "nested": {"k": [1, 2]}},
    )


def assert_traces_equal(a: TraceSet, b: TraceSet) -> None:
    """Field-exact equality, including what ``dim`` does not serialize."""
    assert dim.dumps(a) == dim.dumps(b)
    assert dict(a.meta) == dict(b.meta)
    for pa, pb in zip(a.processes, b.processes):
        assert len(pa.records) == len(pb.records)
        for ra, rb in zip(pa.records, pb.records):
            assert type(ra) is type(rb)
            for rec_a, rec_b in ((ra, rb),):
                for attr in ("production", "consumption"):
                    prof_a = getattr(rec_a, attr, None)
                    prof_b = getattr(rec_b, attr, None)
                    assert (prof_a is None) == (prof_b is None)
                    if prof_a is not None:
                        assert prof_a.kind == prof_b.kind
                        assert prof_a.interval_start == prof_b.interval_start
                        assert prof_a.interval_end == prof_b.interval_end
                        assert np.array_equal(prof_a.times, prof_b.times)


class TestRoundTrip:
    def test_all_record_types_lossless(self):
        ts = make_full_trace()
        restored = decode(from_traceset(ts).encode()).to_traceset()
        assert_traces_equal(ts, restored)

    def test_without_profiles_drops_only_profiles(self):
        ts = make_full_trace()
        restored = decode(from_traceset(ts, with_profiles=False).encode())
        back = restored.to_traceset()
        # dim renders profiles as AP: lines — everything else must match
        strip = lambda text: [  # noqa: E731
            ln for ln in text.splitlines() if not ln.startswith("AP:")
        ]
        assert strip(dim.dumps(back)) == strip(dim.dumps(ts))
        assert all(
            getattr(rec, "production", None) is None
            and getattr(rec, "consumption", None) is None
            for proc in back.processes for rec in proc.records
        )

    def test_empty_and_asymmetric_ranks(self):
        ts = TraceSet([
            ProcessTrace(0, [CpuBurst(1e-3)]),
            ProcessTrace(1, []),                    # empty rank
            ProcessTrace(2, [Wait((9,)), Wait((1, 2, 3, 4))]),
        ])
        restored = decode(from_traceset(ts).encode()).to_traceset()
        assert dim.dumps(restored) == dim.dumps(ts)
        assert restored.processes[2].records[0].requests == (9,)
        assert restored.processes[2].records[1].requests == (1, 2, 3, 4)

    def test_float_durations_bit_exact(self):
        durs = [1e-9, 0.1 + 0.2, 1 / 3, 6.02e23]
        ts = TraceSet([ProcessTrace(0, [CpuBurst(d) for d in durs])])
        back = decode(from_traceset(ts).encode()).to_traceset()
        assert [r.duration for r in back.processes[0].records] == durs

    def test_unknown_record_type_rejected_at_encode(self):
        ts = TraceSet([ProcessTrace(0, [object()])])
        with pytest.raises(TypeError, match="cannot encode"):
            from_traceset(ts)


class TestRejection:
    @pytest.fixture(scope="class")
    def blob(self):
        return from_traceset(make_full_trace()).encode()

    def test_every_truncation_rejected(self, blob):
        for cut in range(len(blob)):
            with pytest.raises(ColumnarFormatError):
                decode(blob[:cut])

    def test_every_single_byte_corruption_rejected(self, blob):
        for pos in range(len(blob)):
            damaged = bytearray(blob)
            damaged[pos] ^= 0x5A
            with pytest.raises(ColumnarFormatError):
                decode(bytes(damaged))

    def test_trailing_garbage_rejected(self, blob):
        with pytest.raises(ColumnarFormatError, match="trailing"):
            decode(blob + b"\x00")

    def test_garbage_and_empty_rejected(self):
        for junk in (b"", b"RCO", b"not a trace at all", b"\x00" * 64):
            with pytest.raises(ColumnarFormatError):
                decode(junk)

    def test_foreign_version_refused(self, blob):
        future = blob[:4] + struct.pack("<I", VERSION + 1) + blob[8:]
        with pytest.raises(ColumnarFormatError, match="version"):
            decode(future)
        assert blob[:4] == MAGIC  # layout guard for this very test


class TestDigest:
    def test_digest_ignores_meta_and_profiles(self):
        ts = make_full_trace()
        with_prof = from_traceset(ts, with_profiles=True)
        without = from_traceset(ts, with_profiles=False)
        assert with_prof.digest == without.digest
        stripped = TraceSet(list(ts.processes), meta={})
        assert from_traceset(stripped).digest == with_prof.digest

    def test_digest_survives_codec_round_trip(self):
        col = from_traceset(make_full_trace())
        assert decode(col.encode()).digest == col.digest

    def test_digest_tracks_replay_semantics(self):
        ts = make_full_trace()
        changed = TraceSet(
            [
                ProcessTrace(0, [CpuBurst(9.0)] + list(ts.processes[0].records)),
                ts.processes[1],
            ],
            meta=dict(ts.meta),
        )
        assert from_traceset(changed).digest != from_traceset(ts).digest

    def test_columnar_of_memoizes(self):
        ts = make_full_trace()
        assert columnar_of(ts) is columnar_of(ts)
        col = columnar_of(ts)
        assert columnar_of(col) is col

    def test_invalidate_drops_the_memoized_columns(self):
        """A field edited in place after a validation and a replay is
        seen by both once its process is invalidated."""
        ts = TraceSet([
            ProcessTrace(0, [Send(peer=1, tag=0, size=8)]),
            ProcessTrace(1, [Recv(peer=0, tag=0, size=8)]),
        ])
        assert validate(ts).ok
        assert [m.size for m in simulate(ts).messages] == [8]
        ts.processes[0].records[0].size = 4096
        ts.processes[0].invalidate()
        assert not validate(ts).ok
        assert [m.size for m in simulate(ts).messages] == [4096]

    def test_coalesced_append_drops_the_memoized_columns(self):
        """A burst merged into the trailing one keeps the record count,
        yet the replay and the digest see the merged duration."""
        ts = TraceSet([ProcessTrace(0, [CpuBurst(1.0)])])
        assert simulate(ts).duration == 1.0
        digest = columnar_of(ts).digest
        ts[0].append_coalesced(CpuBurst(2.0))
        assert len(ts[0]) == 1 and ts[0].virtual_duration == 3.0
        assert simulate(ts).duration == 3.0
        assert columnar_of(ts).digest != digest
