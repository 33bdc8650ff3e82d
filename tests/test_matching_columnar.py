"""The one message matcher: :func:`repro.core.matching.match_columnar`.

Tracer validation, the transforms, certification and the replay all
pair sends with receives through it.  Checked here against a
naive reference on random traces, and counted on a whole experiment:
each trace is paired once, however many stages ask.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit.certify import certify_trace
from repro.core import matching
from repro.dimemas import replay
from repro.experiments.pipeline import VARIANTS, AppExperiment
from repro.trace.columnar import columnar_of
from repro.trace.records import (
    IRecv,
    ISend,
    ProcessTrace,
    Recv,
    Send,
    TraceSet,
    Wait,
)
from repro.trace.validate import validate

_P2P = (Send, ISend, Recv, IRecv)


def _key(rank: int, rec) -> tuple[bool, tuple]:
    send = isinstance(rec, (Send, ISend))
    src, dst = (rank, rec.peer) if send else (rec.peer, rank)
    return send, (src, dst, rec.context, rec.channel, rec.tag, rec.sub)


def reference(trace: TraceSet):
    """Naive pairing: each send, in rank then record order, takes the
    first free receive on its destination with the same key.  Returns
    ``(src, si, dst, ri, send size, recv size)`` pairs and the per-key
    ``(sends, recvs)`` counts."""
    counts: dict[tuple, list[int]] = {}
    pairs = []
    taken: set[tuple[int, int]] = set()
    for proc in trace:
        for i, rec in enumerate(proc.records):
            if not isinstance(rec, _P2P):
                continue
            send, key = _key(proc.rank, rec)
            counts.setdefault(key, [0, 0])[0 if send else 1] += 1
            if not send:
                continue
            for j, other in enumerate(trace[rec.peer].records):
                if ((rec.peer, j) not in taken
                        and isinstance(other, (Recv, IRecv))
                        and _key(rec.peer, other)[1] == key):
                    taken.add((rec.peer, j))
                    pairs.append((proc.rank, i, rec.peer, j, rec.size,
                                  other.size))
                    break
    return pairs, {k: tuple(v) for k, v in sorted(counts.items())}


def _messages(nranks: int):
    """One message: endpoints, key fields, kinds, sizes, and whether each
    endpoint is recorded (a missing one leaves its partner unpaired)."""
    rank = st.integers(0, nranks - 1)
    return st.tuples(
        rank, rank,
        st.integers(0, 2),                   # context
        st.integers(0, 1),                   # channel
        st.integers(0, 1),                   # tag
        st.booleans(), st.booleans(),        # non-blocking send / recv
        st.sampled_from([8, 16]), st.sampled_from([8, 16]),
        st.booleans(), st.booleans(),        # send / recv recorded
    )


traces = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_messages(n), max_size=14))
)


def _build(spec) -> TraceSet:
    nranks, messages = spec
    recs: list[list] = [[] for _ in range(nranks)]
    for (src, dst, ctx, ch, tag, isend, irecv, ssize, rsize,
         has_send, has_recv) in messages:
        for present, rank, peer, cls, icls, nb, size in (
            (has_send, src, dst, Send, ISend, isend, ssize),
            (has_recv, dst, src, Recv, IRecv, irecv, rsize),
        ):
            if not present:
                continue
            kw = dict(peer=peer, tag=tag, size=size, channel=ch, context=ctx)
            if nb:
                req = len(recs[rank]) + 1
                recs[rank] += [icls(request=req, **kw), Wait((req,))]
            else:
                recs[rank].append(cls(**kw))
    return TraceSet([ProcessTrace(r, rs) for r, rs in enumerate(recs)])


_SETTINGS = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@given(traces)
@_SETTINGS
def test_matcher_equals_naive_reference(spec):
    trace = _build(spec)
    ref_pairs, ref_counts = reference(trace)
    m = matching.match_columnar(columnar_of(trace))
    assert [(p.src, p.send_index, p.dst, p.recv_index, p.size)
            for p in m.pairs] == [p[:5] for p in ref_pairs]
    assert list(m.counts.items()) == list(ref_counts.items())


@given(traces)
@_SETTINGS
def test_validate_reports_the_reference_mismatches(spec):
    trace = _build(spec)
    ref_pairs, ref_counts = reference(trace)
    expected = [
        f"global: key {k}: {s} send(s) vs {r} recv(s)"
        for k, (s, r) in ref_counts.items() if s != r
    ] + [
        f"global: size mismatch on key {_key(src, trace[src][si])[1]}: "
        f"rank={src} record={si} sends {ss} bytes, "
        f"rank={dst} record={ri} expects {rs}"
        for src, si, dst, ri, ss, rs in ref_pairs if ss != rs
    ]
    found = [i for i in validate(trace).issues
             if i.startswith(("global: key", "global: size mismatch"))]
    assert sorted(found) == sorted(expected)


def test_each_trace_is_paired_once(monkeypatch):
    """Build and replay CG/8's three variants, then certify them: the
    original is paired once (tracer validation, both transforms and its
    replay plan share it), and certification pairs nothing."""
    passes = []
    pair = matching._pair

    def counted(col):
        passes.append(col)
        return pair(col)

    monkeypatch.setattr(matching, "_pair", counted)
    monkeypatch.setattr(replay, "_plan_lru", OrderedDict())
    exp = AppExperiment("cg", nranks=8)
    for variant in VARIANTS:
        exp.simulate(variant)
    cols = [columnar_of(exp.trace(v)) for v in VARIANTS]
    assert [sum(c is col for c in passes) for col in cols] == [1, 1, 1]
    assert len(passes) == 3

    for variant in VARIANTS:
        assert certify_trace(exp.trace(variant), machine=exp.machine).ok
    assert len(passes) == 3
