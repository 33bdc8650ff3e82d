"""One resident array per distinct access profile.

The tracer, the ``.rct`` decoder and the ``.dim`` parser pass every
profile's times through :func:`repro.trace.records.intern_times`, with
one table per trace: profiles with equal bytes share one read-only
array, and no two of a trace's arrays hold the same bytes.  Table II
computes one row per distinct profile and interval.
"""

import numpy as np
import pytest

from repro.core import patterns
from repro.dimemas.machine import PAPER_BUSES
from repro.experiments.pipeline import AppExperiment
from repro.trace import dim
from repro.trace.columnar import decode, from_traceset
from repro.trace.records import AccessProfile, intern_times


@pytest.fixture(scope="module", params=tuple(PAPER_BUSES))
def original(request):
    """The 8-rank original of each Table I app, traced once."""
    return AppExperiment(request.param, nranks=8).trace("original")


def trace_profiles(trace) -> list[AccessProfile]:
    """Every profile of a record-object trace, both kinds."""
    return [p for kind in ("production", "consumption")
            for _, _, p in patterns.iter_profiles(trace, kind, min_elements=0)]


def assert_shared(arrays: list[np.ndarray]) -> None:
    """Read-only arrays, one object per distinct content, and some
    content repeated (every skeleton repeats profiles across ranks)."""
    objects = {id(a): a for a in arrays}
    assert all(not a.flags.writeable for a in objects.values())
    assert len({a.tobytes() for a in objects.values()}) == len(objects)
    assert len(objects) < len(arrays)


def test_traced_original_shares_profiles(original):
    assert_shared([p.times for p in trace_profiles(original)])


def test_rct_round_trip_shares_profiles(original):
    col = from_traceset(original)
    data = col.encode()
    back = decode(data)
    arrays = [t for rc in back.ranks for *_, t in rc.profiles]
    assert_shared(arrays)
    # Each kept array is a copy of its bytes, not a view pinning the
    # whole entry.
    assert all(a.flags.owndata for a in arrays)
    assert back.encode() == data
    records = back.to_traceset()
    assert {id(p.times) for p in trace_profiles(records)} == {id(a) for a in arrays}


def test_dim_round_trip_shares_profiles(original):
    text = dim.dumps(original)
    back = dim.loads(text)
    assert_shared([p.times for p in trace_profiles(back)])
    assert dim.dumps(back) == text


def test_in_place_write_raises(original):
    times = trace_profiles(original)[0].times
    before = times.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        times[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        np.fmin(times, 0.0, out=times)
    assert times.tobytes() == before


def test_table2_rows_once_per_distinct_profile(original, monkeypatch):
    expected = {
        "production": patterns._aggregate(
            [patterns.production_stats(p) for _, _, p in
             patterns.iter_profiles(original, "production")],
            patterns.ProductionStats),
        "consumption": patterns._aggregate(
            [patterns.consumption_stats(p) for _, _, p in
             patterns.iter_profiles(original, "consumption")],
            patterns.ConsumptionStats),
    }
    for kind, table in (("production", patterns.production_table),
                        ("consumption", patterns.consumption_table)):
        name = f"{kind}_stats"
        stats, calls = getattr(patterns, name), []
        monkeypatch.setattr(patterns, name,
                            lambda p, stats=stats: calls.append(p) or stats(p))
        assert repr(table(original)) == repr(expected[kind])
        keys = {(id(p.times), p.interval_start, p.interval_end)
                for _, _, p in patterns.iter_profiles(original, kind)}
        assert len(calls) == len(keys)
        assert len(keys) < sum(1 for _ in patterns.iter_profiles(original, kind))


class TestInternTimes:
    def test_equal_bytes_share_one_read_only_array(self):
        table: dict = {}
        a = intern_times(table, np.array([1.0, np.nan, 3.0]))
        b = intern_times(table, np.array([1.0, np.nan, 3.0]))
        assert a is b and not a.flags.writeable

    def test_bytes_not_values_decide(self):
        table: dict = {}
        pos = intern_times(table, np.array([0.0, 1.0]))
        neg = intern_times(table, np.array([-0.0, 1.0]))
        assert pos is not neg
        assert intern_times(table, np.array([-0.0, 1.0])) is neg

    def test_same_sample_different_tail(self):
        # 64 elements sample every 4th: these two agree on the sample
        # and share a bucket, so only the comparison tells them apart.
        base = np.arange(64, dtype=float)
        other = base.copy()
        other[1] = -1.0
        table: dict = {}
        a = intern_times(table, base)
        b = intern_times(table, other)
        assert a is not b
        assert len(table) == 1
        assert intern_times(table, other.copy()) is b

    def test_adopts_or_copies(self):
        table: dict = {}
        fresh = np.array([2.0, 4.0])
        assert intern_times(table, fresh) is fresh
        assert not fresh.flags.writeable
        source = np.array([5.0, 6.0])
        kept = intern_times(table, source, copy=True)
        assert kept is not source and source.flags.writeable
        assert kept.tobytes() == source.tobytes()

    def test_empty_array(self):
        table: dict = {}
        a = intern_times(table, np.empty(0))
        assert intern_times(table, np.empty(0)) is a

    def test_profiles_sharing_an_array_compare_equal(self):
        table: dict = {}
        p = AccessProfile("production", intern_times(table, np.arange(3.0)), 0.0, 1.0)
        q = AccessProfile("production", intern_times(table, np.arange(3.0)), 0.0, 1.0)
        assert p == q
