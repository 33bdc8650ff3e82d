"""Tests of chunk geometry and chunk-time reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chunking import (
    DEFAULT_CHUNKS,
    chunk_needed_times,
    chunk_ready_times,
    plan_chunks,
)
from repro.trace.records import AccessProfile
from tests.conftest import access_profiles


class TestPlanChunks:
    def test_paper_default_is_four(self):
        assert DEFAULT_CHUNKS == 4

    def test_even_split(self):
        plan = plan_chunks(size=800, elements=100, chunks=4)
        assert plan.nchunks == 4
        assert plan.bounds.tolist() == [0, 25, 50, 75, 100]
        assert plan.sizes.tolist() == [200, 200, 200, 200]

    def test_sizes_sum_exactly_with_remainders(self):
        plan = plan_chunks(size=1003, elements=10, chunks=3)
        assert int(plan.sizes.sum()) == 1003

    def test_single_element_message_is_one_chunk(self):
        plan = plan_chunks(size=8, elements=1, chunks=4)
        assert plan.nchunks == 1 and plan.sizes.tolist() == [8]

    def test_cannot_chunk_finer_than_bytes(self):
        plan = plan_chunks(size=2, elements=100, chunks=4)
        assert plan.nchunks == 2

    def test_span(self):
        plan = plan_chunks(size=64, elements=8, chunks=4)
        assert plan.span(0) == (0, 2) and plan.span(3) == (6, 8)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_chunks(-1, 10)
        with pytest.raises(ValueError):
            plan_chunks(10, 10, chunks=0)

    def test_plans_are_read_only(self):
        plan = plan_chunks(size=800, elements=100, chunks=4)
        with pytest.raises(ValueError):
            plan.bounds[1] = 7
        with pytest.raises(ValueError):
            plan.sizes[0] = 7
        assert plan.bounds.tolist() == [0, 25, 50, 75, 100]
        assert plan.sizes.tolist() == [200, 200, 200, 200]

    def test_one_plan_per_geometry(self):
        plan = plan_chunks(1003, 10, 3)
        again = plan_chunks(1003, 10, 3)
        assert again is plan
        fresh = plan_chunks.__wrapped__(1003, 10, 3)  # the unmemoized body
        assert (fresh.elements, fresh.nchunks) == (plan.elements, plan.nchunks)
        assert fresh.bounds.tolist() == plan.bounds.tolist()
        assert fresh.sizes.tolist() == plan.sizes.tolist()
        assert plan_chunks(1003, 10, 4) is not plan
        assert plan_chunks(1004, 10, 3) is not plan

    @given(size=st.integers(0, 10_000), elements=st.integers(0, 5_000),
           chunks=st.integers(1, 32))
    @settings(max_examples=200, deadline=None)
    def test_property_invariants(self, size, elements, chunks):
        plan = plan_chunks(size, elements, chunks)
        assert 1 <= plan.nchunks <= chunks
        assert int(plan.sizes.sum()) == size
        assert (plan.sizes >= 0).all()
        bounds = plan.bounds
        assert bounds[0] == 0 and bounds[-1] == max(elements, 1)
        # Every chunk holds an element: ``ufunc.reduceat`` needs this.
        assert (np.diff(bounds) > 0).all()


def prod_profile(times, lo=0.0, hi=1.0):
    return AccessProfile("production", np.asarray(times, float), lo, hi)


def cons_profile(times, lo=0.0, hi=1.0):
    return AccessProfile("consumption", np.asarray(times, float), lo, hi)


class TestChunkTimes:
    def test_ready_is_per_chunk_max(self):
        p = prod_profile([0.1, 0.9, 0.2, 0.3])
        plan = plan_chunks(32, 4, 2)
        ready = chunk_ready_times(p, plan)
        assert ready.tolist() == [0.9, 0.3]

    def test_needed_is_per_chunk_min(self):
        p = cons_profile([0.5, 0.2, 0.9, 0.4])
        plan = plan_chunks(32, 4, 2)
        needed = chunk_needed_times(p, plan)
        assert needed.tolist() == [0.2, 0.4]

    def test_nan_chunks_stay_nan(self):
        p = prod_profile([np.nan, np.nan, 0.5, 0.5])
        plan = plan_chunks(32, 4, 2)
        ready = chunk_ready_times(p, plan)
        assert np.isnan(ready[0]) and ready[1] == 0.5

    def test_times_clipped_to_interval(self):
        p = prod_profile([5.0, -1.0], lo=0.0, hi=1.0)
        plan = plan_chunks(16, 2, 2)
        assert chunk_ready_times(p, plan).tolist() == [1.0, 0.0]

    def test_kind_mismatch_rejected(self):
        plan = plan_chunks(16, 2, 2)
        with pytest.raises(ValueError):
            chunk_ready_times(cons_profile([0, 0]), plan)
        with pytest.raises(ValueError):
            chunk_needed_times(prod_profile([0, 0]), plan)

    def test_element_count_mismatch_rejected(self):
        plan = plan_chunks(16, 2, 2)
        with pytest.raises(ValueError):
            chunk_ready_times(prod_profile([0.1, 0.2, 0.3]), plan)

    @given(n=st.integers(1, 200), chunks=st.integers(1, 8),
           seed=st.integers(0, 999))
    @settings(max_examples=100, deadline=None)
    def test_property_monotone_under_prefix_order(self, n, chunks, seed):
        """With element times sorted ascending, ready times are
        non-decreasing across chunks (the ideal-producer property)."""
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(0, 1, n))
        plan = plan_chunks(n * 8, n, chunks)
        ready = chunk_ready_times(prod_profile(times), plan)
        valid = ready[~np.isnan(ready)]
        assert (np.diff(valid) >= -1e-12).all()


# -- Reference formula: a clipped copy of the profile, then a
# -- nan-reduction per chunk.
def _oracle_segment_reduce(values, bounds, how):
    out = np.full(len(bounds) - 1, np.nan)
    for c in range(len(bounds) - 1):
        seg = values[bounds[c]:bounds[c + 1]]
        if seg.size and not np.all(np.isnan(seg)):
            out[c] = np.nanmax(seg) if how == "max" else np.nanmin(seg)
    return out


def _oracle_clipped(p):
    return np.clip(p.times, p.interval_start, p.interval_end)


class TestRawTimeReduction:
    """Chunk times reduced on raw times equal, bit for bit, the
    reference's nan-reductions of a clipped copy."""

    @given(p=access_profiles("production"), size=st.integers(0, 10_000),
           chunks=st.integers(1, 32))
    @settings(max_examples=400, deadline=None)
    def test_ready_times(self, p, size, chunks):
        plan = plan_chunks(size, p.elements, chunks)
        new = chunk_ready_times(p, plan)
        old = _oracle_segment_reduce(_oracle_clipped(p), plan.bounds, "max")
        assert np.array_equal(new, old, equal_nan=True)
        assert repr(new.tolist()) == repr(old.tolist())

    @given(p=access_profiles("consumption"), size=st.integers(0, 10_000),
           chunks=st.integers(1, 32))
    @settings(max_examples=400, deadline=None)
    def test_needed_times(self, p, size, chunks):
        plan = plan_chunks(size, p.elements, chunks)
        new = chunk_needed_times(p, plan)
        old = _oracle_segment_reduce(_oracle_clipped(p), plan.bounds, "min")
        assert np.array_equal(new, old, equal_nan=True)
        assert repr(new.tolist()) == repr(old.tolist())
