"""Message chunking: splitting MPI messages into independent chunks.

Paper §II: *"Each original MPI message is partitioned into independent
chunks consisting of one or more data elements."*  Chunks are
contiguous element ranges (the transfer order of elements is the buffer
order), and the experimental setup fixes the chunk count at four:
*"the chunking technique in the overlapped case splits every MPI
message in four chunks"* (§IV).

This module computes chunk geometry and the two time series that drive
the transformation:

* **ready times** — when each chunk's final version exists at the
  sender (max of last-store times over the chunk's elements);
* **needed times** — when each chunk is first consumed at the receiver
  (min of first-load times over the chunk's elements).

Both reduce a profile's raw times with one ``ufunc.reduceat`` over the
plan's bounds, which are strictly increasing for every plan
:func:`plan_chunks` makes, as ``reduceat`` needs, and clip only the
per-chunk results into the interval.  Clipping is monotone, so it
commutes with min and max and the order changes no bit.  The 1-4
results are clipped one Python float at a time (:func:`_clip`): at
that size a NumPy call costs far more than its arithmetic.

A transformation plans thousands of messages on a handful of
geometries, so :func:`plan_chunks` is memoized per ``(size, elements,
chunks)`` in a bounded cache.  The plans it shares are immutable: the
dataclass is frozen and its arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..trace.records import AccessProfile

__all__ = [
    "DEFAULT_CHUNKS",
    "ChunkPlan",
    "chunk_needed_times",
    "chunk_ready_times",
    "plan_chunks",
]

#: The paper's experimental setting: four chunks per message.
DEFAULT_CHUNKS = 4


@dataclass(frozen=True)
class ChunkPlan:
    """Geometry of one chunked message.

    ``bounds`` has ``nchunks + 1`` element indices (chunk ``c`` covers
    elements ``bounds[c]:bounds[c+1]``); ``sizes`` are per-chunk byte
    counts summing exactly to the message size.  Both arrays are
    read-only: :func:`plan_chunks` hands one plan to every caller of
    its geometry.
    """

    elements: int
    nchunks: int
    bounds: np.ndarray
    sizes: np.ndarray

    def span(self, c: int) -> tuple[int, int]:
        """Element range ``[start, end)`` of chunk ``c``."""
        return int(self.bounds[c]), int(self.bounds[c + 1])


# A Table I application at 64 ranks plans 1-5 distinct geometries.
@lru_cache(maxsize=1024, typed=True)
def plan_chunks(size: int, elements: int, chunks: int = DEFAULT_CHUNKS) -> ChunkPlan:
    """Partition a message of ``size`` bytes / ``elements`` elements.

    The effective chunk count is ``min(chunks, elements, size)`` (a
    message cannot be split finer than its elements or its bytes) and
    at least one.  Element boundaries follow ``np.array_split``
    balance; byte sizes are proportional with the remainder spread over
    the leading chunks so they always sum to ``size`` exactly.

    Memoized (module docstring): equal arguments of equal types return
    the same read-only plan.
    """
    if size < 0 or elements < 0:
        raise ValueError("size and elements must be >= 0")
    if chunks < 1:
        raise ValueError(f"chunk count must be >= 1, got {chunks}")
    n = max(1, min(chunks, elements if elements > 0 else 1, size if size > 0 else 1))
    bounds = np.linspace(0, max(elements, 1), n + 1).round().astype(np.int64)
    # Byte boundaries proportional to element boundaries.
    byte_bounds = np.linspace(0, size, n + 1).round().astype(np.int64)
    sizes = np.diff(byte_bounds)
    assert int(sizes.sum()) == size
    bounds.flags.writeable = False
    sizes.flags.writeable = False
    return ChunkPlan(elements=max(elements, 1), nchunks=n, bounds=bounds, sizes=sizes)


def _check(profile: AccessProfile, plan: ChunkPlan, kind: str, caller: str) -> None:
    if profile.kind != kind:
        raise ValueError(f"{caller} requires a {kind} profile")
    if profile.elements != plan.elements:
        raise ValueError(
            f"profile has {profile.elements} elements, plan expects {plan.elements}"
        )


def _clip(x: float, lo: float, hi: float) -> float:
    """``np.clip(x, lo, hi)`` on one float (``lo <= hi``): NaN
    propagates, a tie keeps ``x``."""
    return lo if x < lo else hi if x > hi else x


def _clipped(chunk_times: np.ndarray, profile: AccessProfile) -> np.ndarray:
    """Per-chunk times clipped into the profile's interval, as
    :meth:`AccessProfile.clip` would, bit for bit."""
    lo, hi = profile.interval_start, profile.interval_end
    return np.array([_clip(t, lo, hi) for t in chunk_times.tolist()])


def chunk_ready_times(profile: AccessProfile, plan: ChunkPlan) -> np.ndarray:
    """When each chunk's final version is produced at the sender.

    ``NaN`` entries (chunk never stored inside the interval) mean "no
    information" — the transformation falls back to the original send
    point for those chunks.  Times are clipped into the production
    interval.
    """
    _check(profile, plan, "production", "chunk_ready_times")
    return _clipped(np.fmax.reduceat(profile.times, plan.bounds[:-1]), profile)


def chunk_needed_times(profile: AccessProfile, plan: ChunkPlan) -> np.ndarray:
    """When each chunk is first consumed at the receiver.

    ``NaN`` entries (chunk never loaded) mean the wait can be postponed
    to the end of the consumption interval.  Times are clipped into the
    consumption interval.
    """
    _check(profile, plan, "consumption", "chunk_needed_times")
    return _clipped(np.fmin.reduceat(profile.times, plan.bounds[:-1]), profile)
