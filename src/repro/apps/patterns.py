"""Access-pattern generators for the application skeletons.

We cannot run the paper's binaries under Valgrind, so the skeletons
reproduce each application's measured production/consumption behaviour
(paper Table II and Figure 5) through parameterized access-stream
generators.  The communication *structure* of each skeleton (who talks
to whom, how much, in what order) is modelled from the real code; the
*placement of accesses inside compute intervals* is calibrated to the
paper's measurements via the anchor profiles below.

Anchors are ``(buffer_fraction, interval_fraction)`` pairs: a monotone
per-element time profile is interpolated through them, which makes the
Table II reductions land exactly on the anchor values:

* production: ``max(last_store[: f*n]) = interp(f)`` and
  ``min(last_store) = interp(0)``;
* consumption: ``min(first_load[f*n :]) = interp(f)``.

Every rank of a skeleton asks for the batches of the same few buffer
geometries, so :func:`production_batches` and
:func:`consumption_batches` are memoized per ``(n, anchors, passes)``
in a bounded cache: all ranks of one geometry share one tuple of
read-only arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "anchored_times",
    "consumption_batches",
    "production_batches",
    "scalar_at",
    "shift_anchors",
]


def shift_anchors(
    anchors: list[tuple[float, float]], delta: float,
) -> list[tuple[float, float]]:
    """Shift a profile's interval fractions by ``delta`` (clipped to [0, 1]).

    Real codes produce their different boundary buffers at slightly
    different points of the computation; shifting the anchor profile
    per buffer models that spread while keeping the per-application
    average on the Table II value (use symmetric deltas).
    """
    return [(x, float(np.clip(y + delta, 0.0, 1.0))) for x, y in anchors]


def anchored_times(n: int, anchors: list[tuple[float, float]]) -> np.ndarray:
    """Monotone per-element access fractions through the given anchors.

    ``anchors`` maps buffer fraction -> interval fraction, e.g. the
    paper's Sweep3D production row ``[(0, .663), (.25, .948),
    (.5, .982), (1, .998)]``.  Element ``e`` gets the interpolated time
    at buffer fraction ``e / (n-1)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.array([a[0] for a in anchors], dtype=float)
    ys = np.array([a[1] for a in anchors], dtype=float)
    if np.any(np.diff(xs) < 0) or np.any(np.diff(ys) < 0):
        raise ValueError("anchors must be non-decreasing in both coordinates")
    if np.any(ys < 0.0) or np.any(ys > 1.0):
        raise ValueError("interval fractions must lie in [0, 1]")
    frac = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
    return np.interp(frac, xs, ys)


#: Whole-buffer access batches ``(None, at)``, shared read-only.
Batches = tuple[tuple[None, np.ndarray], ...]


def production_batches(
    n: int,
    anchors: list[tuple[float, float]],
    revisits: int = 0,
) -> Batches:
    """Store batches ``(offsets, at)`` for one production interval.

    Every batch covers the whole ``n``-element buffer in order, so its
    offsets are ``None`` (see :class:`~repro.smpi.runtime.AccessBatch`),
    and its ``at`` is read-only, so the tracer range-checks it once
    however often the batch is passed.
    ``revisits`` adds that many earlier whole-buffer store passes
    (values still being accumulated) before the final-version pass —
    they do not move the last-store statistics but reproduce the dense
    revisit clouds of Figure 5(a) in the recorded streams.

    Memoized (module docstring): equal arguments return the same tuple.
    """
    return _production_batches(n, _anchor_key(anchors), revisits)


# A Table I application at 64 ranks builds 2-8 distinct batch sets.
@lru_cache(maxsize=256)
def _production_batches(n: int, anchors: tuple, revisits: int) -> Batches:
    final = anchored_times(n, anchors)
    batches: list[tuple[None, np.ndarray]] = []
    if revisits > 0:
        earliest = float(final.min())
        pass_times = np.linspace(0.05, max(earliest * 0.9, 0.05), revisits)
        for t in pass_times:
            batches.append((None, np.full(n, float(min(t, 1.0)))))
    batches.append((None, final))
    return _read_only(batches)


def consumption_batches(
    n: int,
    anchors: list[tuple[float, float]],
    rereads: int = 0,
) -> Batches:
    """Load batches ``(offsets, at)`` for one consumption interval.

    Every batch covers the whole ``n``-element buffer in order (offsets
    ``None``, read-only ``at`` as in :func:`production_batches`).
    ``rereads`` adds later whole-buffer load passes (e.g. BT's four
    copy bursts); they leave the first-load statistics unchanged.
    Memoized like :func:`production_batches`.
    """
    return _consumption_batches(n, _anchor_key(anchors), rereads)


@lru_cache(maxsize=256)
def _consumption_batches(n: int, anchors: tuple, rereads: int) -> Batches:
    first = anchored_times(n, anchors)
    batches: list[tuple[None, np.ndarray]] = [(None, first)]
    if rereads > 0:
        latest = float(first.max())
        lo = min(latest + 0.02, 1.0)
        pass_times = np.linspace(lo, min(lo + 0.1 * rereads, 1.0), rereads)
        for t in pass_times:
            batches.append((None, np.full(n, float(t))))
    return _read_only(batches)


def scalar_at(frac: float) -> np.ndarray:
    """The read-only ``at`` of a one-element operand accessed at
    ``frac`` of the burst (a reduction's scalar)."""
    at = np.array([frac])
    at.flags.writeable = False
    return at


def _anchor_key(anchors) -> tuple:
    return tuple(map(tuple, anchors))


def _read_only(batches: list[tuple[None, np.ndarray]]) -> Batches:
    for _offsets, at in batches:
        at.flags.writeable = False
    return tuple(batches)
