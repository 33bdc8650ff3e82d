"""Bandwidth searches of paper Figure 6(b) and 6(c).

* **Bandwidth relaxation** (Fig. 6(b)): the minimum bandwidth at which
  the *overlapped* execution still matches the performance of the
  non-overlapped execution on the 250 MB/s baseline — *"in order to
  achieve the performance of the non-overlapped execution on
  250MB/s, the overlapped execution needs much less bandwidth"*
  (Sweep3D: down to 11.75 MB/s).
* **Equivalent bandwidth** (Fig. 6(c)): the bandwidth the
  *non-overlapped* execution would need to match the overlapped
  execution at 250 MB/s — *"what is the overlap's equivalent in
  increased network bandwidth"*.  For Sweep3D this "tends to
  infinity": no bandwidth recovers the benefit, because the remaining
  cost is latency and pipeline serialization, not bytes.

Both are monotone in bandwidth, so bisection on a log scale converges
quickly; replays are memoized by the experiment object.  With a
parallel :class:`~repro.experiments.parallel.ExperimentEngine` the
searches run in *speculative batched* mode: each round evaluates the
whole midpoint tree of the next few bisection levels concurrently and
then walks it, descending several levels per round while returning the
bitwise-identical threshold of the sequential search.

A round is sized to the pool: the deepest complete midpoint tree with
at most ``max(3, engine.jobs)`` nodes.  On two workers that is 3 probes
for 2 levels, 2 replay slots like the sequential search; a 7-node tree
would take 4 slots for 3 levels.  A 1-node round would be a single
point, which the engine replays in the parent, so a round has at least
3.  Every round still probes both flanks of its root, which is what
non-monotone detection needs.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from ..obs import get_registry, span as _span
from .pipeline import AppExperiment

__all__ = [
    "NonMonotonePredicateError",
    "bisect_bandwidth",
    "bisect_bandwidth_batched",
    "equivalent_bandwidth",
    "relaxation_bandwidth",
]

#: Search bracket (MB/s): from slower-than-ethernet to far beyond any
#: bandwidth that can still matter; above the cap we report infinity.
BW_MIN = 0.25
BW_MAX = 128_000.0


def _anchor_duration(
    exp: AppExperiment, variant: str, bandwidth: float, engine,
) -> float:
    """The search's anchor duration, engine-mediated when possible.

    Routing the anchor replay through the engine gives it the probe
    points' pool, result cache and failure handling, so a resumed
    search serves it from the cache like any probe.  A quarantined
    anchor cannot anchor
    anything: raise :class:`~repro.experiments.parallel.DegradedBracketError`
    rather than bisect against a missing number.
    """
    if engine is None or not engine.mediated:
        return exp.duration(variant, bandwidth_mbps=bandwidth)
    from dataclasses import replace

    from .parallel import DegradedBracketError, PointFailure
    base = engine.point_for(exp, variant)
    # Reuse the caller's already-traced experiment for warm/serial paths.
    engine._experiments.setdefault(base.experiment_key(), exp)
    point = replace(base, bandwidth_mbps=float(bandwidth))
    dur = engine.durations([point])[0]
    if isinstance(dur, PointFailure):
        raise DegradedBracketError([dur])
    return dur


class NonMonotonePredicateError(ValueError):
    """The bisection predicate changed truth value more than once.

    Bisection assumes ``predicate(bw)`` is monotone (False below one
    threshold, True above it).  The batched search sees speculative
    probes on both sides of the walked path for free, so it can detect
    violations the sequential search silently absorbs.  Only violations
    *wider than* ``rel_tol`` raise: a simulated duration can wobble by
    a fraction of a percent around the threshold (discrete bus
    scheduling, protocol switches), and within one tolerance width the
    search cannot distinguish thresholds anyway — those are absorbed,
    exactly like the sequential search absorbs them.
    """


def bisect_bandwidth(
    predicate,
    lo: float = BW_MIN,
    hi: float = BW_MAX,
    rel_tol: float = 0.01,
    max_iter: int = 60,
) -> float:
    """Smallest bandwidth in ``[lo, hi]`` satisfying a monotone predicate.

    ``predicate(bw)`` must be False below the threshold and True above
    it.  Returns ``inf`` when even ``hi`` fails and ``lo`` when the
    predicate already holds there (so for ``lo == hi`` the single point
    decides: ``lo`` if it satisfies, ``inf`` otherwise).  Log-scale
    bisection until the bracket is within ``rel_tol`` (relative) or
    ``max_iter`` halvings, whichever first; the returned value is the
    upper end of the final bracket, so it always satisfies a monotone
    predicate and overestimates the true threshold by at most
    ``rel_tol``.

    A *non-monotone* predicate is not detected here: the search just
    follows whichever flank each midpoint probe lands on and returns
    the upper end of some sign-change bracket — deterministic, but
    bracket-dependent.  Use :func:`bisect_bandwidth_batched` to get
    detection (its speculative probes cover both flanks).
    """
    if lo <= 0 or hi <= 0:
        raise ValueError(f"bandwidth bracket must be positive, got [{lo}, {hi}]")
    if hi < lo:
        raise ValueError(f"empty bracket: lo={lo} > hi={hi}")
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    probes = get_registry().counter("bisect.probes")
    probes.inc()
    if predicate(lo):
        return lo
    probes.inc()
    if not predicate(hi):
        return math.inf
    llo, lhi = math.log(lo), math.log(hi)
    for _ in range(max_iter):
        if (lhi - llo) <= math.log1p(rel_tol):
            break
        mid = 0.5 * (llo + lhi)
        probes.inc()
        if predicate(math.exp(mid)):
            lhi = mid
        else:
            llo = mid
    return math.exp(lhi)


def _speculation_depth(batch: int, remaining: int) -> int:
    """Bisection levels one batch of ``2**d - 1`` probes can cover."""
    depth = 1
    while (1 << (depth + 1)) - 1 <= batch:
        depth += 1
    return max(1, min(depth, remaining))


def bisect_bandwidth_batched(
    predicate_many: Callable[[Sequence[float]], Sequence[bool]],
    lo: float = BW_MIN,
    hi: float = BW_MAX,
    rel_tol: float = 0.01,
    max_iter: int = 60,
    batch: int = 7,
) -> float:
    """Speculative batched variant of :func:`bisect_bandwidth`.

    ``predicate_many(bandwidths)`` evaluates the predicate at several
    candidate bandwidths at once (the parallel engine fans them across
    workers) and returns one bool per candidate, in order.

    Each round builds the complete midpoint tree of the next ``d``
    bisection levels (``2**d - 1`` nodes, ``d`` chosen so the tree fits
    in ``batch`` probes), evaluates all nodes in one batch, then walks
    the tree exactly as the sequential search would.  Because every
    node's midpoint is computed by the same ``0.5 * (lo + hi)``
    arithmetic on the same bracket values, the walk reproduces the
    sequential iterate sequence exactly and the returned threshold is
    **bitwise identical** to ``bisect_bandwidth`` with the same
    arguments — batching only changes how many probes run per round
    (some speculatively wasted), never the result.

    Raises :class:`NonMonotonePredicateError` when the probes of one
    round contradict monotonicity by more than ``rel_tol`` (a satisfied
    bandwidth more than one tolerance width below a failed one);
    narrower wobble is absorbed like the sequential search absorbs it.
    """
    if lo <= 0 or hi <= 0:
        raise ValueError(f"bandwidth bracket must be positive, got [{lo}, {hi}]")
    if hi < lo:
        raise ValueError(f"empty bracket: lo={lo} > hi={hi}")
    if rel_tol <= 0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    tol = math.log1p(rel_tol)
    probes = get_registry().counter("bisect.probes")
    probes.inc(2)
    lo_ok, hi_ok = predicate_many([lo, hi])
    if lo_ok and not hi_ok and math.log(hi) - math.log(lo) > tol:
        raise NonMonotonePredicateError(
            f"predicate holds at lo={lo} but not at hi={hi}"
        )
    if lo_ok:
        return lo
    if not hi_ok:
        return math.inf

    llo, lhi = math.log(lo), math.log(hi)
    iters = 0
    while iters < max_iter and (lhi - llo) > tol:
        depth = _speculation_depth(batch, max_iter - iters)
        # Speculative midpoint tree: node at `path` (tuple of "predicate
        # held?" decisions) is the midpoint sequential bisection would
        # probe after exactly those decisions.
        nodes: dict[tuple[bool, ...], float] = {}

        def _build(a: float, b: float, d: int, path: tuple[bool, ...]) -> None:
            mid = 0.5 * (a + b)
            nodes[path] = mid
            if d > 1:
                _build(a, mid, d - 1, path + (True,))
                _build(mid, b, d - 1, path + (False,))

        _build(llo, lhi, depth, ())
        order = list(nodes)
        probes.inc(len(order))
        answers = list(predicate_many([math.exp(nodes[p]) for p in order]))
        if len(answers) != len(order):
            raise ValueError(
                f"predicate_many returned {len(answers)} answers "
                f"for {len(order)} candidates"
            )
        results = dict(zip(order, answers))

        # Monotonicity check over everything this round observed: a
        # True more than one tolerance width below a False is a real
        # violation; anything narrower is sub-resolution wobble.
        observed = sorted((mid, results[p]) for p, mid in nodes.items())
        seen_true_at = None
        for mid, ok in observed:
            if ok:
                seen_true_at = mid if seen_true_at is None else seen_true_at
            elif seen_true_at is not None and mid - seen_true_at > tol:
                raise NonMonotonePredicateError(
                    f"predicate holds at {math.exp(seen_true_at):.6g} MB/s "
                    f"but fails at {math.exp(mid):.6g} MB/s"
                )

        # Walk the tree exactly as the sequential search would.
        path: tuple[bool, ...] = ()
        for _ in range(depth):
            if iters >= max_iter or (lhi - llo) <= tol:
                break
            mid = nodes[path]
            if results[path]:
                lhi = mid
                path += (True,)
            else:
                llo = mid
                path += (False,)
            iters += 1
    return math.exp(lhi)


def _round_nodes(engine) -> int:
    """Probes per speculative round: the pool's width, at least 3."""
    return max(3, engine.jobs)


def relaxation_bandwidth(
    exp: AppExperiment,
    variant: str = "real",
    baseline_bw: float | None = None,
    slack: float = 1e-9,
    rel_tol: float = 0.01,
    engine=None,
) -> float:
    """Fig. 6(b): min bandwidth where ``variant`` matches the original
    execution at the baseline bandwidth.

    Pass a :class:`~repro.experiments.parallel.ExperimentEngine` as
    ``engine`` to probe speculative bisection rounds, sized to its
    pool, concurrently (identical result, fewer sequential rounds).
    """
    base_bw = baseline_bw if baseline_bw is not None else exp.machine.bandwidth_mbps
    with _span("bisect.relaxation", app=exp.app_name, variant=variant):
        get_registry().counter("bisect.searches").inc()
        target = _anchor_duration(exp, "original", base_bw, engine)
        threshold = target * (1 + slack)

        if engine is not None:
            predicate_many = engine.duration_predicate_many(
                exp, variant, threshold
            )
            return bisect_bandwidth_batched(
                predicate_many, hi=base_bw, rel_tol=rel_tol,
                batch=_round_nodes(engine),
            )

        def fast_enough(bw: float) -> bool:
            return exp.duration(variant, bandwidth_mbps=bw) <= threshold

        return bisect_bandwidth(fast_enough, hi=base_bw, rel_tol=rel_tol)


def equivalent_bandwidth(
    exp: AppExperiment,
    variant: str = "real",
    baseline_bw: float | None = None,
    slack: float = 1e-9,
    rel_tol: float = 0.01,
    engine=None,
) -> float:
    """Fig. 6(c): bandwidth the original execution needs to match
    ``variant`` at the baseline bandwidth (``inf`` when unreachable).

    ``engine`` enables speculative batched probing as in
    :func:`relaxation_bandwidth`.
    """
    base_bw = baseline_bw if baseline_bw is not None else exp.machine.bandwidth_mbps
    with _span("bisect.equivalent", app=exp.app_name, variant=variant):
        get_registry().counter("bisect.searches").inc()
        target = _anchor_duration(exp, variant, base_bw, engine)
        threshold = target * (1 + slack)

        if engine is not None:
            predicate_many = engine.duration_predicate_many(
                exp, "original", threshold
            )
            return bisect_bandwidth_batched(
                predicate_many, lo=base_bw * 0.999, rel_tol=rel_tol,
                batch=_round_nodes(engine),
            )

        def fast_enough(bw: float) -> bool:
            return exp.duration("original", bandwidth_mbps=bw) <= threshold

        return bisect_bandwidth(fast_enough, lo=base_bw * 0.999,
                                rel_tol=rel_tol)
