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

A threshold is defined by the sequential log-scale bisection walk
alone: the upper end of the sign-change bracket its probes reach.  A
makespan is *not* always monotone in bandwidth — SPECFEM3D at 64 ranks
meets its equivalent(real) target at 1225.07 MB/s, misses it at
1240.10 and meets it again at 1247.67; the walk never probes 1240.10
and returns 1225.07 — so no route may decide a threshold any other way.

:func:`search_bandwidths` runs many searches as one campaign: every
anchor in one grid, then rounds of one walk probe per live search,
with speculative probes of the walks' next levels (breadth first,
lower bandwidth first) on the workers those leave idle.  A speculative
answer only saves a later round.  One that contradicts its walk by
more than ``rel_tol`` is counted in ``bisect.nonmonotone``, logged and
recorded as a run event; the threshold stands.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

from ..obs import current_run, get_registry, span as _span
from .parallel import (
    DegradedBracketError,
    ExperimentEngine,
    GridPoint,
    PointFailure,
    engine_or_serial,
)
from .pipeline import AppExperiment

__all__ = [
    "BandwidthSearch",
    "bisect_bandwidth",
    "equivalent_bandwidth",
    "relaxation_bandwidth",
    "search_bandwidths",
]

_log = logging.getLogger("repro.experiments.bandwidth")

#: Search bracket (MB/s): from slower-than-ethernet to far beyond any
#: bandwidth that can still matter; above the cap we report infinity.
BW_MIN = 0.25
BW_MAX = 128_000.0


class _Walk(NamedTuple):
    """One sequential bisection as a value.

    :attr:`probe` is the bandwidth the walk asks next (``None`` once it
    has a :attr:`threshold`); :meth:`after` is the walk that answer
    leads to, so speculation explores hypothetical answers on copies.
    ``llo`` and ``lhi`` are the logs of the highest failing and lowest
    satisfying bandwidth answered on the walk's path.
    """

    lo: float
    hi: float
    tol: float
    max_iter: int
    stage: str = "lo"  # "lo", "hi", "mid" or "done"
    llo: float | None = None
    lhi: float | None = None
    iters: int = 0
    threshold: float | None = None

    @classmethod
    def start(cls, lo: float, hi: float, rel_tol: float,
              max_iter: int = 60) -> "_Walk":
        if lo <= 0 or hi <= 0:
            raise ValueError(
                f"bandwidth bracket must be positive, got [{lo}, {hi}]")
        if hi < lo:
            raise ValueError(f"empty bracket: lo={lo} > hi={hi}")
        if rel_tol <= 0:
            raise ValueError(f"rel_tol must be positive, got {rel_tol}")
        return cls(lo, hi, math.log1p(rel_tol), max_iter)

    @property
    def probe(self) -> float | None:
        if self.stage == "mid":
            return math.exp(0.5 * (self.llo + self.lhi))
        return {"lo": self.lo, "hi": self.hi}.get(self.stage)

    def after(self, ok: bool) -> "_Walk":
        if self.stage == "lo":
            if ok:
                return self._replace(stage="done", lhi=math.log(self.lo),
                                     threshold=self.lo)
            return self._replace(stage="hi", llo=math.log(self.lo))
        if self.stage == "hi":
            if not ok:
                return self._replace(stage="done", llo=math.log(self.hi),
                                     threshold=math.inf)
            walk = self._replace(stage="mid", lhi=math.log(self.hi))
        else:
            mid = 0.5 * (self.llo + self.lhi)
            bound = {"lhi": mid} if ok else {"llo": mid}
            walk = self._replace(iters=self.iters + 1, **bound)
        if walk.iters >= walk.max_iter or walk.lhi - walk.llo <= walk.tol:
            return walk._replace(stage="done", threshold=math.exp(walk.lhi))
        return walk

    def ahead(self):
        """Probes of the next levels: breadth first, lower child first."""
        level = [self]
        while level:
            level = [child for walk in level
                     for child in (walk.after(True), walk.after(False))
                     if child.probe is not None]
            for child in level:
                yield child.probe


def bisect_bandwidth(
    predicate,
    lo: float = BW_MIN,
    hi: float = BW_MAX,
    rel_tol: float = 0.01,
    max_iter: int = 60,
) -> float:
    """Smallest bandwidth in ``[lo, hi]`` satisfying a monotone predicate.

    ``predicate(bw)`` should be False below the threshold and True above
    it.  Returns ``inf`` when even ``hi`` fails and ``lo`` when the
    predicate already holds there (so for ``lo == hi`` the single point
    decides: ``lo`` if it satisfies, ``inf`` otherwise).  Log-scale
    bisection until the bracket is within ``rel_tol`` (relative) or
    ``max_iter`` halvings, whichever first; the returned value is the
    upper end of the final bracket, so it always satisfies a monotone
    predicate and overestimates the true threshold by at most
    ``rel_tol``.  A non-monotone predicate gets the upper end of the
    sign-change bracket the walk reaches, deterministically.
    """
    walk = _Walk.start(lo, hi, rel_tol, max_iter)
    probes = get_registry().counter("bisect.probes")
    while (bw := walk.probe) is not None:
        probes.inc()
        walk = walk.after(bool(predicate(bw)))
    return walk.threshold


@dataclass(frozen=True)
class BandwidthSearch:
    """One Figure 6 search: ``kind`` is ``"relaxation"`` (Fig. 6(b)) or
    ``"equivalent"`` (Fig. 6(c)) for one overlapped ``variant``."""

    exp: AppExperiment
    kind: str
    variant: str = "real"
    baseline_bw: float | None = None
    slack: float = 1e-9
    rel_tol: float = 0.01

    def __post_init__(self):
        if self.kind not in ("relaxation", "equivalent"):
            raise ValueError(f"unknown search kind {self.kind!r}")

    @property
    def base_bw(self) -> float:
        if self.baseline_bw is not None:
            return self.baseline_bw
        return self.exp.machine.bandwidth_mbps

    @property
    def anchor_variant(self) -> str:
        """The execution whose baseline duration sets the target."""
        return "original" if self.kind == "relaxation" else self.variant

    @property
    def probe_variant(self) -> str:
        """The execution replayed at the probed bandwidths."""
        return self.variant if self.kind == "relaxation" else "original"

    def walk(self) -> _Walk:
        if self.kind == "relaxation":
            return _Walk.start(BW_MIN, self.base_bw, self.rel_tol)
        return _Walk.start(self.base_bw * 0.999, BW_MAX, self.rel_tol)


def search_bandwidths(
    engine: ExperimentEngine,
    searches: Sequence[BandwidthSearch],
    known: Mapping[GridPoint, float | PointFailure] | None = None,
) -> list[float | DegradedBracketError]:
    """Run independent searches as one campaign; one result each.

    The anchors come first, in one grid (``known`` holds durations
    already measured through ``engine``, by point, such as the
    report's Figure 6(a) baselines).  A result is the walk's threshold,
    bitwise the one :func:`bisect_bandwidth` finds, or, on a degraded
    engine, a :class:`~repro.experiments.parallel.DegradedBracketError`
    when the anchor or a probe the walk needed failed; the other
    searches go on.  A strict engine raises its grid's failure.
    """
    reg = get_registry()
    probes = reg.counter("bisect.probes")
    reg.counter("bisect.searches").inc(len(searches))
    got: dict[GridPoint, float | PointFailure] = dict(known or {})
    out: list = [None] * len(searches)
    with _span("bisect.campaign", searches=len(searches), jobs=engine.jobs):
        anchors = [replace(engine.point_for(s.exp, s.anchor_variant),
                           bandwidth_mbps=float(s.base_bw)) for s in searches]
        ask = list(dict.fromkeys(p for p in anchors if p not in got))
        got.update(zip(ask, engine.durations(ask), strict=True))
        live: dict[int, _Walk] = {}
        targets: dict[int, float] = {}
        for i, (s, anchor) in enumerate(zip(searches, anchors)):
            if isinstance(got[anchor], PointFailure):
                out[i] = DegradedBracketError([got[anchor]])
            else:
                live[i] = s.walk()
                targets[i] = got[anchor] * (1 + s.slack)
        spec: dict[int, list[float]] = {i: [] for i in live}
        bases = [engine.point_for(s.exp, s.probe_variant) for s in searches]

        @functools.cache
        def at(i: int, bw: float) -> GridPoint:
            return replace(bases[i], bandwidth_mbps=float(bw))

        while live:
            # Walk every search along the answers it has.
            for i in list(live):
                walk = live[i]
                while ((bw := walk.probe) is not None
                       and (d := got.get(at(i, bw))) is not None):
                    if isinstance(d, PointFailure):
                        out[i] = DegradedBracketError([d])
                        break
                    walk = walk.after(d <= targets[i])
                live[i] = walk
                if out[i] is None and walk.probe is not None:
                    continue
                del live[i]
                if out[i] is None:
                    out[i] = walk.threshold
                    seen = [(bw, got[at(i, bw)]) for bw in spec[i]]
                    _report_contradictions(searches[i], walk, [
                        (bw, d <= targets[i]) for bw, d in seen
                        if not isinstance(d, PointFailure)
                    ])
            # The next round: every live walk's probe, then speculation
            # on the workers those leave idle.
            ask = dict.fromkeys(at(i, w.probe) for i, w in live.items())
            ahead = [((i, bw) for bw in w.ahead()) for i, w in live.items()]
            for level in itertools.zip_longest(*ahead):
                for i, bw in filter(None, level):
                    p = at(i, bw)
                    if len(ask) < engine.jobs and p not in got and p not in ask:
                        spec[i].append(bw)
                        ask[p] = None
                if len(ask) >= engine.jobs:
                    break
            if ask:
                probes.inc(len(ask))
                got.update(zip(ask, engine.durations(ask), strict=True))
    return out


def _report_contradictions(search: BandwidthSearch, walk: _Walk,
                           answers: list[tuple[float, bool]]) -> None:
    """Count, log and record every speculative answer that contradicts
    the walk's path answers by more than its tolerance."""
    for bw, ok in answers:
        lbw = math.log(bw)
        if ok and walk.llo is not None and walk.llo - lbw > walk.tol:
            holds_at, fails_at = bw, math.exp(walk.llo)
        elif not ok and walk.lhi is not None and lbw - walk.lhi > walk.tol:
            holds_at, fails_at = math.exp(walk.lhi), bw
        else:
            continue
        get_registry().counter("bisect.nonmonotone").inc()
        _log.warning(
            "%s/%s %s(%s): makespan not monotone in bandwidth: target "
            "met at %.6g MB/s but missed at %.6g MB/s; the walk's "
            "threshold %.6g MB/s stands",
            search.exp.app_name, search.exp.nranks, search.kind,
            search.variant, holds_at, fails_at, walk.threshold,
        )
        run = current_run()
        if run is not None:
            run.record("bisect_nonmonotone", app=search.exp.app_name,
                       kind=search.kind, variant=search.variant,
                       holds_at=holds_at, fails_at=fails_at,
                       threshold=walk.threshold)


def _search(search: BandwidthSearch, engine: ExperimentEngine | None) -> float:
    """One search as a campaign; ``engine=None`` runs it serially on the
    caller's experiment."""
    with engine_or_serial(engine) as engine:
        (found,) = search_bandwidths(engine, [search])
    if isinstance(found, Exception):
        raise found
    return found


def relaxation_bandwidth(
    exp: AppExperiment,
    variant: str = "real",
    baseline_bw: float | None = None,
    slack: float = 1e-9,
    rel_tol: float = 0.01,
    engine: ExperimentEngine | None = None,
) -> float:
    """Fig. 6(b): min bandwidth where ``variant`` matches the original
    execution at the baseline bandwidth.

    Runs through ``engine`` (its pool, caches and failure handling);
    without one, a private serial engine replays on ``exp`` itself.
    """
    return _search(BandwidthSearch(exp, "relaxation", variant, baseline_bw,
                                   slack, rel_tol), engine)


def equivalent_bandwidth(
    exp: AppExperiment,
    variant: str = "real",
    baseline_bw: float | None = None,
    slack: float = 1e-9,
    rel_tol: float = 0.01,
    engine: ExperimentEngine | None = None,
) -> float:
    """Fig. 6(c): bandwidth the original execution needs to match
    ``variant`` at the baseline bandwidth (``inf`` when unreachable).

    ``engine`` as in :func:`relaxation_bandwidth`.
    """
    return _search(BandwidthSearch(exp, "equivalent", variant, baseline_bw,
                                   slack, rel_tol), engine)
