"""Full reproduction report: every table and figure, paper vs measured.

``python -m repro.experiments.report`` regenerates the quantitative
content of EXPERIMENTS.md: Table I (calibration), Table II (patterns),
Figure 4 (CG timelines), Figure 5 (pattern series summaries), and
Figure 6 (speedup / bandwidth relaxation / equivalent bandwidth).
"""

from __future__ import annotations

import io
import math
from dataclasses import replace
from pathlib import Path

from ..dimemas.machine import PAPER_BUSES
from ..obs import get_registry, span as _span
from ..paraver.compare import compare
from ..paraver.timeline import iteration_bounds
from .bandwidth import BandwidthSearch, search_bandwidths
from .cache import SimResultCache, TraceCache, sweep_cache_dir
from .calibration import saturation_knee
from .checkpoint import CampaignInterrupted, graceful_drain
from .parallel import DegradedBracketError, ExperimentEngine, PointFailure
from .pipeline import VARIANTS, AppExperiment
from .tables import PAPER_CONSUMPTION, PAPER_PRODUCTION, figure5_series, pattern_row

__all__ = ["full_report", "main"]

#: Scale used for the headline experiments (paper test bed: 64).
DEFAULT_NRANKS = 64

#: The Figure 6(b)/(c) columns: (search kind, overlapped variant).
FIGURE6_SEARCHES = (("relaxation", "real"), ("relaxation", "ideal"),
                    ("equivalent", "real"), ("equivalent", "ideal"))


def _fmt_bw(x: float) -> str:
    return "inf" if math.isinf(x) else f"{x:.1f}"


def _fmt_pct(x: float) -> str:
    return "  n/a " if (x != x) else f"{100 * x:6.2f}"


#: Registry counter prefixes behind the report's cache-aggregate line.
_CACHE_KINDS = (("trace", "cache.trace"), ("replay", "cache.replay"))


def _cache_counts() -> dict[str, dict[str, int]]:
    """Current cache hit/miss/rebuilt totals from the metrics registry.

    Includes counts merged back from pool workers, which the in-object
    cache attributes (``TraceCache.hits`` etc.) can never see — those
    live and die in the worker process.
    """
    reg = get_registry()
    return {
        label: {
            what: reg.counter(f"{prefix}.{what}").value
            for what in ("hits", "misses", "rebuilt")
        }
        for label, prefix in _CACHE_KINDS
    }


def _cache_summary_line(before: dict[str, dict[str, int]]) -> str:
    """One-line hit/miss/rebuilt delta since ``before`` (all processes)."""
    after = _cache_counts()
    parts = []
    for label, _ in _CACHE_KINDS:
        d = {k: after[label][k] - before[label][k] for k in after[label]}
        parts.append(
            f"{label} {d['hits']} hits / {d['misses']} misses"
            f" / {d['rebuilt']} rebuilt"
        )
    return "cache: " + ", ".join(parts) + "   (incl. workers)"


def full_report(
    nranks: int = DEFAULT_NRANKS,
    apps: tuple[str, ...] = ("sweep3d", "pop", "alya", "specfem3d", "bt", "cg"),
    include_bandwidth: bool = True,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    degraded: bool = False,
    explain: bool = False,
) -> str:
    """Build the complete text report (can take a few minutes).

    ``jobs > 1`` fans the replay grids (Table I scans, Figure 6
    speedups and bandwidth searches) across worker processes;
    ``cache_dir`` persists traces and replay results so a re-run is
    nearly free.  Results are identical regardless of ``jobs``.
    ``degraded=True`` lets the report finish with per-app FAILED rows
    when some replays fail, instead of aborting the whole run.

    SIGTERM/SIGINT drain the campaign into a
    :class:`~repro.experiments.checkpoint.CampaignInterrupted`; with a
    ``cache_dir``, running the report again on it replays only what
    the interrupted session had not stored (the ``--resume`` path).

    ``explain=True`` appends an overlap-explanation section per app:
    the attributed replay triple's scorecard and verdict from
    :func:`repro.insight.explain_experiment` (serial — attributed
    replays bypass the result caches).
    """
    engine = ExperimentEngine(jobs=jobs, cache_dir=cache_dir,
                              degraded=degraded)
    try:
        with graceful_drain(engine):
            return _full_report(nranks, apps, include_bandwidth, engine,
                                explain=explain)
    except (CampaignInterrupted, KeyboardInterrupt) as exc:
        # A drain has already awaited the points in flight, and a hard
        # Ctrl-C must not wait for busy workers: kill them and drop the
        # half-written staging files they (and we) leave behind, so the
        # cache stays clean for the next session.  The CLI maps the
        # drain to the "interrupted, resumable" exit code.
        drained = isinstance(exc, CampaignInterrupted)
        engine._discard_pool(
            "interrupted (drained)" if drained else "interrupted (Ctrl-C)")
        if cache_dir is not None:
            sweep_cache_dir(cache_dir)
        raise
    finally:
        engine.close()


def _full_report(
    nranks: int,
    apps: tuple[str, ...],
    include_bandwidth: bool,
    engine: ExperimentEngine,
    explain: bool = False,
) -> str:
    out = io.StringIO()
    trace_cache = sim_cache = None
    if engine.cache_dir is not None:
        trace_cache = TraceCache(Path(engine.cache_dir) / "traces")
        sim_cache = SimResultCache(Path(engine.cache_dir) / "replays")
    cache_before = _cache_counts()
    exps = {
        a: AppExperiment(a, nranks=nranks, cache=trace_cache, sim_cache=sim_cache)
        for a in apps
    }

    # ---- Table I ---------------------------------------------------------- #
    with _span("report.table1"):
        print("== Table I: Dimemas bus counts ==", file=out)
        print(f"{'app':>10} {'paper':>6} {'saturation knee (ours)':>24}", file=out)
        for a in apps:
            knee = saturation_knee(exps[a], tolerance=0.02, engine=engine)
            print(f"{a:>10} {PAPER_BUSES[a]:>6} {knee:>24}", file=out)
        print(file=out)

    # ---- Table II ---------------------------------------------------------- #
    with _span("report.table2"):
        print("== Table II: production/consumption patterns (percent of phase) ==", file=out)
        print(f"{'app':>10} | {'prod 1st':>9} {'prod 1/4':>9} {'prod 1/2':>9} "
              f"{'prod all':>9} | {'cons 0':>8} {'cons 1/4':>9} {'cons 1/2':>9}", file=out)
        for a in apps:
            row = pattern_row(exps[a])
            pp, pc = PAPER_PRODUCTION[a], PAPER_CONSUMPTION[a]
            p, c = row.production, row.consumption
            print(f"{a:>10} | {_fmt_pct(p.first_element):>9} {_fmt_pct(p.quarter):>9} "
                  f"{_fmt_pct(p.half):>9} {_fmt_pct(p.whole):>9} | {_fmt_pct(c.nothing):>8} "
                  f"{_fmt_pct(c.quarter):>9} {_fmt_pct(c.half):>9}   (measured)", file=out)
            print(f"{'':>10} | {_fmt_pct(pp.first_element):>9} {_fmt_pct(pp.quarter):>9} "
                  f"{_fmt_pct(pp.half):>9} {_fmt_pct(pp.whole):>9} | {_fmt_pct(pc.nothing):>8} "
                  f"{_fmt_pct(pc.quarter):>9} {_fmt_pct(pc.half):>9}   (paper)", file=out)
        print(file=out)

    # ---- Figure 4 ---------------------------------------------------------- #
    with _span("report.figure4"):
        print("== Figure 4: NAS-CG, 4 processes, first five iterations ==", file=out)
        cg4 = AppExperiment("cg", nranks=4)
        r0, r1 = cg4.simulate("original"), cg4.simulate("real")
        cmp_ = compare(r0, r1)
        t0, t1 = iteration_bounds(r0, 0, 5)
        print(cmp_.report(width=88, t0=t0, t1=min(t1, max(r0.duration, r1.duration))), file=out)
        print(f"paper: ~8% improvement; measured: {cmp_.timing.improvement_percent:.1f}%", file=out)
        print(file=out)

    # ---- Figure 5 ---------------------------------------------------------- #
    with _span("report.figure5"):
        print("== Figure 5: access-pattern series (summary statistics) ==", file=out)
        for app, kind in (("sweep3d", "production"), ("bt", "consumption"),
                          ("pop", "consumption")):
            x, y = figure5_series(app, kind, nranks=16)
            if x.size:
                print(f"{app:>10} {kind:<12} points={x.size:>7} "
                      f"x-range=[{x.min():.3f}, {x.max():.3f}] "
                      f"buffer-elements={int(y.max()) + 1}", file=out)
        print(file=out)

    # ---- Future work: phase-level headroom --------------------------------- #
    with _span("report.headroom"):
        from ..core.phases import phase_overlap_potential
        print("== Phase-level overlap headroom (paper's future work) ==", file=out)
        for a in apps:
            channel = None if a == "alya" else 0
            pot = phase_overlap_potential(exps[a].trace("original"), channel=channel)
            print(f"{a:>10}: independent consumption "
                  f"{pot.independent_fraction * 100:5.1f}%  pre-production "
                  f"{pot.preproduction_fraction * 100:5.1f}%  reorderable "
                  f"{pot.reorderable_seconds * 1e3:9.3f} ms", file=out)
        print(file=out)

    # ---- Figure 6 ---------------------------------------------------------- #
    with _span("report.figure6"):
        print("== Figure 6: overlap benefits ==", file=out)
        header = f"{'app':>10} {'real':>8} {'ideal':>8}"
        if include_bandwidth:
            header += (f" {'relaxBW(real)':>14} {'relaxBW(ideal)':>15}"
                       f" {'equivBW(real)':>14} {'equivBW(ideal)':>15}")
        print(header, file=out)
        # The baseline durations of Figure 6(a) anchor every search, so
        # the campaign starts from them.
        base = {
            (a, v): replace(engine.point_for(exps[a], v),
                            bandwidth_mbps=exps[a].machine.bandwidth_mbps)
            for a in apps for v in VARIANTS
        }
        known = dict(zip(base.values(), engine.durations(base.values())))
        kinds = FIGURE6_SEARCHES if include_bandwidth else ()
        searches = [BandwidthSearch(exps[a], kind, v)
                    for a in apps for kind, v in kinds]
        found = iter(search_bandwidths(engine, searches, known))
        for a in apps:
            d0, dr, di = (known[base[(a, v)]] for v in VARIANTS)
            bws = [next(found) for _ in kinds]
            # One dead app must not take the rest of the table with it:
            # its row reports the (first) failed point.
            failed = [getattr(x, "failures", [x])[0] for x in (d0, dr, di, *bws)
                      if isinstance(x, (PointFailure, DegradedBracketError))]
            if failed:
                line = (f"{a:>10} {'FAILED':>8} {'FAILED':>8}"
                        f"  [{failed[0].describe()}]")
            else:
                line = f"{a:>10} {d0 / dr:8.4f} {d0 / di:8.4f}"
                line += "".join(f" {_fmt_bw(x):>{w}}"
                                for x, w in zip(bws, (14, 15, 14, 15)))
            print(line, file=out)

    # ---- Overlap explanations (--explain) --------------------------------- #
    if explain:
        from ..insight import explain_experiment
        print(file=out)
        with _span("report.explain"):
            print("== Overlap explanations (repro-explain) ==", file=out)
            for a in apps:
                try:
                    ex = explain_experiment(exps[a])
                    sc = ex.scorecards.get("real")
                    if sc is not None:
                        print(f"{a:>10}: attained "
                              f"{sc.attained_fraction * 100:5.1f}%  "
                              f"bound {sc.attainable_bound * 100:5.1f}%  "
                              f"dominant residual "
                              f"{ex.dominant_residual()}", file=out)
                    print(f"{'':>10}  {ex.verdict}", file=out)
                    for w in ex.warnings:
                        print(f"{'':>10}  WARNING: {w}", file=out)
                except Exception as exc:  # pragma: no cover - degraded row
                    print(f"{a:>10}: explanation FAILED [{exc}]", file=out)

    # A blank line terminates the Figure 6 table (consumers parse rows
    # until the first blank line), then the cross-process cache totals.
    if trace_cache is not None:
        print(file=out)
        print(_cache_summary_line(cache_before), file=out)
    return out.getvalue()


def main() -> None:  # pragma: no cover - exercised via CLI
    """Entry point of ``python -m repro.experiments.report``: the
    ``repro-report`` command, same options and exit codes."""
    import sys

    from ..cli import main_report
    sys.exit(main_report())


if __name__ == "__main__":  # pragma: no cover
    main()
