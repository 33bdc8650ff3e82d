"""Resilience sweeps: how much injected degradation overlap buys back.

The perturbation layer (:mod:`repro.perturb`) can replay any traced
application on a degraded platform — sagging bandwidth, latency
spikes, link outages, OS noise, stragglers.  This module asks the
paper's question one level up: *when the platform misbehaves, does
communication-computation overlap absorb the damage?*

For every application the sweep measures four makespans per scenario —
original and overlapped ("real" pattern) variants, each on the pristine
and on the perturbed platform — and folds them into a **resilience
index**

    rho = 1 - (D_real / D_orig)

where ``D_v = perturbed_v - baseline_v`` is the absolute slowdown the
scenario inflicts on variant ``v``.  ``rho = 1`` means overlap hid the
entire injected degradation; ``rho = 0`` means overlap bought nothing;
negative means the fault hurts the overlapped code *more* (e.g. a
straggler that overlap cannot route around but whose pipeline it
lengthens).

Every replay routes through the :class:`ExperimentEngine`, so the
sweep inherits the pool, the digest-keyed caches (the perturbation
schedule is a :class:`~repro.dimemas.machine.MachineConfig` field and
therefore part of every cache key; the cache is also what an
interrupted sweep resumes from), and its failure policy.  Results are
deterministic: same seed, same apps, same scenario list → identical
:meth:`ResilienceReport.result_digest` regardless of job count.
"""

from __future__ import annotations

import hashlib
import html as _html
import json
import math
from dataclasses import dataclass

from ..obs import span as _span
from ..perturb import PerturbationSchedule
from ..perturb.scenarios import SCENARIO_KINDS, build_scenario
from .parallel import (
    ExperimentEngine,
    GridPoint,
    PointFailure,
    engine_or_serial,
)

__all__ = [
    "ResilienceReport",
    "ResilienceRow",
    "render_html",
    "render_text",
    "resilience_sweep",
    "to_json",
]

#: JSON document identifier (bump on breaking changes).
SCHEMA_ID = "repro-resilience/1"

#: Variant pair the index compares: the traced original and the
#: real-pattern overlap transform.
_VARIANTS = ("original", "real")


def _isnan(x: float) -> bool:
    return isinstance(x, float) and x != x


@dataclass(frozen=True)
class ResilienceRow:
    """One (application, scenario) cell of the sweep.

    Durations are simulated seconds; ``nan`` marks a replay that
    failed on a degraded engine.  ``resilience_index`` is ``None``
    when the scenario did not slow the original down at all (nothing
    to mask) or when any contributing duration is missing.
    """

    app: str
    scenario: str
    schedule_digest: str
    schedule: str                 # human description of the schedule
    baseline_original: float
    baseline_real: float
    perturbed_original: float
    perturbed_real: float

    # ------------------------------------------------------------------ #
    @property
    def delta_original(self) -> float:
        """Seconds the scenario added to the original's makespan."""
        return self.perturbed_original - self.baseline_original

    @property
    def delta_real(self) -> float:
        """Seconds the scenario added to the overlapped makespan."""
        return self.perturbed_real - self.baseline_real

    @property
    def slowdown_original(self) -> float:
        return self.perturbed_original / self.baseline_original

    @property
    def slowdown_real(self) -> float:
        return self.perturbed_real / self.baseline_real

    @property
    def resilience_index(self) -> float | None:
        """Fraction of the injected degradation overlap masked."""
        vals = (self.baseline_original, self.baseline_real,
                self.perturbed_original, self.perturbed_real)
        if any(_isnan(v) for v in vals):
            return None
        if self.delta_original <= 0.0:
            return None
        return 1.0 - self.delta_real / self.delta_original

    def to_dict(self) -> dict:
        def _num(x):
            return None if _isnan(x) else x
        return {
            "app": self.app,
            "scenario": self.scenario,
            "schedule_digest": self.schedule_digest,
            "schedule": self.schedule,
            "baseline_original": _num(self.baseline_original),
            "baseline_real": _num(self.baseline_real),
            "perturbed_original": _num(self.perturbed_original),
            "perturbed_real": _num(self.perturbed_real),
            "delta_original": _num(self.delta_original),
            "delta_real": _num(self.delta_real),
            "slowdown_original": _num(self.slowdown_original),
            "slowdown_real": _num(self.slowdown_real),
            "resilience_index": self.resilience_index,
        }


@dataclass(frozen=True)
class ResilienceReport:
    """The full sweep: rows plus the knobs that produced them."""

    apps: tuple[str, ...]
    scenarios: tuple[str, ...]
    seed: int
    nranks: int
    chunks: int
    rows: tuple[ResilienceRow, ...]

    # ------------------------------------------------------------------ #
    def row(self, app: str, scenario: str) -> ResilienceRow | None:
        for r in self.rows:
            if r.app == app and r.scenario == scenario:
                return r
        return None

    def mean_index(self, scenario: str | None = None) -> float | None:
        """Mean resilience index over rows (optionally one scenario)."""
        vals = [r.resilience_index for r in self.rows
                if (scenario is None or r.scenario == scenario)
                and r.resilience_index is not None]
        if not vals:
            return None
        return sum(vals) / len(vals)

    def result_digest(self) -> str:
        """Content digest of the whole table (reproducibility pin).

        Floats enter via ``repr`` so the digest is exact: two sweeps
        agree iff every simulated duration is bitwise identical.
        """
        body = json.dumps(
            [
                {
                    "app": r.app,
                    "scenario": r.scenario,
                    "schedule_digest": r.schedule_digest,
                    "durations": [
                        repr(r.baseline_original), repr(r.baseline_real),
                        repr(r.perturbed_original), repr(r.perturbed_real),
                    ],
                }
                for r in self.rows
            ],
            sort_keys=True, separators=(",", ":"),
        )
        return hashlib.sha256(body.encode()).hexdigest()[:24]


# --------------------------------------------------------------------------- #
# The sweep.
# --------------------------------------------------------------------------- #

def resilience_sweep(
    apps: list[str] | tuple[str, ...],
    scenarios: list[str] | tuple[str, ...] | None = None,
    seed: int = 0,
    nranks: int = 8,
    chunks: int = 4,
    engine: ExperimentEngine | None = None,
) -> ResilienceReport:
    """Run the (app x scenario x variant) resilience grid.

    Phase one replays every app's ``original`` and ``real`` variants on
    the pristine platform; the original's makespan becomes the
    scenario *horizon*, so windows land at the same relative position
    in every app.  Phase two replays both variants under every named
    scenario (:data:`~repro.perturb.scenarios.SCENARIO_KINDS`).  Both
    phases fan through ``engine`` when given (pool, caches);
    without one, a private serial engine is used.

    Failed points (degraded engines only) surface as ``nan``
    durations and a ``None`` resilience index — the report keeps its
    shape.
    """
    from ..apps import APPS

    apps = tuple(apps)
    for app in apps:
        if app not in APPS:
            raise KeyError(
                f"unknown application {app!r}; pool: {sorted(APPS)}"
            )
    scenario_kinds = tuple(scenarios if scenarios is not None
                           else SCENARIO_KINDS)
    for kind in scenario_kinds:
        if kind not in SCENARIO_KINDS:
            known = ", ".join(sorted(SCENARIO_KINDS))
            raise ValueError(
                f"unknown scenario {kind!r} (known: {known})"
            )
    with engine_or_serial(engine) as engine:
        with _span("resilience.sweep", apps=len(apps),
                   scenarios=len(scenario_kinds)):
            def _point(app: str, variant: str,
                       pert: PerturbationSchedule | None) -> GridPoint:
                return GridPoint(app=app, variant=variant, nranks=nranks,
                                 chunks=chunks, perturb=pert)

            def _durs(points: list[GridPoint]) -> list[float]:
                return [
                    math.nan if isinstance(d, PointFailure) else d
                    for d in engine.durations(points)
                ]

            # Phase 1: pristine baselines (also the scenario horizons).
            base_points = [_point(a, v, None)
                           for a in apps for v in _VARIANTS]
            base = _durs(base_points)
            baselines = {
                (a, v): base[i * len(_VARIANTS) + j]
                for i, a in enumerate(apps)
                for j, v in enumerate(_VARIANTS)
            }

            # Phase 2: the perturbed grid, one schedule per (app, kind).
            schedules: dict[tuple[str, str], PerturbationSchedule] = {}
            pert_points: list[GridPoint] = []
            slots: list[tuple[str, str, str]] = []
            for a in apps:
                horizon = baselines[(a, "original")]
                if _isnan(horizon) or horizon <= 0:
                    continue  # baseline failed: no scenario rows
                for kind in scenario_kinds:
                    schedules[(a, kind)] = build_scenario(kind, horizon, seed)
                    for v in _VARIANTS:
                        pert_points.append(_point(a, v, schedules[(a, kind)]))
                        slots.append((a, kind, v))
            pert = _durs(pert_points)
            perturbed = {slot: d for slot, d in zip(slots, pert)}

            rows = []
            for a in apps:
                for kind in scenario_kinds:
                    sched = schedules.get((a, kind))
                    if sched is None:
                        continue
                    rows.append(ResilienceRow(
                        app=a,
                        scenario=kind,
                        schedule_digest=sched.digest(),
                        schedule=sched.describe(),
                        baseline_original=baselines[(a, "original")],
                        baseline_real=baselines[(a, "real")],
                        perturbed_original=perturbed[(a, kind, "original")],
                        perturbed_real=perturbed[(a, kind, "real")],
                    ))
            return ResilienceReport(
                apps=apps, scenarios=scenario_kinds, seed=seed,
                nranks=nranks, chunks=chunks, rows=tuple(rows),
            )


# --------------------------------------------------------------------------- #
# Renderers (the three faces repro-resilience serves).
# --------------------------------------------------------------------------- #

def _fmt_ms(x: float) -> str:
    return "     n/a" if _isnan(x) else f"{x * 1e3:8.3f}"


def _fmt_x(x: float) -> str:
    return "   n/a" if _isnan(x) else f"{x:6.3f}"


def _fmt_rho(x: float | None) -> str:
    return "    - " if x is None else f"{x:+6.2f}"


def render_text(report: ResilienceReport) -> str:
    """The terminal table ``repro-resilience`` prints."""
    out = [
        f"== repro-resilience: {len(report.apps)} app(s), "
        f"{len(report.scenarios)} scenario(s), seed {report.seed}, "
        f"{report.nranks} ranks ==",
        "",
        f"{'app':<10} {'scenario':<15} {'orig ms':>8} {'pert ms':>8} "
        f"{'slow-o':>6} {'real ms':>8} {'pert ms':>8} {'slow-r':>6} "
        f"{'rho':>6}",
    ]
    for r in report.rows:
        out.append(
            f"{r.app:<10} {r.scenario:<15} "
            f"{_fmt_ms(r.baseline_original)} {_fmt_ms(r.perturbed_original)} "
            f"{_fmt_x(r.slowdown_original)} "
            f"{_fmt_ms(r.baseline_real)} {_fmt_ms(r.perturbed_real)} "
            f"{_fmt_x(r.slowdown_real)} {_fmt_rho(r.resilience_index)}"
        )
    out.append("")
    for kind in report.scenarios:
        mean = report.mean_index(kind)
        label = "n/a" if mean is None else f"{mean:+.3f}"
        out.append(f"mean resilience index [{kind}]: {label}")
    overall = report.mean_index()
    out.append("overall mean resilience index: "
               + ("n/a" if overall is None else f"{overall:+.3f}"))
    out.append(f"result digest: {report.result_digest()}")
    out.append("")
    out.append("rho = 1 - delta_real/delta_original: share of the injected "
               "degradation the overlap transform masked.")
    return "\n".join(out)


def to_json(report: ResilienceReport) -> dict:
    """The schema'd machine-readable document (plain data, JSON-safe)."""
    return {
        "schema": SCHEMA_ID,
        "seed": report.seed,
        "nranks": report.nranks,
        "chunks": report.chunks,
        "apps": list(report.apps),
        "scenarios": list(report.scenarios),
        "rows": [r.to_dict() for r in report.rows],
        "mean_index": {
            kind: report.mean_index(kind) for kind in report.scenarios
        },
        "overall_index": report.mean_index(),
        "result_digest": report.result_digest(),
    }


_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2em;
       max-width: 1080px; color: #1a1a1a; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; font-size: 0.85em; margin: 0.6em 0; }
th, td { border: 1px solid #ccc; padding: 3px 8px; text-align: right; }
th { background: #f0f0f0; }
td.name, th.name { text-align: left; }
.good { background: #eef6ee; } .bad { background: #fdecec; }
.summary { background: #eef2f6; border-left: 4px solid #2f7ed8;
           padding: 0.8em 1em; margin: 1em 0; }
.small { color: #666; font-size: 0.85em; }
"""


def _rho_bar(rho: float | None, width: int = 120) -> str:
    """Inline SVG bar: resilience index on a [-1, 1] axis."""
    if rho is None:
        return "<span class=small>n/a</span>"
    mid = width / 2
    clamped = max(-1.0, min(1.0, rho))
    span = abs(clamped) * mid
    x = mid if clamped >= 0 else mid - span
    color = "#76b043" if clamped >= 0 else "#d9534f"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="14"><line x1="{mid}" y1="0" x2="{mid}" y2="14" '
        f'stroke="#999"/><rect x="{x:.1f}" y="2" width="{max(span, 1):.1f}" '
        f'height="10" fill="{color}"><title>{rho:+.3f}</title></rect></svg>'
    )


def render_html(report: ResilienceReport) -> str:
    """Self-contained HTML resilience report."""
    e = _html.escape
    overall = report.mean_index()
    overall_label = "n/a" if overall is None else f"{overall:+.3f}"
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>repro-resilience</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>repro-resilience — {len(report.apps)} app(s), "
        f"{len(report.scenarios)} scenario(s), seed {report.seed}, "
        f"{report.nranks} ranks</h1>",
        f"<div class=summary><b>Overall mean resilience index: "
        f"{overall_label}.</b> rho = 1 &minus; "
        "&Delta;<sub>real</sub>/&Delta;<sub>original</sub> — the share of "
        "the injected degradation the overlap transform masked "
        "(1 = fully hidden, 0 = no help, negative = overlap hurt)."
        "</div>",
        "<h2>Per-scenario rows</h2>",
        "<table><tr><th class=name>app</th><th class=name>scenario</th>"
        "<th>baseline ms</th><th>perturbed ms</th><th>slowdown</th>"
        "<th>overlap ms</th><th>perturbed ms</th><th>slowdown</th>"
        "<th>rho</th><th class=name></th></tr>",
    ]
    for r in report.rows:
        rho = r.resilience_index
        cls = "" if rho is None else (" class=good" if rho >= 0
                                      else " class=bad")
        parts.append(
            f"<tr{cls}><td class=name>{e(r.app)}</td>"
            f"<td class=name title='{e(r.schedule)}'>{e(r.scenario)}</td>"
            f"<td>{_fmt_ms(r.baseline_original)}</td>"
            f"<td>{_fmt_ms(r.perturbed_original)}</td>"
            f"<td>{_fmt_x(r.slowdown_original)}</td>"
            f"<td>{_fmt_ms(r.baseline_real)}</td>"
            f"<td>{_fmt_ms(r.perturbed_real)}</td>"
            f"<td>{_fmt_x(r.slowdown_real)}</td>"
            f"<td>{_fmt_rho(rho)}</td>"
            f"<td class=name>{_rho_bar(rho)}</td></tr>"
        )
    parts.append("</table>")
    parts.append("<h2>Mean index per scenario</h2><table>"
                 "<tr><th class=name>scenario</th><th>mean rho</th></tr>")
    for kind in report.scenarios:
        mean = report.mean_index(kind)
        label = "n/a" if mean is None else f"{mean:+.3f}"
        parts.append(f"<tr><td class=name>{e(kind)}</td>"
                     f"<td>{label}</td></tr>")
    parts.append("</table>")
    parts.append(f"<p class=small>result digest {report.result_digest()} "
                 f"— identical across reruns and job counts for the same "
                 f"seed.</p>")
    parts.append("</body></html>")
    return "\n".join(parts)
