"""Golden replay digests: the behaviour lock of the replay core.

``result_digest`` defines replay behaviour bitwise.  This table pins it
for the paper's studies on three platforms each (one bus, the Table I
bus count, unlimited buses):

* the six Table I applications x {original, real, ideal} at 16 and
  at 64 ranks;
* the six named perturbation scenarios on BT/16 real, on one bus and
  on the Table I bus count;
* on CG/64 real, the full-audit verdict and the insight channel's
  occupancy timeline, queue peak/total and queue causes;
* ``analysis``: what the audit and the wait attribution read from a
  replay, each as a digest.  The attribution (``to_dict()`` and the
  segment list) of CG/64 real and of BT/16 real under the
  ``outage-stall`` and ``latency-spike`` scenarios, on the Table I bus
  count; the full-level audit report of the ``outage-stall`` replay;
  and the full-level report, context lines included, of CG/16 real on
  one bus replayed through a network that ignores the bus pool, so
  the occupancy check fires;
* ``table2``: for each Table I application at 16 ranks, the ``repr``
  of its measured Table II production and consumption fractions
  (:func:`~repro.experiments.tables.pattern_row`) and of the attainable
  overlap bound they give at 4 chunks; ``table2_64`` holds the same at
  64 ranks, the paper's scale;
* ``phases``: for each Table I application at 16 and 64 ranks, the
  ``repr`` of its phase-level headroom
  (:func:`~repro.core.phases.phase_overlap_potential`) on the channels
  the report reads;
* ``figure6``: the ``repr`` of the Figure 6(b) relaxation and 6(c)
  equivalent bandwidths of the real and ideal variants on CG/16 and
  BT/16 (BT's equivalents are ``inf``), and on all six applications at
  64 ranks, from the sequential walk.  The 16-rank ones are checked
  along four routes: the sequential search, a cold two-worker engine,
  a second two-worker engine on the same cache directory, and a serial
  engine on it.  The 64-rank ones are checked through one two-worker
  campaign over the six applications; SPECFEM3D/64's makespan is not
  monotone near its equivalent(real) threshold, so a route that
  decided a threshold from anything but the walk would show here;
* ``rct``: the SHA-256 of the ``.rct`` entry, access profiles
  included, that :class:`~repro.experiments.cache.TraceCache` writes
  for the six Table I originals at 16 ranks — the byte lock of the
  columnar format, which keeps existing cache directories readable,
  and of the tracer's output;
* ``derived``: the SHA-256 of ``encode()`` of the real and ideal
  traces of the six Table I applications at 16 ranks, as the overlap
  transformation returns them — the byte lock of its output, profiles
  included.

A change that is meant to leave behaviour alone must keep every entry
identical.  If a change legitimately alters replay results, regenerate
with::

    PYTHONPATH=src python -m tests.test_golden_digests
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.audit.auditor import AuditConfig
from repro.audit.certify import result_digest
from repro.core.phases import phase_overlap_potential
from repro.dimemas import PAPER_BUSES, MachineConfig, simulate
from repro.dimemas import replay as replay_module
from repro.dimemas.network import Network
from repro.experiments.bandwidth import (
    BandwidthSearch,
    equivalent_bandwidth,
    relaxation_bandwidth,
    search_bandwidths,
)
from repro.experiments.cache import SimResultCache, TraceCache
from repro.experiments.parallel import ExperimentEngine
from repro.experiments.pipeline import VARIANTS, AppExperiment
from repro.experiments.tables import pattern_row
from repro.insight.attribution import attribute
from repro.insight.channel import collect
from repro.insight.scorecard import attainable_overlap_bound
from repro.obs.metrics import get_registry
from repro.perturb.scenarios import SCENARIO_KINDS, build_scenario
from repro.trace.columnar import from_traceset

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"

#: Table I applications, in the paper's order.
APPS = tuple(PAPER_BUSES)
#: Applications locked at each rank count.
SCALES = {16: APPS, 64: APPS}
PLATFORMS = ("buses=1", "table1", "unlimited")
#: The perturbation cases: every scenario on BT/16 real, on these
#: platforms.
PERTURB_PLATFORMS = ("table1", "buses=1")
#: The rank count of the ``table2`` entries; ``table2_64`` holds the
#: same rows at 64 ranks.
TABLE2_NRANKS = 16
#: The rank counts of the ``phases`` entries.
PHASES_NRANKS = (16, 64)
#: The audit and insight case.
ANALYSIS_CASE = ("cg", 64, "real", "table1")
#: The Figure 6(b)/(c) threshold cases: both searches for both
#: overlapped variants, on these applications at each rank count.
FIGURE6_CASES = {16: ("cg", "bt"), 64: APPS}
SEARCHES = {"relaxation": relaxation_bandwidth,
            "equivalent": equivalent_bandwidth}
#: The originals whose trace-cache entry is locked byte for byte.
RCT_CASES = tuple((app, 16) for app in APPS)
#: The derived traces whose encoding is locked byte for byte.
DERIVED_CASES = tuple((app, 16, v) for app in APPS for v in ("real", "ideal"))
#: The ``analysis`` cases: ``(kind, app, nranks, variant, platform,
#: condition)``, the condition being a perturbation scenario (seed 0),
#: ``"bus-blind"`` (see :class:`BusBlindNetwork`) or None.
ANALYSIS_CASES = (
    ("attribution", "cg", 64, "real", "table1", None),
    ("attribution", "bt", 16, "real", "table1", "outage-stall"),
    ("attribution", "bt", 16, "real", "table1", "latency-spike"),
    ("audit", "bt", 16, "real", "table1", "outage-stall"),
    ("audit", "cg", 16, "real", "buses=1", "bus-blind"),
)


class BusBlindNetwork(Network):
    """Arbitrates ports only, so more transfers hold a bus than the
    platform has: every over-subscribed start is a violation the
    full-level occupancy check must report."""

    def _resources_free(self, t) -> bool:
        return self._free_out[t.src] >= 1 and self._free_in[t.dst] >= 1


def machine(app: str, platform: str) -> MachineConfig:
    base = MachineConfig.paper_testbed(app)
    if platform == "buses=1":
        return base.with_platform(buses=1)
    if platform == "unlimited":
        return base.with_platform(buses=None)
    return base


def case_id(app: str, nranks: int, variant: str, platform: str) -> str:
    return f"{app}/{nranks}/{variant}/{platform}"


def analysis_id(case: tuple) -> str:
    kind, app, nranks, variant, platform, condition = case
    tail = f"/{condition}" if condition else ""
    return f"{kind}/{case_id(app, nranks, variant, platform)}{tail}"


REPLAY_CASES = [
    (app, n, v, p)
    for n, apps in SCALES.items() for app in apps
    for v in VARIANTS for p in PLATFORMS
]

PERTURB_CASES = [(k, p) for k in SCENARIO_KINDS for p in PERTURB_PLATFORMS]


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


class Traces:
    """Lazily traced experiments, one per (app, nranks)."""

    def __init__(self) -> None:
        self._exps: dict[tuple[str, int], AppExperiment] = {}
        self._replays: dict[tuple, tuple[str, int, int]] = {}

    def experiment(self, app: str, nranks: int) -> AppExperiment:
        exp = self._exps.get((app, nranks))
        if exp is None:
            exp = self._exps[(app, nranks)] = AppExperiment(app, nranks)
        return exp

    def trace(self, app: str, nranks: int, variant: str):
        return self.experiment(app, nranks).trace(variant)

    def replay(self, app, nranks, variant, platform) -> tuple[str, int, int]:
        """``(result_digest, queue scan steps, messages)`` of one case,
        replayed once per module and read from the metrics registry."""
        key = (app, nranks, variant, platform)
        if key not in self._replays:
            counters = get_registry().counter
            steps0 = counters("replay.queue_scan_steps").value
            res = simulate(self.trace(app, nranks, variant),
                           machine(app, platform))
            steps = counters("replay.queue_scan_steps").value - steps0
            self._replays[key] = (result_digest(res), steps, len(res.messages))
        return self._replays[key]

    # -- the non-replay entries ------------------------------------------ #
    def schedule(self, app: str, nranks: int, kind: str, platform: str):
        """Scenario ``kind`` scaled to the original's makespan."""
        cfg = machine(app, platform)
        horizon = simulate(self.trace(app, nranks, "original"), cfg).duration
        return build_scenario(kind, horizon, seed=0)

    def perturbed(self, kind: str, platform: str) -> str:
        app, nranks, variant = "bt", 16, "real"
        res = simulate(self.trace(app, nranks, variant),
                       machine(app, platform),
                       perturb=self.schedule(app, nranks, kind, platform))
        return result_digest(res)

    def analysis(self, case: tuple) -> dict:
        """One ``analysis`` case: the attribution tables and segments,
        or the full-level audit report."""
        kind, app, nranks, variant, platform, condition = case
        perturb, network = None, contextlib.nullcontext()
        if condition == "bus-blind":
            network = mock.patch.object(replay_module, "Network",
                                        BusBlindNetwork)
        elif condition is not None:
            perturb = self.schedule(app, nranks, condition, platform)
        args = (self.trace(app, nranks, variant), machine(app, platform))
        with network:
            if kind == "attribution":
                res, col = collect(*args, perturb=perturb)
                att = attribute(res, col)
                return {
                    "attribution": att.to_dict(),
                    "segments": [dataclasses.astuple(s)
                                 for s in att.segments],
                }
            acfg = AuditConfig(level="full")
            simulate(*args, audit=acfg, perturb=perturb)
            return acfg.report.to_dict()

    def table2(self, app: str, nranks: int = TABLE2_NRANKS) -> dict:
        """``repr`` of one application's Table II row and its bound."""
        row = pattern_row(self.experiment(app, nranks))
        return {
            "production": {k: repr(v)
                           for k, v in vars(row.production).items()},
            "consumption": {k: repr(v)
                            for k, v in vars(row.consumption).items()},
            "bound": repr(attainable_overlap_bound(
                row.production, row.consumption, chunks=4)),
        }

    def phases(self, app: str, nranks: int) -> str:
        """``repr`` of one application's phase-level headroom, on the
        channels the report reads."""
        channel = None if app == "alya" else 0
        return repr(phase_overlap_potential(
            self.trace(app, nranks, "original"), channel=channel))

    def audit(self) -> dict:
        app, nranks, variant, platform = ANALYSIS_CASE
        acfg = AuditConfig(level="full")
        res = simulate(self.trace(app, nranks, variant),
                       machine(app, platform), audit=acfg)
        return {"digest": result_digest(res), "report": acfg.report.to_dict()}

    def rct_entry(self, app: str, nranks: int, directory: Path) -> bytes:
        """The ``.rct`` bytes a trace cache in ``directory`` writes for
        an original trace."""
        cache = TraceCache(directory)
        key = cache.key(app=app, nranks=nranks, params={})
        cache.load_or_build(key, lambda: self.trace(app, nranks, "original"))
        return cache.path_for(key).read_bytes()

    def derived_sha(self, app: str, nranks: int, variant: str) -> str:
        """SHA-256 of the encoded columns of a real or ideal trace."""
        data = self.trace(app, nranks, variant).encode()
        return hashlib.sha256(data).hexdigest()

    def insight(self) -> str:
        app, nranks, variant, platform = ANALYSIS_CASE
        _res, col = collect(self.trace(app, nranks, variant),
                            machine(app, platform))
        return _sha({
            "occupancy": col.occupancy,
            "queued_peak": col.queued_peak,
            "queued_total": col.queued_total,
            # Insertion order is queueing order; keys are object ids.
            "queue_causes": list(col.queue_cause.values()),
        })


def figure6(exp: AppExperiment, engine=None) -> dict[str, str]:
    """``repr`` of every Figure 6 threshold of one experiment."""
    return {
        f"{exp.app_name}/{exp.nranks}/{kind}/{variant}": repr(
            search(exp, variant, engine=engine))
        for kind, search in SEARCHES.items()
        for variant in ("real", "ideal")
    }


def build_golden(traces: Traces) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        rct = {
            f"{app}/{n}": hashlib.sha256(
                traces.rct_entry(app, n, Path(scratch) / f"{app}-{n}")
            ).hexdigest()
            for app, n in RCT_CASES
        }
    return {
        "replay": {
            case_id(*c): traces.replay(*c)[0] for c in REPLAY_CASES
        },
        "perturb": {
            f"{k}/{p}": traces.perturbed(k, p) for k, p in PERTURB_CASES
        },
        "table2": {app: traces.table2(app) for app in APPS},
        "table2_64": {app: traces.table2(app, 64) for app in APPS},
        "phases": {f"{app}/{n}": traces.phases(app, n)
                   for app in APPS for n in PHASES_NRANKS},
        "audit": traces.audit(),
        "insight": traces.insight(),
        "analysis": {analysis_id(c): _sha(traces.analysis(c))
                     for c in ANALYSIS_CASES},
        "figure6": {
            k: v for n, apps in FIGURE6_CASES.items() for app in apps
            for k, v in figure6(traces.experiment(app, n)).items()
        },
        "rct": rct,
        "derived": {
            "/".join(map(str, c)): traces.derived_sha(*c)
            for c in DERIVED_CASES
        },
    }


@pytest.fixture(scope="module")
def traces() -> Traces:
    return Traces()


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN.exists(), (
        "golden file missing; generate with "
        "PYTHONPATH=src python -m tests.test_golden_digests"
    )
    return json.loads(GOLDEN.read_text())


class TestGoldenDigests:
    def test_table_covers_every_case(self, golden):
        assert sorted(golden["replay"]) == sorted(
            case_id(*c) for c in REPLAY_CASES
        )
        assert sorted(golden["perturb"]) == sorted(
            f"{k}/{p}" for k, p in PERTURB_CASES
        )
        assert sorted(golden["table2"]) == sorted(APPS)
        assert sorted(golden["table2_64"]) == sorted(APPS)
        assert sorted(golden["phases"]) == sorted(
            f"{app}/{n}" for app in APPS for n in PHASES_NRANKS
        )
        assert sorted(golden["figure6"]) == sorted(
            f"{app}/{n}/{kind}/{variant}"
            for n, apps in FIGURE6_CASES.items() for app in apps
            for kind in SEARCHES for variant in ("real", "ideal")
        )
        assert sorted(golden["rct"]) == sorted(
            f"{app}/{n}" for app, n in RCT_CASES
        )
        assert sorted(golden["analysis"]) == sorted(
            analysis_id(c) for c in ANALYSIS_CASES
        )
        assert sorted(golden["derived"]) == sorted(
            "/".join(map(str, c)) for c in DERIVED_CASES
        )

    @pytest.mark.parametrize(
        "case", REPLAY_CASES, ids=[case_id(*c) for c in REPLAY_CASES],
    )
    def test_replay(self, traces, golden, case):
        assert traces.replay(*case)[0] == golden["replay"][case_id(*case)]

    @pytest.mark.parametrize(
        "kind,platform", PERTURB_CASES,
        ids=[f"{k}/{p}" for k, p in PERTURB_CASES],
    )
    def test_perturbation(self, traces, golden, kind, platform):
        assert (traces.perturbed(kind, platform)
                == golden["perturb"][f"{kind}/{platform}"])

    @pytest.mark.parametrize("app", APPS)
    def test_table2(self, traces, golden, app):
        assert traces.table2(app) == golden["table2"][app]

    @pytest.mark.parametrize("app", APPS)
    def test_table2_paper_scale(self, traces, golden, app):
        assert traces.table2(app, 64) == golden["table2_64"][app]

    @pytest.mark.parametrize("nranks", PHASES_NRANKS)
    @pytest.mark.parametrize("app", APPS)
    def test_phase_headroom(self, traces, golden, app, nranks):
        assert traces.phases(app, nranks) == golden["phases"][f"{app}/{nranks}"]

    def test_full_audit(self, traces, golden):
        assert traces.audit() == golden["audit"]

    def test_insight_channel(self, traces, golden):
        assert traces.insight() == golden["insight"]

    @pytest.mark.parametrize("case", ANALYSIS_CASES, ids=analysis_id)
    def test_analysis(self, traces, golden, case):
        assert (_sha(traces.analysis(case))
                == golden["analysis"][analysis_id(case)])

    def test_occupancy_check_fires(self, traces):
        """Over-subscribing the bus pool is reported, the same way on
        every run."""
        case = ("audit", "cg", 16, "real", "buses=1", "bus-blind")
        first = traces.analysis(case)
        codes = [v["code"] for v in first["violations"]]
        assert codes.count("network.occupancy") == 607
        assert all(v["context"] for v in first["violations"])
        assert traces.analysis(case) == first

    @pytest.mark.parametrize("app,nranks", RCT_CASES,
                             ids=[f"{a}/{n}" for a, n in RCT_CASES])
    def test_trace_cache_entry_bytes(self, traces, golden, tmp_path,
                                     app, nranks):
        data = traces.rct_entry(app, nranks, tmp_path)
        assert (hashlib.sha256(data).hexdigest()
                == golden["rct"][f"{app}/{nranks}"])
        col = from_traceset(traces.trace(app, nranks, "original"))
        assert col.encode() == data

    @pytest.mark.parametrize("app,nranks,variant", DERIVED_CASES,
                             ids=["/".join(map(str, c)) for c in DERIVED_CASES])
    def test_derived_trace_bytes(self, traces, golden, app, nranks, variant):
        assert (traces.derived_sha(app, nranks, variant)
                == golden["derived"][f"{app}/{nranks}/{variant}"])


class TestFigure6Thresholds:
    """The bandwidth searches give the locked thresholds on every route."""

    @pytest.mark.parametrize("app", FIGURE6_CASES[16])
    def test_every_route(self, golden, tmp_path, app):
        expected = {k: v for k, v in golden["figure6"].items()
                    if k.startswith(f"{app}/16/")}
        assert len(expected) == 4

        def cached_exp() -> AppExperiment:
            return AppExperiment(
                app, 16, cache=TraceCache(tmp_path / "traces"),
                sim_cache=SimResultCache(tmp_path / "replays"),
            )

        assert figure6(AppExperiment(app, 16)) == expected, "sequential"
        for route, jobs in (("cold pool", 2), ("warm pool", 2),
                            ("serial engine", 1)):
            exp = cached_exp()
            with ExperimentEngine(jobs=jobs, cache_dir=tmp_path) as engine:
                assert figure6(exp, engine=engine) == expected, route

    def test_paper_scale_campaign(self, traces, golden):
        """All 24 searches at 64 ranks, as one two-worker campaign."""
        searches = [
            BandwidthSearch(traces.experiment(app, 64), kind, variant)
            for app in FIGURE6_CASES[64] for kind in SEARCHES
            for variant in ("real", "ideal")
        ]
        with ExperimentEngine(jobs=2) as engine:
            found = search_bandwidths(engine, searches)
        assert {
            f"{s.exp.app_name}/64/{s.kind}/{s.variant}": repr(f)
            for s, f in zip(searches, found)
        } == {k: v for k, v in golden["figure6"].items() if "/64/" in k}


#: Queued entries whose resources may be checked per replayed message.
MAX_SCAN_STEPS_PER_MESSAGE = 4

SCAN_CASES = [c for c in REPLAY_CASES if c[0] in ("cg", "bt")]


class TestQueueScanCost:
    """Network arbitration cost stays flat from 16 to 64 ranks."""

    @pytest.mark.parametrize(
        "case", SCAN_CASES, ids=[case_id(*c) for c in SCAN_CASES],
    )
    def test_scan_steps_per_message_bounded(self, traces, case):
        _digest, steps, messages = traces.replay(*case)
        assert messages > 0
        assert steps <= MAX_SCAN_STEPS_PER_MESSAGE * messages, (
            f"{steps / messages:.2f} queue scan steps per message"
        )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(build_golden(Traces()), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
