"""Cost-count lock: what the pipeline's work costs, counted exactly.

Tracing, transformation and replay are deterministic, so the cost of a
workload is a set of counts that no host can change: traces built,
transforms run, replays with their events and queue-scan steps,
bandwidth probes, grid points executed, cache lookups, and the files
and bytes written to the cache.  This module runs the pipeline
benchmark's three workloads at a small scale, directly against
``repro``, and locks in ``data/cost_counts.json``, for every phase:

* ``counters``: the change of every registry counter that moves, except
  the ones in :data:`EXCLUDED`, each listed with the reason it cannot be
  locked;
* ``cache``: per cache subdirectory and file kind, how many files the
  phase wrote (created or replaced) and their bytes;
* ``results``: a digest of the phase's durations, thresholds or replay
  digests.  Every route of one scenario must give the same one.

The scenarios:

* ``triples``: the six Table I applications x {original, real, ideal}
  at 4 ranks, one ``run_grid`` on a serial engine with a fresh cache,
  cold and then warm (a new engine on the same directory);
* ``figure6``: for CG/8 and BT/8, the Figure 6(a) bandwidth ladder of
  each variant through ``durations``, then all eight Figure 6(b)/(c)
  searches as one ``search_bandwidths`` campaign; on ``jobs=1`` and on
  ``jobs=2``, each cold and then warm on one cache directory;
* ``explain``: one BT/8 session without a cache: replay each variant,
  explain the triple, certify each variant at the full audit level,
  then replay each variant under a seeded ``bandwidth-sag`` scenario.

A moved count is a changed algorithm, never noise.  A change that means
to move one regenerates the lock and says why, as for the golden
digests::

    PYTHONPATH=src python -m tests.test_cost_counts
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.audit.certify import certify_trace, result_digest
from repro.dimemas.replay import simulate
from repro.experiments.bandwidth import BandwidthSearch, search_bandwidths
from repro.experiments.cache import SimResultCache, TraceCache
from repro.experiments.parallel import ExperimentEngine, GridPoint, expand_grid
from repro.experiments.pipeline import VARIANTS, AppExperiment
from repro.insight.explain import explain_experiment
from repro.obs.metrics import get_registry
from repro.perturb.scenarios import build_scenario

LOCK = Path(__file__).parent / "data" / "cost_counts.json"

#: Table I applications, in the paper's order.
TABLE1_APPS = ("sweep3d", "pop", "alya", "specfem3d", "bt", "cg")
#: Figure 6(a) bandwidth ladder (MB/s); None is the baseline platform.
LADDER = (None, 31.25, 62.5, 125.0, 250.0, 500.0)
FIGURE6_APPS = ("cg", "bt")
SEARCHES = tuple((kind, variant) for kind in ("relaxation", "equivalent")
                 for variant in ("real", "ideal"))

#: Every scenario's phases, in the order they run.
PHASES = {
    "triples": ("cold", "warm"),
    "figure6": ("jobs=1/cold", "jobs=1/warm", "jobs=2/cold", "jobs=2/warm"),
    "explain": ("replay", "explain", "certify", "perturb"),
}
#: The scenarios whose phases are routes to one answer.
ROUTES = ("triples", "figure6")

#: Counters that move but are not a function of the work alone.
EXCLUDED = {
    "replay.plans_built": "per-process plan LRU: a pool builds one plan "
                          "per trace per worker that replays it, and the "
                          "parent keeps plans from earlier phases",
    "cache.dispatch.misses": "failure path: a worker misses only a "
                             "dispatch entry that was lost or corrupted",
    "engine.points_failed": "failure path: a healthy run fails no point",
    "engine.pool_recycles": "failure path: only a dead worker recycles "
                            "the pool",
    "engine.drains": "failure path: set by a signal",
    "cache.degraded": "failure path: only an I/O failure degrades a cache",
    "cache.discarded": "failure path: only a corrupt entry is discarded",
    "replay.deadlocks": "failure path: a healthy trace never deadlocks",
    "replay.watchdog_expired": "failure path: set by a replay budget",
}


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _listing(root: Path | None) -> dict[Path, tuple[int, int, int]]:
    """Every file under ``root``: its inode, mtime and size."""
    out = {}
    if root is not None and root.exists():
        for p in root.rglob("*"):
            if p.is_file():
                st = p.stat()
                out[p.relative_to(root)] = (st.st_ino, st.st_mtime_ns,
                                            st.st_size)
    return out


def _written(before: dict, after: dict) -> dict[str, list[int]]:
    """Files and bytes written between two listings, by directory and
    file kind (``replays/*.dur``): created or replaced files only."""
    out: dict[str, list[int]] = {}
    for rel, (ino, mtime, size) in sorted(after.items()):
        if before.get(rel, (None, None))[:2] == (ino, mtime):
            continue
        files_bytes = out.setdefault(f"{rel.parent}/*{rel.suffix}", [0, 0])
        files_bytes[0] += 1
        files_bytes[1] += size
    return out


def _phase(run, root: Path | None = None) -> dict:
    """Run one phase; its counter changes, cache writes and results."""
    reg = get_registry()
    counters, files = reg.counters(), _listing(root)
    results = run()
    moved = {name: value - counters.get(name, 0)
             for name, value in sorted(reg.counters().items())
             if value != counters.get(name, 0) and name not in EXCLUDED}
    return {"counters": moved, "cache": _written(files, _listing(root)),
            "results": _digest(results)}


def triples(scratch: Path) -> dict:
    points = [GridPoint(app=app, variant=v, nranks=4)
              for app in TABLE1_APPS for v in VARIANTS]

    def run() -> list[str]:
        with ExperimentEngine(jobs=1, cache_dir=scratch) as engine:
            return [result_digest(r) for r in engine.run_grid(points)]

    return {phase: _phase(run, scratch) for phase in PHASES["triples"]}


def _figure6(root: Path, jobs: int) -> list[str]:
    """The Figure 6(a) ladder per variant, then every search at once."""
    out = []
    with ExperimentEngine(jobs=jobs, cache_dir=root) as engine:
        for app in FIGURE6_APPS:
            for v in VARIANTS:
                points = expand_grid((app,), variants=(v,), bandwidths=LADDER,
                                     nranks=8)
                out += engine.durations(points)
        searches = []
        for app in FIGURE6_APPS:
            exp = AppExperiment(app, nranks=8,
                                cache=TraceCache(root / "traces"),
                                sim_cache=SimResultCache(root / "replays"))
            searches += [BandwidthSearch(exp, kind, v) for kind, v in SEARCHES]
        out += search_bandwidths(engine, searches)
    return [repr(x) for x in out]


def figure6(scratch: Path) -> dict:
    out = {}
    for jobs in (1, 2):
        root = scratch / f"jobs{jobs}"
        for temp in ("cold", "warm"):
            out[f"jobs={jobs}/{temp}"] = _phase(lambda: _figure6(root, jobs),
                                               root)
    return out


def explain(scratch: Path) -> dict:
    exp = AppExperiment("bt", nranks=8)
    out = {"replay": _phase(
        lambda: [result_digest(exp.simulate(v)) for v in VARIANTS])}

    def explained() -> dict:
        e = explain_experiment(exp)
        return {"results": {v: result_digest(r) for v, r in e.results.items()},
                "bounds": {v: repr(s.attainable_bound)
                           for v, s in e.scorecards.items()}}

    out["explain"] = _phase(explained)
    out["certify"] = _phase(lambda: [
        (r.ok, len(r.violations), r.trace_digest)
        for r in (certify_trace(exp.trace(v), exp.machine, level="full")
                  for v in VARIANTS)])
    schedule = build_scenario("bandwidth-sag", exp.simulate("original").duration,
                              seed=0)
    out["perturb"] = _phase(lambda: [
        result_digest(simulate(exp.trace(v), exp.machine, perturb=schedule))
        for v in VARIANTS])
    return out


SCENARIOS = {"triples": triples, "figure6": figure6, "explain": explain}


def measure_all(scratch: Path) -> dict:
    return {name: run(scratch / name) for name, run in SCENARIOS.items()}


@pytest.fixture(scope="module")
def lock() -> dict:
    assert LOCK.exists(), (
        "cost-count lock missing; generate with "
        "PYTHONPATH=src python -m tests.test_cost_counts"
    )
    return json.loads(LOCK.read_text())


@pytest.fixture(scope="module")
def measured(tmp_path_factory) -> dict:
    return measure_all(tmp_path_factory.mktemp("cost-counts"))


CASES = [(s, p) for s, phases in PHASES.items() for p in phases]
#: The phases that start from an empty cache directory.
COLD = [("triples", "cold"), ("figure6", "jobs=1/cold"),
        ("figure6", "jobs=2/cold")]


class TestCostCounts:
    def test_table_covers_every_scenario_and_phase(self, lock):
        assert {s: sorted(phases) for s, phases in lock.items()} == {
            s: sorted(phases) for s, phases in PHASES.items()}

    @pytest.mark.parametrize("scenario,phase", CASES,
                             ids=[f"{s}/{p}" for s, p in CASES])
    def test_phase(self, measured, lock, scenario, phase):
        assert measured[scenario][phase] == lock[scenario][phase]

    @pytest.mark.parametrize("scenario", ROUTES)
    def test_routes_agree(self, measured, scenario):
        results = {p: measured[scenario][p]["results"]
                   for p in PHASES[scenario]}
        assert len(set(results.values())) == 1, results

    @pytest.mark.parametrize("scenario,phase", COLD,
                             ids=[f"{s}/{p}" for s, p in COLD])
    def test_one_lookup_per_executed_point(self, measured, scenario, phase):
        counters = measured[scenario][phase]["counters"]
        assert (counters["cache.replay.misses"]
                == counters["engine.points_executed"])

    def test_pool_replays_what_the_serial_route_replays(self, measured):
        """Workers never re-trace: the pool ships every point it executes
        by digest, the parent traces each original once, and the pool
        replays exactly the serial route's replays."""
        serial, pooled = (measured["figure6"][f"jobs={jobs}/cold"]["counters"]
                          for jobs in (1, 2))
        assert "engine.dispatch.spec_points" not in pooled
        assert (pooled["engine.dispatch.ship_points"]
                == pooled["engine.points_executed"])
        assert pooled["smpi.runs"] == serial["smpi.runs"] == len(FIGURE6_APPS)
        for name in ("replay.runs", "replay.events", "replay.queue_scan_steps"):
            assert pooled[name] == serial[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        doc = measure_all(Path(scratch))
    LOCK.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {LOCK}")
