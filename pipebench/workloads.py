"""The benchmark's workloads, each run inside a fresh interpreter.

``run.py`` starts this file as a child process once per measurement, so
every cold pass starts from an empty interpreter and an empty cache
directory.  Two modes::

    python3 pipebench/workloads.py setup --workload NAME --work-dir DIR
    python3 pipebench/workloads.py run --workload NAME --seed N \\
        --work-dir DIR [--warm K] [--warm-until T] [--trace] \\
        [--scale full|small]

``setup`` times importing ``repro`` and constructing the workload's
``ExperimentEngine`` (pool fork and warm-up included).  ``run`` times one
cold pass, then ``K`` warm passes, checks every result against
``reference.json``, and with ``--trace`` also reports the per-layer
metrics of the cold pass (see ``layers.py``).  Every timing is taken
twice: as wall time, and at a fixed host speed (:class:`HostClock`).
Each mode prints one JSON object as the last line of its standard
output.

The seed sets the perturbation-scenario seed and the order in which the
workload's items are issued; ``repro`` itself only ever sees the
generated inputs.  References are stored for seed 0; on any other seed
the seed-independent results must still match them, and seed-dependent
results must repeat exactly from pass to pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0

VARIANTS = ("original", "real", "ideal")
#: Table I applications, in the paper's order.
TABLE1_APPS = ("sweep3d", "pop", "alya", "specfem3d", "bt", "cg")
#: Figure 6 bandwidth ladder (MB/s); None is the baseline platform.
LADDER = (None, 31.25, 62.5, 125.0, 250.0, 500.0)
#: Figure 6(b)/(c) searches: (kind, variant).
SEARCHES = (("relaxation", "real"), ("relaxation", "ideal"),
            ("equivalent", "real"), ("equivalent", "ideal"))
#: Least wall time between two host reference tasks inside a pass.
SEGMENT_S = 0.5


def pool_jobs() -> int:
    """Pool size of the parallel workload: one worker per CPU, 2 to 4."""
    return max(2, min(4, len(os.sched_getaffinity(0))))


class Workload:
    """One workload: a cold pass, repeatable warm passes, a reference."""

    name = ""
    jobs = 1
    #: Rank count at each scale.  ``small`` is for the self-test only.
    nranks = {"full": 64, "small": 4}

    def __init__(self, scale: str, seed: int, work_dir: Path):
        self.scale = scale
        self.seed = seed
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.clock = HostClock()

    @property
    def ranks(self) -> int:
        return self.nranks[self.scale]

    def cold(self) -> dict:
        """Produce the workload's answer from nothing: ``{op: result}``."""
        raise NotImplementedError

    def warm(self) -> dict:
        """Produce it again with caches and memos filled."""
        raise NotImplementedError

    def seed_dependent(self, op: str) -> bool:
        return False

    def step(self) -> None:
        """A step of a pass has ended: the clock may cut a segment here."""
        self.clock.step()


class Triples(Workload):
    """Table I apps x {original, real, ideal}, one replay each, serial.

    The apps are issued in Table I order and the seed shuffles the
    variants within each app: the order of the apps alone moves peak
    memory by up to a quarter, which would make it a function of the
    seed rather than of the program.
    """

    name = "triples-16"
    nranks = {"full": 16, "small": 4}

    def __init__(self, *args):
        super().__init__(*args)
        from repro.experiments import GridPoint

        self.points = [GridPoint(app=app, variant=v, nranks=self.ranks)
                       for app in TABLE1_APPS
                       for v in self.rng.sample(VARIANTS, len(VARIANTS))]

    def cold(self) -> dict:
        from repro.experiments import ExperimentEngine

        out = {}
        with ExperimentEngine(jobs=1, cache_dir=self.work_dir) as engine:
            for app in TABLE1_APPS:
                points = [p for p in self.points if p.app == app]
                for p, r in zip(points, engine.run_grid(points)):
                    out[f"{p.app}/{p.variant}"] = r
                self.step()
        return out

    warm = cold


class Figure6(Workload):
    """Figure 6(a)-(c) for NAS CG through the process pool."""

    name = "fig6-cg-64"
    jobs = pool_jobs()

    def __init__(self, *args):
        super().__init__(*args)
        from repro.experiments import expand_grid

        self.points = expand_grid(("cg",), variants=VARIANTS,
                                  bandwidths=LADDER, nranks=self.ranks)
        self.rng.shuffle(self.points)
        self.searches = list(SEARCHES)
        self.rng.shuffle(self.searches)

    def cold(self) -> dict:
        return self.figure6(self.jobs)

    warm = cold

    def figure6(self, jobs: int) -> dict:
        """The speedup ladder, then the four bandwidth searches.

        The ladder is issued one variant at a time, each variant's six
        points in one call, so the pool replays them side by side.  With
        ``jobs=1`` the engine is not mediated, so the searches run the
        plain sequential bisection, exactly like ``repro-report``.
        """
        from repro.experiments import (
            AppExperiment, ExperimentEngine, SimResultCache, TraceCache,
            equivalent_bandwidth, relaxation_bandwidth,
        )

        search = {"relaxation": relaxation_bandwidth,
                  "equivalent": equivalent_bandwidth}
        out = {}
        with ExperimentEngine(jobs=jobs, cache_dir=self.work_dir) as engine:
            variants = dict.fromkeys(p.variant for p in self.points)
            for variant in variants:
                points = [p for p in self.points if p.variant == variant]
                for p, d in zip(points, engine.durations(points)):
                    out[f"duration/{p.variant}@{p.bandwidth_mbps}"] = d
                self.step()
            exp = AppExperiment(
                "cg", nranks=self.ranks,
                cache=TraceCache(self.work_dir / "traces"),
                sim_cache=SimResultCache(self.work_dir / "replays"),
            )
            eng = engine if engine.mediated else None
            for kind, variant in self.searches:
                out[f"{kind}/{variant}"] = search[kind](exp, variant,
                                                        engine=eng)
                self.step()
            exp.cache.flush()
        return out


class Explain(Workload):
    """One NAS BT analysis session: replay, explain, certify, perturb."""

    name = "explain-bt-64"

    def __init__(self, *args):
        super().__init__(*args)
        self.order = list(VARIANTS)
        self.rng.shuffle(self.order)
        self.exp = self.schedule = None

    def cold(self) -> dict:
        from repro.experiments import AppExperiment
        from repro.perturb import build_scenario

        self.exp = AppExperiment("bt", nranks=self.ranks)
        out = {}
        for v in self.order:
            out[f"replay/{v}"] = self.exp.simulate(v)
            self.step()
        horizon = self.exp.simulate("original").duration
        self.schedule = build_scenario("bandwidth-sag", horizon,
                                       seed=self.seed)
        out.update(self.warm())
        return out

    def warm(self) -> dict:
        """Steps 2-4, on the traces and plans the cold pass built."""
        from repro.audit import certify_trace
        from repro.dimemas.replay import simulate
        from repro.insight import explain_experiment

        exp = self.exp
        out = {"explain": explain_experiment(exp)}
        self.step()
        for v in self.order:
            out[f"certify/{v}"] = certify_trace(exp.trace(v), exp.machine,
                                                level="full")
            self.step()
        for v in self.order:
            out[f"perturbed/{v}"] = simulate(exp.trace(v), exp.machine,
                                             perturb=self.schedule)
            self.step()
        return out

    def seed_dependent(self, op: str) -> bool:
        return op.startswith("perturbed/")


WORKLOADS = {w.name: w for w in (Triples, Figure6, Explain)}


def fingerprint(result) -> str:
    """The exact identity of one operation's result, as text.

    Replays by ``result_digest``, numbers (makespans, thresholds) by
    their full ``repr``, certifications by verdict and trace digest, and
    an explanation by the digests of its replays plus its Table II
    attainable-overlap bounds.
    """
    from repro.audit import result_digest

    if isinstance(result, float):
        return repr(result)
    if hasattr(result, "scorecards"):
        return json.dumps({
            "results": {v: result_digest(r)
                        for v, r in result.results.items()},
            "bounds": {v: repr(s.attainable_bound)
                       for v, s in result.scorecards.items()},
        }, sort_keys=True)
    if hasattr(result, "violations"):
        return (f"ok={result.ok} violations={len(result.violations)} "
                f"trace={result.trace_digest}")
    return result_digest(result)


def mismatches(observed: dict[str, str], reference: dict[str, str],
               seed: int, seed_dependent, first: dict[str, str] | None = None,
               ) -> list[str]:
    """Operations whose result differs from what it must be.

    Seed-independent results must equal the committed reference.
    Seed-dependent ones must equal the reference on the reference seed,
    and on other seeds the first pass of the same run (``first``).
    """
    bad = []
    for op, value in sorted(observed.items()):
        if seed_dependent(op) and seed != REFERENCE_SEED:
            expected = (first or {}).get(op, value)
        else:
            expected = reference.get(op)
        if value != expected:
            bad.append(op)
    if first is None:
        bad.extend(op for op in sorted(reference)
                   if op not in observed and not seed_dependent(op))
    return bad


def load_reference(scale: str, workload: str) -> dict[str, str]:
    doc = json.loads(REFERENCE.read_text())
    return doc[scale].get(workload, {})


def write_reference(scale: str, workload: str, observed: dict) -> None:
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc["seed"] = REFERENCE_SEED
    doc.setdefault(scale, {})[workload] = dict(sorted(observed.items()))
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def import_program() -> None:
    """Import every ``repro`` module the workloads enter.

    Done before any timer starts in a run, so a cold pass never pays for
    module imports; the set-up metric times exactly this.
    """
    import repro.apps.base  # noqa: F401
    import repro.audit.certify  # noqa: F401
    import repro.core.ideal  # noqa: F401
    import repro.dimemas.replay  # noqa: F401
    import repro.experiments.parallel  # noqa: F401
    import repro.insight.explain  # noqa: F401
    import repro.perturb  # noqa: F401
    import repro.trace.columnar  # noqa: F401


def host_reference() -> float:
    """Seconds this host takes, right now, for a fixed task outside ``repro``.

    The task builds a fixed JSON document, encodes and decodes it, then
    sorts and counts its rows: the kind of work a warm pass does (cache
    entries in JSON, many small Python objects).  :class:`HostClock`
    divides the program's timings by it to take the host's speed drift
    out of them.  The garbage collector is off meanwhile, so the
    program's own heap cannot change the task's time.
    """
    rng = random.Random(1)
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        doc = {f"rank{r}": [[rng.random(), rng.randrange(1 << 20), str(i)]
                            for i in range(500)] for r in range(64)}
        counts: dict[int, int] = {}
        for rows in json.loads(json.dumps(doc, sort_keys=True)).values():
            rows.sort()
            for _, key, _ in rows:
                counts[key & 255] = counts.get(key & 255, 0) + 1
        return time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


class HostClock:
    """Times a pass as wall time and in units of the host reference task.

    The host's speed drifts by tens of percent within seconds, so one
    reference task before and one after a long pass say little about
    the speed during it.  The clock therefore cuts a pass at the
    workload's step boundaries (:meth:`Workload.step`), at least
    ``SEGMENT_S`` apart, and runs the reference task, untimed, at each
    cut.  ``wall`` is the pass without those tasks; ``scaled`` is
    ``wall`` over the mean of the reference tasks at the pass's start,
    cuts and end.  A pass shorter than ``SEGMENT_S`` has no cut.
    """

    def __init__(self):
        self.refs = [host_reference()]
        self.wall = self.scaled = 0.0
        self.t0: float | None = None

    def start(self) -> None:
        self.wall = 0.0
        self.first = len(self.refs) - 1
        self.t0 = time.perf_counter()

    def step(self) -> None:
        if self.t0 is not None and time.perf_counter() - self.t0 >= SEGMENT_S:
            self._cut()

    def stop(self) -> None:
        self._cut()
        self.t0 = None
        self.scaled = self.wall / statistics.fmean(self.refs[self.first:])

    def _cut(self) -> None:
        self.wall += time.perf_counter() - self.t0
        # The reference task must not compete with the writeback of the
        # cache files the segment wrote.
        os.sync()
        self.refs.append(host_reference())
        self.t0 = time.perf_counter()


def setup_mode(args) -> dict:
    clock = HostClock()
    clock.start()
    import_program()
    from repro.experiments import ExperimentEngine
    from repro.experiments.parallel import _worker_warmup

    engine = ExperimentEngine(jobs=WORKLOADS[args.workload].jobs,
                              cache_dir=args.work_dir)
    if engine.jobs > 1:
        # The engine forks its pool lazily at the first point and has no
        # public hook for it; this is the warm-up it submits itself.
        engine._ensure_pool().submit(_worker_warmup).result()
    clock.stop()
    engine.close()
    return {"setup_s": clock.wall, "setup_scaled": clock.scaled}


def measure(fn, clock: HostClock) -> dict[str, str]:
    """Time one pass on ``clock``; fingerprint its results after it stops.

    The results themselves are dropped on return, so no pass runs while
    the previous pass's results are still alive.
    """
    clock.start()
    results = fn()
    clock.stop()
    return {op: fingerprint(r) for op, r in results.items()}


def run_mode(args) -> dict:
    import_program()
    wl = WORKLOADS[args.workload](args.scale, args.seed, args.work_dir)
    report = None
    if args.trace:
        from layers import LayerReport, LayerTracer

        report = LayerReport(LayerTracer().install())
    clock = wl.clock
    out = {"attempted": 0, "failed": 0, "mismatches": [], "warm_s": [],
           "warm_scaled": []}

    def check(observed, first=None) -> None:
        bad = mismatches(observed, reference, args.seed, wl.seed_dependent,
                         first)
        out["attempted"] += len(observed)
        out["failed"] += len(bad)
        out["mismatches"].extend(bad)

    cold = measure(wl.cold, clock)
    out["cold_s"], out["cold_scaled"] = clock.wall, clock.scaled
    if report is not None:
        report.end_cold(out["cold_s"], jobs=wl.jobs)
    if args.write_reference:
        write_reference(args.scale, args.workload, cold)
    reference = load_reference(args.scale, args.workload)
    check(cold)
    lap = 0.0  # a whole warm iteration, reference tasks included
    while (len(out["warm_s"]) < args.warm
           or time.time() + lap <= args.warm_until):
        t0 = time.time()
        observed = measure(wl.warm, clock)
        out["warm_s"].append(clock.wall)
        out["warm_scaled"].append(clock.scaled)
        if report is not None and len(out["warm_s"]) == 1:
            report.end_warm(clock.wall, ops=len(observed))
        check(observed, cold)
        lap = time.time() - t0
    if report is not None:
        if isinstance(wl, Figure6):
            report.begin_serial()
            observed = measure(lambda: wl.figure6(1), clock)
            report.end_serial(clock.wall)
            check(observed, cold)
        out["layers"] = report.metrics()
    out["peak_rss_mb"] = peak_rss_mb()
    out["ref_s"] = clock.refs
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--work-dir", required=True, type=Path)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    ap.add_argument("--warm", type=int, default=0,
                    help="warm passes after the cold pass")
    ap.add_argument("--warm-until", type=float, default=0.0,
                    help="then keep making warm passes until this time "
                         "(seconds since the epoch)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's cold results as the reference "
                         "(seed 0 only)")
    args = ap.parse_args(argv)
    if args.write_reference and args.seed != REFERENCE_SEED:
        ap.error(f"references are stored for seed {REFERENCE_SEED}")
    try:
        doc = (setup_mode if args.mode == "setup" else run_mode)(args)
    except Exception:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        print(json.dumps({"error": traceback.format_exc(limit=1)}))
        return 1
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
