"""Parallel experiment engine: fan grids of replays across processes.

The paper's whole evaluation is a grid of replays — every
bandwidth-bisection step, bus count, chunk count, and app variant
re-runs :func:`repro.dimemas.replay.simulate` on some platform.  This
module turns that grid into a schedulable unit:

* :class:`GridPoint` — one fully-described replay: ``(app, variant,
  bandwidth, buses, latency, chunks, nranks, app_params, machine)``;
* :class:`ExperimentEngine` — runs grids serially (``jobs=1``) or on a
  process pool (``jobs=N``), with one experiment per trace and process
  and optional on-disk caches
  (:class:`~repro.experiments.cache.TraceCache` and
  :class:`~repro.experiments.cache.SimResultCache`) shared by all
  workers, so repeated points are free across processes *and* sessions;
* :func:`expand_grid` — the grid builder of the Figure 6 style
  evaluations.

Replay is deterministic, so a parallel grid returns results identical
to the serial run, point for point; scheduling only changes wall-clock.
The Figure 6 bandwidth searches run on it as one campaign of
sequential walks (:func:`repro.experiments.bandwidth.search_bandwidths`):
the engine replays each round's probes side by side, and a threshold
is read off its walk alone, so it is the same on every job count.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import logging
import tempfile
import threading
import time
import traceback as _tb
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from ..dimemas.machine import MachineConfig
from ..dimemas.replay import simulate
from ..dimemas.results import SimResult
from ..obs import (
    collect_worker_payload,
    configure_worker,
    current_run,
    get_registry,
    span as _span,
    worker_config,
)
from .cache import SimResultCache, TraceCache, TraceStore
from .checkpoint import CampaignInterrupted
from .pipeline import AppExperiment, override_platform, paper_testbed

__all__ = [
    "DegradedBracketError",
    "ExperimentEngine",
    "GridExecutionError",
    "GridPoint",
    "PointFailure",
    "engine_or_serial",
    "expand_grid",
]

_log = logging.getLogger("repro.experiments.parallel")


def _normalize_params(params: Mapping | Iterable | None) -> tuple:
    """App parameters as a sorted, hashable, picklable tuple of pairs."""
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class GridPoint:
    """One replay of the experiment grid (hashable and picklable).

    A point names a trace, whose identity is :meth:`experiment_key`,
    and its own platform, :meth:`platform`: ``machine`` is the
    baseline (``None``: the application's paper test bed), and
    ``bandwidth_mbps`` / ``buses`` / ``latency`` override it exactly
    like the corresponding
    :meth:`~repro.experiments.pipeline.AppExperiment.simulate` keyword
    arguments (``"default"`` buses = keep the baseline).  ``perturb``
    is an optional :class:`~repro.perturb.PerturbationSchedule` applied
    at replay time (degraded platform, same trace).
    """

    app: str
    variant: str = "original"
    nranks: int = 64
    chunks: int = 4
    bandwidth_mbps: float | None = None
    buses: int | None | str = "default"
    latency: float | None = None
    app_params: tuple = ()
    machine: MachineConfig | None = None
    perturb: object | None = None

    def experiment_key(self) -> tuple:
        """Identity of the traced experiment: what its traces depend
        on.  A trace does not depend on the machine it replays on, so
        the platform (``machine``, its overrides and the perturbation;
        see :meth:`platform`) is left out."""
        return (self.app, self.nranks, self.chunks, self.app_params)

    def platform(self) -> MachineConfig:
        """The machine this point replays on: ``machine`` (or the
        application's paper test bed) with the point's overrides."""
        return override_platform(
            self.machine or paper_testbed(self.app), self.bandwidth_mbps,
            self.buses, self.latency, self.perturb,
        )


def expand_grid(
    apps: Sequence[str],
    variants: Sequence[str] = ("original",),
    bandwidths: Sequence[float | None] = (None,),
    buses: Sequence[int | None | str] = ("default",),
    latencies: Sequence[float | None] = (None,),
    chunks: Sequence[int] = (4,),
    nranks: int = 64,
    app_params: Mapping | None = None,
    machine: MachineConfig | None = None,
    perturbs: Sequence[object | None] = (None,),
) -> list[GridPoint]:
    """Cartesian grid of points, in deterministic iteration order."""
    params = _normalize_params(app_params)
    return [
        GridPoint(
            app=a, variant=v, nranks=nranks, chunks=c,
            bandwidth_mbps=bw, buses=b, latency=lat,
            app_params=params, machine=machine, perturb=pert,
        )
        for a, v, c, bw, b, lat, pert in itertools.product(
            apps, variants, chunks, bandwidths, buses, latencies, perturbs
        )
    ]


# --------------------------------------------------------------------------- #
# Failure handling: the failure sentinel and grid errors.
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PointFailure:
    """Sentinel standing in for a grid point that failed.

    Replay is deterministic, so a point that raises once raises on
    every attempt: it fails on its first, on every job count.  In
    degraded mode (:class:`ExperimentEngine` with ``degraded=True``)
    these appear in :meth:`ExperimentEngine.run_grid` /
    :meth:`~ExperimentEngine.durations` output slots instead of results;
    in strict mode they ride inside :class:`GridExecutionError`.
    ``kind`` is ``"exception"`` (the replay raised) or ``"pool_crash"``
    (a worker process died while the point was in flight, and again
    when the point re-ran alone on a fresh pool).

    ``attempt_history`` keeps one ``(kind, seconds, error)`` triple per
    attempt, in order, and ``traceback`` the formatted traceback of the
    last attempt when one was available (remote tracebacks from pool
    workers included) — :meth:`describe` stays a one-liner,
    :meth:`detail` renders the full post-mortem.
    """

    point: GridPoint
    kind: str
    attempt_history: tuple
    traceback: str = ""

    @property
    def attempts(self) -> int:
        return len(self.attempt_history)

    @property
    def error(self) -> str:
        """The last attempt's error."""
        return self.attempt_history[-1][2]

    def describe(self) -> str:
        return (
            f"{self.point.app}/{self.point.variant} "
            f"(bw={self.point.bandwidth_mbps}, buses={self.point.buses}, "
            f"lat={self.point.latency}): {self.kind} after "
            f"{self.attempts} attempt(s): {self.error}"
        )

    def detail(self) -> str:
        """Multi-line account: every attempt's fate plus the traceback."""
        lines = [self.describe()]
        for i, (kind, secs, error) in enumerate(self.attempt_history, 1):
            lines.append(f"  attempt {i}: {kind} after {secs:.3f}s: {error}")
        if self.traceback:
            lines.append("  worker traceback (last attempt):")
            lines.extend(
                "    " + ln for ln in self.traceback.rstrip().splitlines()
            )
        return "\n".join(lines)


class GridExecutionError(RuntimeError):
    """One or more grid points failed (strict mode).

    ``failures`` lists one :class:`PointFailure` per failed point; the
    points that did succeed are not reported here — re-run in degraded
    mode to get them alongside the sentinels.
    """

    def __init__(self, failures: Sequence[PointFailure]):
        self.failures = list(failures)
        lines = "\n".join(f"  {f.describe()}" for f in self.failures)
        super().__init__(
            f"{len(self.failures)} grid point(s) failed:\n{lines}"
        )


class DegradedBracketError(RuntimeError):
    """A bisection bracket depends on probes that failed.

    Bisection walks a decision tree: a missing probe answer would
    silently bias the threshold, so a degraded engine refuses the
    bracket outright instead of guessing.
    """

    def __init__(self, failures: Sequence[PointFailure]):
        self.failures = list(failures)
        lines = "\n".join(f"  {f.describe()}" for f in self.failures)
        super().__init__(
            f"bisection bracket degraded — {len(self.failures)} probe(s) "
            f"failed:\n{lines}"
        )


# --------------------------------------------------------------------------- #
# Point execution (shared by the in-process path and pool workers).
# --------------------------------------------------------------------------- #

def _resolve_experiment(
    point: GridPoint,
    cache_dir: str | None,
    store: dict,
) -> AppExperiment:
    """The (process-local) experiment behind a grid point's trace; the
    point's platform is its own (:meth:`GridPoint.platform`)."""
    key = point.experiment_key()
    exp = store.get(key)
    if exp is None:
        trace_cache = sim_cache = None
        if cache_dir is not None:
            trace_cache = TraceCache(Path(cache_dir) / "traces")
            sim_cache = SimResultCache(Path(cache_dir) / "replays")
        exp = AppExperiment(
            point.app,
            nranks=point.nranks,
            chunks=point.chunks,
            app_params=dict(point.app_params),
            cache=trace_cache,
            sim_cache=sim_cache,
        )
        store[key] = exp
    return exp


def _simulate_point(point: GridPoint, cache_dir: str | None, store: dict,
                    mode: str, lookup: bool = True) -> SimResult | float:
    """A point's result, or in ``duration`` mode just its makespan,
    which :meth:`AppExperiment.cached` answers from the sidecar when
    it can; ``lookup=False`` replays a point the caller has already
    looked up and missed."""
    exp = _resolve_experiment(point, cache_dir, store)
    cfg = point.platform()
    full = mode == "result"
    hit = exp.cached(point.variant, cfg, full) if lookup else None
    return exp.replay(point.variant, cfg, full) if hit is None else hit


#: Per-worker-process state, set once by the pool initializer.
_WORKER: dict = {
    "cache_dir": None, "store_dir": None, "experiments": {},
    "store": None, "sim_cache": None,
}


def _worker_init(cache_dir: str | None, store_dir: str | None = None,
                 obs_spec: dict | None = None) -> None:
    # Freeze every object inherited from the parent into the permanent
    # generation: the cyclic GC's periodic traversals would otherwise
    # write into the header of each inherited object, copy-on-writing
    # the parent's entire heap into every forked worker a page at a
    # time (this grows with parent heap size — long campaigns got
    # slower with every engine run).  Workers never need to collect
    # parent-built cycles, so the trade is pure win.
    gc.freeze()
    _WORKER.update(
        cache_dir=cache_dir, store_dir=store_dir, experiments={},
        store=None, sim_cache=None,
    )
    configure_worker(obs_spec)


def _worker_store() -> TraceStore | None:
    """This worker's handle on the dispatch store (lazy)."""
    store = _WORKER.get("store")
    if store is None and _WORKER.get("store_dir") is not None:
        store = TraceStore(_WORKER["store_dir"])
        _WORKER["store"] = store
    return store


def _worker_sim_cache() -> SimResultCache | None:
    """This worker's handle on the shared result cache (lazy)."""
    cache = _WORKER.get("sim_cache")
    if cache is None and _WORKER.get("cache_dir") is not None:
        cache = SimResultCache(Path(_WORKER["cache_dir"]) / "replays")
        _WORKER["sim_cache"] = cache
    return cache


def _run_task(task: tuple, mode: str):
    """Execute one dispatched task ``(point, digest, cfg, lookup)``.

    With a ``digest`` the worker replays the dispatch store's packed
    trace on ``cfg`` (the zero-copy path) and never sees record
    objects: with ``lookup`` (set when the parent could not look the
    point up, its digest unknown then) a warm point answers from the
    shared result cache by digest; a cold one decodes the packed trace
    straight into a replay plan, and :meth:`SimResultCache.publish`
    stores the replay (a duration-mode one as its ``.dur`` sidecar
    alone).  Without a digest,
    or when the store cannot produce it (a corrupt entry, or the
    parent's store degraded after dispatch), the worker rebuilds the
    point from its spec in place.
    """
    point, digest, cfg, lookup = task
    full = mode == "result"
    sim_cache = _worker_sim_cache()
    key = col = None
    if digest is not None:
        if sim_cache is not None:
            key = SimResultCache.key_for_digest(digest, cfg)
        if key is not None and lookup:
            hit = (sim_cache.load if full else sim_cache.load_duration)(key)
            if hit is not None:
                return hit
            lookup = False
        store = _worker_store()
        col = store.get(digest) if store is not None else None
    if col is None:
        return _simulate_point(point, _WORKER["cache_dir"],
                               _WORKER["experiments"], mode, lookup=lookup)
    res = simulate(col, cfg)
    if key is not None:
        sim_cache.publish(key, res, full)
    return res if full else res.duration


def _worker_warmup() -> None:
    """No-op task whose submission forces the executor to fork its
    worker processes immediately (see the pre-fork note in
    ``_map_points``)."""
    return None


def _worker_run_batch(tasks: list[tuple], mode: str) -> tuple[list, dict]:
    """Run a batch of dispatched tasks; one outcome per task, in order.

    Outcomes are ``("ok", value)`` or ``("err", error, traceback)`` —
    a failing task never poisons its batch siblings.  The second return
    element is the observability payload (metric deltas, spans, pid)
    riding the result pickle back to the parent, which merges it into
    its registry and — when a run is open — the run's event log.  This
    is how cache hit/miss counters and worker spans survive the process
    boundary.
    """
    outcomes: list = []
    for task in tasks:
        try:
            outcomes.append(("ok", _run_task(task, mode)))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            outcomes.append((
                "err", f"{type(exc).__name__}: {exc}",
                "".join(_tb.format_exception(exc)),
            ))
    return outcomes, collect_worker_payload()


def _absorb_payload(payload: dict | None) -> None:
    """Parent side of the worker funnel.

    With a run open the payload feeds the run (registry + span set +
    event log); without one the metric deltas still merge into the
    process registry so counters like ``cache.replay.hits`` aggregate
    across workers even when nobody asked for a run directory.
    """
    if not payload:
        return
    run = current_run()
    if run is not None:
        run.absorb_worker(payload)
    else:
        get_registry().merge_delta(payload.get("metrics"))


# --------------------------------------------------------------------------- #
# The engine.
# --------------------------------------------------------------------------- #

class ExperimentEngine:
    """Process-pool scheduler for grids of replays.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs everything in-process —
        same code path, no pool, useful as the deterministic reference.
    cache_dir:
        Directory for the persistent caches (created on demand):
        ``<cache_dir>/traces`` for :class:`TraceCache`,
        ``<cache_dir>/replays`` for :class:`SimResultCache`, and
        ``<cache_dir>/dispatch`` for the zero-copy
        :class:`~repro.experiments.cache.TraceStore`.  Shared by all
        workers; ``None`` disables persistence (each process still
        memoizes in memory, and the dispatch store lives in a temporary
        directory for the engine's lifetime).  The result cache is
        also what resumes an interrupted campaign: a new engine on the
        same directory serves every finished point without executing
        it.
    degraded:
        When True, failed points come back as :class:`PointFailure`
        sentinels in the result list; when False (default) the grid
        raises :class:`GridExecutionError` listing them.  Failures are
        not persisted: a resumed session runs the point again.

    Every route follows one failure policy.  A point that raises fails
    on its single attempt (replay is deterministic, so another attempt
    would raise again).  A dead worker breaks every point in flight;
    each re-runs once, alone, on a fresh pool, and a point that kills
    its worker again fails as ``"pool_crash"``, so it ends the grid
    instead of looping.

    The engine is a context manager; :meth:`close` shuts the pool down.
    :meth:`request_drain` (wired to SIGTERM/SIGINT by
    :func:`~repro.experiments.checkpoint.graceful_drain`) makes the
    next grid stop dispatching, await the points in flight, and raise
    :class:`~repro.experiments.checkpoint.CampaignInterrupted`.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        degraded: bool = False,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.degraded = bool(degraded)
        self._experiments: dict = {}
        self._pool: ProcessPoolExecutor | None = None
        self._store: TraceStore | None = None
        self._store_tmp: tempfile.TemporaryDirectory | None = None
        self._drain = threading.Event()

    # -- drain (graceful SIGTERM/SIGINT) -------------------------------------
    def request_drain(self) -> None:
        """Stop dispatching new grid points; keep what completes.

        Async-signal safe (sets an event); the running grid notices at
        its next scheduling step and raises
        :class:`~repro.experiments.checkpoint.CampaignInterrupted`
        after awaiting every point already in flight.
        """
        self._drain.set()

    @property
    def drain_requested(self) -> bool:
        return self._drain.is_set()

    @property
    def mediated(self) -> bool:
        """True when a drain should wait for the engine's next
        scheduling step — a pool has points in flight, or degraded
        bookkeeping must see every point settle; otherwise a signal
        stops the campaign at once."""
        return self.jobs > 1 or self.degraded

    def _interrupted(self, remaining: int | None = None) -> CampaignInterrupted:
        """The drain's exception: resumable when a run is open and the
        engine has a result cache to resume from."""
        get_registry().counter("engine.drains").inc()
        run = current_run()
        if run is not None:
            run.record("campaign_drained", remaining=remaining)
        resumable = run is not None and self.cache_dir is not None
        return CampaignInterrupted(run.run_id if resumable else None,
                                   remaining=remaining)

    def _fail(self, point: GridPoint, kind: str, history: tuple,
              traceback: str = "") -> PointFailure:
        """Record a failed point: counted, logged, and in the run log."""
        failure = PointFailure(point, kind, history, traceback)
        get_registry().counter("engine.points_failed").inc()
        run = current_run()
        if run is not None:
            run.record("point_failed", app=point.app, variant=point.variant,
                       kind=kind, attempts=failure.attempts,
                       error=failure.error)
        _log.warning("grid point failed: %s", failure.describe())
        return failure

    def _cached_value(self, point: GridPoint, mode: str):
        """The point's value if it needs no replay, or None.

        Answered in this process from the experiment's memo or the
        persistent cache (a duration reads only the one-line sidecar);
        only misses cost a replay.
        """
        try:
            exp = _resolve_experiment(point, self.cache_dir, self._experiments)
            cfg = point.platform()
        except Exception:  # noqa: BLE001 - its replay attempt reports it
            return None
        return exp.cached(point.variant, cfg, mode == "result")

    def _replay_identity(self, point: GridPoint) -> tuple[object, bool]:
        """A missed point's replay — experiment, variant and platform —
        and whether its trace digest is unknown, which kept
        :meth:`_cached_value` from looking it up in the result cache."""
        try:
            exp = _resolve_experiment(point, self.cache_dir, self._experiments)
            cfg = point.platform()
        except Exception:  # noqa: BLE001 - its replay attempt reports it
            return point, True
        return ((point.experiment_key(), point.variant, cfg),
                exp._known_digest(point.variant) is None)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool and dispatch store (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._store = None
        if self._store_tmp is not None:
            try:
                self._store_tmp.cleanup()
            except OSError:
                pass
            self._store_tmp = None

    def _discard_pool(self, reason: str) -> None:
        """Tear down a broken or interrupted pool; the next submit forks
        a fresh one.

        Workers are terminated outright: after a crash the survivors
        hold no state worth draining (results travel through futures we
        have already abandoned), and after a hard interrupt nobody
        waits for them.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        _log.warning("experiment pool %s; recycling workers", reason)
        get_registry().counter("engine.pool_recycles").inc()
        run = current_run()
        if run is not None:
            run.record("pool_recycle", reason=reason)
        procs = getattr(pool, "_processes", None) or {}
        for proc in list(procs.values()):
            if proc.is_alive():
                proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ExperimentEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            store = self._dispatch_store()
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_worker_init,
                initargs=(self.cache_dir, str(store.directory),
                          worker_config()),
            )
        return self._pool

    # -- dispatch preparation ------------------------------------------------
    def _dispatch_store(self) -> TraceStore:
        """The digest-addressed trace store shared with pool workers.

        Lives under ``<cache_dir>/dispatch`` when the engine has a cache
        directory (doubling as a persistent trace cache); otherwise in a
        temporary directory torn down by :meth:`close`.
        """
        if self._store is None:
            if self.cache_dir is not None:
                root = Path(self.cache_dir) / "dispatch"
            else:
                self._store_tmp = tempfile.TemporaryDirectory(
                    prefix="repro-dispatch-"
                )
                root = Path(self._store_tmp.name)
            self._store = TraceStore(root)
        return self._store

    def _dispatch_task(self, point: GridPoint, lookup: bool) -> tuple:
        """Prepare a point's pool task ``(point, digest, cfg, lookup)``.

        The zero-copy path: hand workers the digest and platform — a
        few dozen bytes instead of a pickled record forest.  When the
        spec->digest index already knows the variant's digest and the
        dispatch store holds those columns, the task ships as is;
        otherwise the parent resolves (and traces) the experiment once
        and publishes its packed encoding.  Any preparation trouble —
        unknown app, degraded store — ships the spec alone (no digest),
        and the worker reproduces (and properly attributes) the failure
        itself.  ``lookup`` asks the worker to look the point up in the
        result cache first.
        """
        reg = get_registry()
        store = self._dispatch_store()
        if not store.degraded:
            t0 = time.monotonic()
            try:
                exp = _resolve_experiment(point, self.cache_dir,
                                          self._experiments)
                cfg = point.platform()
                digest = exp._known_digest(point.variant)
                if digest is None or not store.has(digest):
                    digest = store.put(exp.columnar(point.variant))
            except Exception:  # noqa: BLE001 - worker will attribute it
                pass
            else:
                reg.histogram("engine.dispatch.prep_seconds").observe(
                    time.monotonic() - t0
                )
                reg.counter("engine.dispatch.ship_points").inc()
                return (point, digest, cfg, lookup)
        reg.counter("engine.dispatch.spec_points").inc()
        return (point, None, None, lookup)

    # -- core scheduling ----------------------------------------------------
    def _map_points(self, points: list[GridPoint], mode: str) -> list:
        """Fan the points across the pool, preserving input order.

        Warm hits are resolved directly in the parent
        (:meth:`_cached_value`), and only actual misses pay worker
        dispatch, once per distinct replay: points that name one
        platform two ways (bandwidth ``None`` and the baseline's own)
        share one.  A worker looks a point up in the result cache only
        when the parent could not, so every replay is looked up once.
        The misses are sorted by experiment identity
        and grouped into batches, so one worker tends to replay all
        platform variations of the same trace and per-task pool
        overhead amortizes across a batch; results come back in the
        input order.

        Failed points surface per :attr:`degraded` (sentinel or raise).
        """
        out = [self._cached_value(p, mode) for p in points]
        first: dict = {}
        same: dict[int, int] = {}
        lookup: set[int] = set()
        for i, value in enumerate(out):
            if value is None:
                replay, unknown = self._replay_identity(points[i])
                same[i] = first.setdefault(replay, i)
                if unknown:
                    lookup.add(i)
        miss = list(first.values())
        if not miss:
            return out
        if self._drain.is_set():
            raise self._interrupted(remaining=len(miss))
        order = sorted(
            miss,
            key=lambda i: (repr(points[i].experiment_key()),
                           points[i].variant, i),
        )
        entries = [(i, points[i]) for i in order]
        # Fork the pool *before* dispatch preparation builds any trace:
        # workers forked against a small parent heap stay small, while
        # forking after tracing copies-on-write the whole record forest
        # (and its profile arrays) into every worker as soon as the GC
        # touches refcounts.  The warmup task forces the executor to
        # spawn its processes now rather than lazily at first submit.
        self._ensure_pool().submit(_worker_warmup)
        # Batches never straddle a (experiment, variant) group: all
        # points of one trace digest go to as few workers as the job
        # budget allows, so each worker decodes the columns and builds
        # the replay plan for a digest at most once.  Each group is
        # split across about jobs/ngroups workers (capped batch size
        # keeps huge groups responsive); distinct experiments never
        # share a batch.
        grouped = [
            list(grp) for _, grp in itertools.groupby(
                entries,
                key=lambda e: (repr(e[1].experiment_key()), e[1].variant),
            )
        ]
        per_group = max(1, -(-self.jobs // len(grouped)))
        batches = []
        for g in grouped:
            size = max(1, min(16, -(-len(g) // per_group)))
            batches.extend(g[j:j + size] for j in range(0, len(g), size))
        failures = self._run_batches(mode, batches, lookup, out)
        if failures and not self.degraded:
            raise GridExecutionError(failures)
        for i, rep in same.items():
            out[i] = out[rep]
        return out

    def _run_batches(
        self,
        mode: str,
        batches: list[list[tuple[int, GridPoint]]],
        lookup: set[int],
        out: list,
    ) -> list[PointFailure]:
        """Submit every batch of ``(slot, point)`` entries into ``out``;
        returns the points that failed.

        Each point rides its prepared dispatch task (ship-by-digest
        where possible, looked up in workers for the slots in
        ``lookup``).  A task that raises fails its point on its one
        attempt; its batch siblings keep their results.  A dead worker
        (``BrokenProcessPool``) breaks every future in flight and the
        parent cannot tell which point killed it, so once the pool has
        settled, each of those points re-runs alone on a fresh pool: a
        second death names its point, which fails as ``"pool_crash"``.

        A drain request (:meth:`request_drain`) is honored at the next
        scheduling step: queued futures are cancelled, running ones are
        awaited (their workers have stored them), and the grid raises
        :class:`~repro.experiments.checkpoint.CampaignInterrupted`.
        """
        reg = get_registry()
        failures: list[PointFailure] = []
        pending: dict[Future, tuple[list[tuple[int, GridPoint]], float]] = {}
        tasks: dict[int, tuple] = {}
        #: ``(slot, point, seconds in flight)`` of every point whose
        #: worker died under it.
        crashed: list[tuple[int, GridPoint, float]] = []

        def settle(fut: Future, entries: list, t0: float,
                   history: tuple = ()) -> bool:
            """Collect a finished batch; False when its worker died."""
            elapsed = time.monotonic() - t0
            try:
                outcomes, payload = fut.result()
            except BrokenProcessPool:
                return False
            except Exception as exc:  # noqa: BLE001 - reported per point
                # A raise outside task execution (pickle trouble);
                # format_exception includes the _RemoteTraceback the
                # pool chains in, i.e. the worker-side stack.
                outcomes = [("err", f"{type(exc).__name__}: {exc}",
                             "".join(_tb.format_exception(exc)))] * len(entries)
                payload = None
            _absorb_payload(payload)
            per_point = elapsed / max(1, len(entries))
            for (slot, point), outcome in zip(entries, outcomes):
                if outcome[0] == "ok":
                    out[slot] = outcome[1]
                    reg.counter("engine.points_executed").inc()
                    reg.histogram("engine.point_wall_seconds").observe(per_point)
                else:
                    attempt = ("exception", per_point, outcome[1])
                    out[slot] = self._fail(point, "exception",
                                           history + (attempt,), outcome[2])
                    failures.append(out[slot])
            return True

        for entries in batches:
            if self._drain.is_set():
                break
            for slot, point in entries:
                tasks[slot] = self._dispatch_task(point, slot in lookup)
            try:
                fut = self._ensure_pool().submit(
                    _worker_run_batch, [tasks[slot] for slot, _ in entries],
                    mode)
            except BrokenProcessPool:
                crashed.extend((slot, point, 0.0) for slot, point in entries)
                continue
            pending[fut] = (entries, time.monotonic())
            reg.counter("engine.dispatch.batches").inc()

        while pending:
            if self._drain.is_set():
                # Cancel what never started and await what runs: the
                # points it finishes reach the result cache, so a drain
                # loses no finished work.
                for fut, (entries, t0) in pending.items():
                    if not fut.cancel():
                        settle(fut, entries, t0)
                break
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for fut in done:
                entries, t0 = pending.pop(fut)
                if not settle(fut, entries, t0):
                    crashed.extend((slot, point, time.monotonic() - t0)
                                   for slot, point in entries)

        if crashed:
            self._discard_pool("broken (worker process died)")
        for slot, point, seconds in crashed:
            if self._drain.is_set():
                break
            died = ("pool_crash", seconds, "worker process died")
            t0 = time.monotonic()
            fut = self._ensure_pool().submit(_worker_run_batch,
                                             [tasks[slot]], mode)
            reg.counter("engine.dispatch.batches").inc()
            if not settle(fut, [(slot, point)], t0, history=(died,)):
                self._discard_pool("broken (worker process died)")
                again = ("pool_crash", time.monotonic() - t0, died[2])
                out[slot] = self._fail(point, "pool_crash", (died, again))
                failures.append(out[slot])

        if self._drain.is_set():
            remaining = sum(1 for entries in batches
                            for slot, _ in entries if out[slot] is None)
            if remaining:
                raise self._interrupted(remaining=remaining)
        return failures

    def _run_serial(self, points: list[GridPoint], mode: str) -> list:
        """In-process reference path with the same failure contract."""
        out: list = []
        reg = get_registry()
        for p in points:
            if self._drain.is_set():
                raise self._interrupted(remaining=len(points) - len(out))
            t0 = time.monotonic()
            try:
                value = self._cached_value(p, mode)
                if value is None:
                    value = _simulate_point(p, self.cache_dir,
                                            self._experiments, mode,
                                            lookup=False)
                    reg.counter("engine.points_executed").inc()
                    reg.histogram("engine.point_wall_seconds").observe(
                        time.monotonic() - t0
                    )
                out.append(value)
            except Exception as exc:  # noqa: BLE001 - uniform grid contract
                err = f"{type(exc).__name__}: {exc}"
                failure = self._fail(
                    p, "exception", (("exception", time.monotonic() - t0, err),),
                    "".join(_tb.format_exception(exc)),
                )
                if not self.degraded:
                    raise GridExecutionError([failure]) from exc
                out.append(failure)
        return out

    def run_grid(self, points: Iterable[GridPoint]) -> list[SimResult]:
        """Replay every grid point; results in input order.

        Deterministic: identical to running the same points serially.
        With ``jobs > 1`` every point that misses the caches replays in
        the pool, a lone one too.  In degraded mode, slots whose point
        failed hold a :class:`PointFailure` instead of a
        :class:`SimResult`; in strict mode such points raise
        :class:`GridExecutionError`.
        """
        points = list(points)
        with _span("engine.run_grid", points=len(points), jobs=self.jobs):
            if self.jobs <= 1:
                return self._run_serial(points, "result")
            return self._map_points(points, "result")

    def durations(self, points: Iterable[GridPoint]) -> list[float]:
        """Simulated makespans of every grid point, in input order.

        Cheaper than :meth:`run_grid` across a pool: only a float per
        point crosses the process boundary.  Failure contract as in
        :meth:`run_grid`.
        """
        points = list(points)
        with _span("engine.durations", points=len(points), jobs=self.jobs):
            if self.jobs <= 1:
                return self._run_serial(points, "duration")
            return self._map_points(points, "duration")

    # -- experiment interop -------------------------------------------------
    def point_for(self, exp: AppExperiment,
                  variant: str = "original") -> GridPoint:
        """Grid point describing an existing experiment bundle.

        The point replays on ``exp.machine``, which it carries as its
        own ``machine``.  The engine adopts ``exp`` for the point's
        experiment key, which is the trace's: the first bundle offered
        (or built) for that trace wins, so lookups, serial replays and
        dispatch reuse its traces, memo and caches instead of building
        their own.  An adopted bundle lends later points of the same
        trace its traces, never its machine.
        """
        point = GridPoint(
            app=exp.app_name,
            variant=variant,
            nranks=exp.nranks,
            chunks=exp.chunks,
            app_params=_normalize_params(exp.app_params),
            machine=exp.machine,
        )
        self._experiments.setdefault(point.experiment_key(), exp)
        return point


@contextlib.contextmanager
def engine_or_serial(
    engine: ExperimentEngine | None,
) -> Iterator[ExperimentEngine]:
    """``engine``, or a private serial engine closed with the block: the
    one route of every study helper called without an engine."""
    if engine is not None:
        yield engine
    else:
        with ExperimentEngine(jobs=1) as own:
            yield own
