"""Parallel experiment engine: fan grids of replays across processes.

The paper's whole evaluation is a grid of replays — every
bandwidth-bisection step, bus count, chunk count, and app variant
re-runs :func:`repro.dimemas.replay.simulate` on some platform.  This
module turns that grid into a schedulable unit:

* :class:`GridPoint` — one fully-described replay: ``(app, variant,
  bandwidth, buses, latency, chunks, nranks, app_params, machine)``;
* :class:`ExperimentEngine` — runs grids serially (``jobs=1``) or on a
  process pool (``jobs=N``), with per-process experiment reuse and
  optional on-disk caches (:class:`~repro.experiments.cache.TraceCache`
  and :class:`~repro.experiments.cache.SimResultCache`) shared by all
  workers, so repeated points are free across processes *and* sessions;
* :func:`expand_grid` / :func:`speedup_grid` — grid builders for the
  Figure 6 style evaluations.

Replay is deterministic, so a parallel grid returns results identical
to the serial run, point for point; scheduling only changes wall-clock.
The Figure 6 bandwidth searches run on it as one campaign of
sequential walks (:func:`repro.experiments.bandwidth.search_bandwidths`):
the engine replays each round's probes side by side, and a threshold
is read off its walk alone, so it is the same on every job count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import logging
import os
import random as _random
import signal
import tempfile
import threading
import time
import traceback as _tb
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
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
from .cache import SimResultCache, TraceCache, TraceStore, content_key
from .checkpoint import CampaignInterrupted
from .pipeline import AppExperiment

__all__ = [
    "DegradedBracketError",
    "ExperimentEngine",
    "GridExecutionError",
    "GridPoint",
    "PointFailure",
    "RetryPolicy",
    "WorkerMemoryError",
    "engine_or_serial",
    "expand_grid",
    "point_key",
    "speedup_grid",
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

    ``bandwidth_mbps`` / ``buses`` / ``latency`` override the baseline
    platform exactly like the corresponding
    :meth:`~repro.experiments.pipeline.AppExperiment.simulate` keyword
    arguments (``"default"`` buses = keep the baseline).  ``machine``
    overrides the baseline platform itself; ``None`` uses the
    application's paper test bed.  ``perturb`` is an optional
    :class:`~repro.perturb.PerturbationSchedule` applied at replay time
    (degraded platform, same trace).
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
        """Identity of the underlying traced experiment (platform
        overrides excluded — they share one trace; perturbation is a
        replay-time platform override too)."""
        return (self.app, self.nranks, self.chunks, self.app_params, self.machine)


def point_key(point: GridPoint) -> str:
    """Versioned content digest of a grid point's full spec.

    Covers every field of the point — app, variant, scale, chunk
    count, platform overrides (perturbation schedule included), app
    parameters, and the machine config itself — so no two distinct
    replays share a key.
    """
    machine = point.machine
    perturb = point.perturb
    return content_key(
        kind="grid_point",
        app=point.app,
        variant=point.variant,
        nranks=point.nranks,
        chunks=point.chunks,
        bandwidth_mbps=point.bandwidth_mbps,
        buses=point.buses,
        latency=point.latency,
        app_params=point.app_params,
        machine=None if machine is None else dataclasses.asdict(machine),
        perturb=None if perturb is None else perturb.to_dict(),
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
# Failure handling: retry policy, quarantine sentinel, grid errors.
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class RetryPolicy:
    """How the engine reacts when a grid point fails in a worker.

    ``max_attempts`` bounds how often one point is tried before it is
    quarantined; between attempts the engine sleeps
    ``backoff * backoff_factor ** (attempt - 1)`` seconds.
    ``jitter`` (0..1) spreads that sleep uniformly over
    ``[base * (1 - jitter), base]`` — full jitter at ``1.0`` — so
    simultaneous failures (a recycled pool resubmitting every in-flight
    point) do not retry in lockstep.  ``point_timeout`` (seconds of
    wall clock per in-flight point, ``None`` = unlimited) converts a
    hung worker into a recoverable failure: the pool is recycled and
    the point charged one attempt.
    """

    max_attempts: int = 3
    backoff: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.0
    point_timeout: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ValueError(
                f"point_timeout must be positive, got {self.point_timeout}"
            )

    def delay(self, attempt: int, rng=None) -> float:
        """Backoff (seconds) after failed attempt number ``attempt``.

        With ``jitter`` and an ``rng`` (any object with ``random()``),
        draws uniformly from ``[base * (1 - jitter), base]``; without
        either, the exact exponential base.
        """
        base = self.backoff * self.backoff_factor ** (attempt - 1)
        if self.jitter > 0.0 and rng is not None:
            return base * (1.0 - self.jitter) + rng.random() * base * self.jitter
        return base


@dataclass(frozen=True)
class PointFailure:
    """Sentinel standing in for a grid point that exhausted its retries.

    In degraded mode (:class:`ExperimentEngine` with ``degraded=True``)
    these appear in :meth:`ExperimentEngine.run_grid` /
    :meth:`~ExperimentEngine.durations` output slots instead of results;
    in strict mode they ride inside :class:`GridExecutionError`.
    ``kind`` is ``"exception"`` (the replay raised), ``"timeout"`` (the
    point blew its wall-clock budget), or ``"pool_crash"`` (a worker
    process died while the point was in flight).

    ``attempt_history`` keeps one ``(kind, seconds, error)`` triple per
    attempt, in order, and ``traceback`` the formatted traceback of the
    last attempt when one was available (remote tracebacks from pool
    workers included) — :meth:`describe` stays a one-liner,
    :meth:`detail` renders the full post-mortem.
    """

    point: GridPoint
    kind: str
    error: str
    attempts: int
    attempt_history: tuple = field(default=())
    traceback: str = ""

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
    """One or more grid points kept failing (strict mode).

    ``failures`` lists one :class:`PointFailure` per dead point; the
    points that did succeed are not reported here — re-run in degraded
    mode to get them alongside the sentinels.
    """

    def __init__(self, failures: Sequence[PointFailure]):
        self.failures = list(failures)
        lines = "\n".join(f"  {f.describe()}" for f in self.failures)
        super().__init__(
            f"{len(self.failures)} grid point(s) failed permanently:\n{lines}"
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
    """The (process-local) experiment bundle behind a grid point."""
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
            machine=point.machine,
            cache=trace_cache,
            sim_cache=sim_cache,
        )
        store[key] = exp
    return exp


def _simulate_point(point: GridPoint, cache_dir: str | None, store: dict,
                    mode: str, lookup: bool = True) -> SimResult | float:
    """A point's result, or in ``duration`` mode just its makespan,
    which :meth:`AppExperiment.duration` answers from the sidecar when
    it can; ``lookup=False`` replays a point the caller has already
    looked up and missed."""
    exp = _resolve_experiment(point, cache_dir, store)
    if mode == "result":
        run = exp.simulate if lookup else exp.replay_result
    else:
        run = exp.duration if lookup else exp.replay_duration
    return run(
        point.variant,
        bandwidth_mbps=point.bandwidth_mbps,
        buses=point.buses,
        latency=point.latency,
        perturb=point.perturb,
    )


class WorkerMemoryError(MemoryError):
    """The per-worker RSS watchdog tripped before the OOM killer could.

    Raised *inside* a worker (or the serial path) when its resident set
    exceeds the engine's ``rss_limit_mb`` budget — converting an
    impending out-of-memory kill (which would break the whole pool)
    into an ordinary, retryable point failure.
    """


def _rss_mb() -> float | None:
    """This process's resident set size in MiB (None when unknowable).

    ``$REPRO_TEST_FAKE_RSS_MB`` overrides the reading for deterministic
    watchdog tests.
    """
    fake = os.environ.get("REPRO_TEST_FAKE_RSS_MB")
    if fake:
        try:
            return float(fake)
        except ValueError:
            pass
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGESIZE") / (1024.0 * 1024.0)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except (ImportError, OSError, ValueError):
        return None


def _check_rss_budget(limit_mb: float | None) -> None:
    """Fail the current point when this process is about to OOM."""
    if not limit_mb:
        return
    rss = _rss_mb()
    if rss is not None and rss > limit_mb:
        get_registry().counter("engine.rss_guard_trips").inc()
        raise WorkerMemoryError(
            f"process RSS {rss:.0f} MiB exceeds the {limit_mb:.0f} MiB "
            f"budget; failing this point before the OOM killer fires"
        )


def _maybe_selfkill(env_var: str) -> None:
    """Chaos-test hook: SIGKILL this process when ``env_var`` is set."""
    if os.environ.get(env_var):
        os.kill(os.getpid(), signal.SIGKILL)


#: Per-worker-process state, set once by the pool initializer.
_WORKER: dict = {
    "cache_dir": None, "store_dir": None, "experiments": {},
    "rss_limit_mb": None, "store": None, "sim_cache": None,
}


def _worker_init(cache_dir: str | None, store_dir: str | None = None,
                 obs_spec: dict | None = None,
                 rss_limit_mb: float | None = None) -> None:
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
        rss_limit_mb=rss_limit_mb, store=None, sim_cache=None,
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


def _claim_marker(env_var: str) -> bool:
    """Atomically claim the marker file named by ``env_var`` (test hook).

    The resilience tests arm a fault by creating a file and exporting
    its path; exactly one worker wins the unlink and misbehaves, so a
    "worker dies mid-grid" scenario is deterministic without patching
    multiprocessing internals.
    """
    marker = os.environ.get(env_var)
    if not marker:
        return False
    try:
        os.unlink(marker)
    except FileNotFoundError:
        return False
    return True


def _maybe_fault_for_tests() -> None:
    if _claim_marker("REPRO_TEST_KILL_WORKER_ONCE"):
        os._exit(13)  # hard death: parent sees BrokenProcessPool
    if _claim_marker("REPRO_TEST_RAISE_ONCE"):
        raise RuntimeError("injected worker failure (test hook)")
    if _claim_marker("REPRO_TEST_HANG_ONCE"):
        time.sleep(600.0)


def _run_shipped(digest: str, cfg: MachineConfig, mode: str, lookup: bool):
    """Replay a dispatch-store trace on ``cfg`` (the zero-copy path).

    The worker never sees record objects: with ``lookup`` (set when the
    parent could not look the point up, its digest unknown then) a warm
    point answers from the shared result cache by digest; a cold one
    decodes the packed trace straight into a replay plan.  A
    duration-mode replay publishes only the ``.dur`` sidecar: nobody
    reads its result envelope, whose serialization would cost as much
    as the replay.  A digest the store cannot produce (corruption was
    quarantined, or the parent's store degraded after dispatch) raises
    — the parent retries the point by spec.
    """
    sim_cache = _worker_sim_cache()
    key = (
        SimResultCache.key_for_digest(digest, cfg)
        if sim_cache is not None else None
    )
    if sim_cache is not None and lookup:
        load = sim_cache.load if mode == "result" else sim_cache.load_duration
        hit = load(key)
        if hit is not None:
            return hit
    store = _worker_store()
    col = store.get(digest) if store is not None else None
    if col is None:
        raise RuntimeError(
            f"dispatch store cannot produce trace {digest}; "
            f"point must be re-dispatched by spec"
        )
    res = simulate(col, cfg)
    if mode == "duration":
        if sim_cache is not None:
            sim_cache.store_duration(key, res.duration)
        return res.duration
    if sim_cache is not None:
        sim_cache.store(key, res)
    return res


def _run_task(task: tuple, mode: str):
    """Execute one dispatched task: ``("ship", digest, cfg, lookup)``
    replays a pre-published packed trace; ``("spec", point)`` rebuilds
    everything from the grid-point spec (fallback and retry path)."""
    if task[0] == "ship":
        return _run_shipped(task[1], task[2], mode, task[3])
    return _simulate_point(task[1], _WORKER["cache_dir"],
                           _WORKER["experiments"], mode)


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
    _maybe_fault_for_tests()
    outcomes: list = []
    for task in tasks:
        try:
            _check_rss_budget(_WORKER["rss_limit_mb"])
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
    retry:
        :class:`RetryPolicy` governing worker failures (default: three
        attempts, 50 ms exponential backoff, no per-point timeout).
        A dead worker process (``BrokenProcessPool``) restarts the pool
        and charges every in-flight point one attempt; a hung worker is
        detected via ``retry.point_timeout`` and handled the same way.
    degraded:
        When True, points that exhaust their retries come back as
        :class:`PointFailure` sentinels in the result list (and are
        recorded in :attr:`quarantine`); when False (default) the grid
        raises :class:`GridExecutionError` listing them.  Quarantine
        decisions are not persisted: a resumed session retries the
        point.
    rss_limit_mb:
        Per-process resident-set budget (MiB).  A worker (or the
        serial path) whose RSS exceeds it fails the current point with
        :class:`WorkerMemoryError` — a retryable failure — instead of
        dying to the OOM killer and breaking the pool.
        Defaults to ``$REPRO_WORKER_RSS_LIMIT_MB`` (unset = no budget).
    verify_sample:
        Determinism certification rate in ``[0, 1]`` (default
        ``$REPRO_VERIFY_SAMPLE``, unset = 0 = off).  A deterministic
        per-point hash selects roughly this fraction of cache hits and
        executed points; each selected point is re-replayed in the
        parent and compared content-digest-for-digest
        (:func:`repro.audit.result_digest`).  A mismatching cached
        entry is quarantined and the point re-executed; every mismatch
        lands in :attr:`verify_mismatches` and the run manifest.

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
        retry: RetryPolicy | None = None,
        degraded: bool = False,
        rss_limit_mb: float | None = None,
        verify_sample: float | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.retry = retry if retry is not None else RetryPolicy()
        self.degraded = bool(degraded)
        if rss_limit_mb is None:
            raw = os.environ.get("REPRO_WORKER_RSS_LIMIT_MB")
            if raw:
                try:
                    rss_limit_mb = float(raw)
                except ValueError:
                    rss_limit_mb = None
        self.rss_limit_mb = rss_limit_mb
        if verify_sample is None:
            raw = os.environ.get("REPRO_VERIFY_SAMPLE")
            if raw:
                try:
                    verify_sample = float(raw)
                except ValueError:
                    verify_sample = None
        self.verify_sample = (
            min(1.0, max(0.0, float(verify_sample))) if verify_sample else 0.0
        )
        #: Seeded RNG behind retry-backoff jitter: deterministic per
        #: engine, never consulted when the policy has ``jitter == 0``.
        self._retry_rng = _random.Random(0)
        #: One dict per determinism-verification mismatch this engine
        #: caught (point identity, expected/actual digest, source).
        self.verify_mismatches: list[dict] = []
        #: Points that exhausted their retry budget, by grid point.
        self.quarantine: dict[GridPoint, PointFailure] = {}
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
        bookkeeping and sampled re-verification must see every point
        settle; otherwise a signal stops the campaign at once."""
        return self.jobs > 1 or self.degraded or self.verify_sample > 0.0

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

    # -- determinism certification (--verify-sample) -------------------------
    def _verify_sampled(self, point: GridPoint) -> bool:
        """Deterministic sampling: the same point is always (not)
        selected at a given rate, so re-runs and resumes verify the
        same subset instead of a random one."""
        rate = self.verify_sample
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        h = hashlib.sha256(repr(point_key(point)).encode()).digest()
        return int.from_bytes(h[:8], "big") / 2.0 ** 64 < rate

    def _maybe_verify(self, point: GridPoint, mode: str, value, source: str):
        """Certify one value by independent re-replay; heal on mismatch.

        Re-simulates the point's trace directly (no memo, no caches)
        and compares content digests (result mode) / exact makespans
        (duration mode).  On mismatch the cached entry is quarantined
        as untrusted, the fresh result is stored and returned, and the
        mismatch is recorded in :attr:`verify_mismatches`, the metrics
        (``audit.verify.*``), and the run manifest.
        """
        if isinstance(value, PointFailure) or value is None:
            return value
        if not self._verify_sampled(point):
            return value
        from ..audit.certify import result_digest
        reg = get_registry()
        reg.counter("audit.verify.sampled").inc()
        exp = _resolve_experiment(point, self.cache_dir, self._experiments)
        cfg = exp.platform(
            bandwidth_mbps=point.bandwidth_mbps, buses=point.buses,
            latency=point.latency, perturb=point.perturb,
        )
        trace = exp.trace(point.variant)
        with _span("engine.verify_point", app=point.app,
                   variant=point.variant):
            fresh = simulate(trace, cfg)
        if mode == "duration":
            ok = fresh.duration == value
            expected, actual = repr(fresh.duration), repr(value)
        else:
            expected, actual = result_digest(fresh), result_digest(value)
            ok = expected == actual
        if ok:
            reg.counter("audit.verify.ok").inc()
            return value
        reg.counter("audit.verify.mismatched").inc()
        key = None
        if exp.sim_cache is not None:
            from .cache import trace_digest
            key = exp.sim_cache.key_for_digest(trace_digest(trace), cfg)
            exp.sim_cache.quarantine_entry(
                key, f"verify-sample digest mismatch "
                     f"(expected {expected}, cached {actual})",
            )
            exp.sim_cache.store(key, fresh)
        # Heal the in-process memo too, or the corrupt value would
        # keep answering this experiment for the rest of the run.
        exp._sims[(point.variant, cfg)] = fresh
        exp._durations[(point.variant, cfg)] = fresh.duration
        record = {
            "app": point.app,
            "variant": point.variant,
            "mode": mode,
            "source": source,
            "expected": expected,
            "actual": actual,
            "cache_key": key,
        }
        self.verify_mismatches.append(record)
        run = current_run()
        if run is not None:
            run.record("verify_mismatch", **record)
        _log.error(
            "determinism verification FAILED for %s/%s (%s value from %s): "
            "expected %s, got %s; entry quarantined and re-executed",
            point.app, point.variant, mode, source, expected, actual,
        )
        return fresh if mode == "result" else fresh.duration

    def _cached_value(self, point: GridPoint, mode: str):
        """The point's value if it needs no replay, or None.

        Answered in this process from the experiment's memo or the
        persistent cache (a duration reads only the one-line sidecar)
        and certified like executed values when sampled; only misses
        cost a replay.
        """
        try:
            exp = _resolve_experiment(point, self.cache_dir, self._experiments)
        except Exception:  # noqa: BLE001 - its replay attempt reports it
            return None
        lookup = exp.cached_duration if mode == "duration" else exp.cached_result
        hit = lookup(
            point.variant, bandwidth_mbps=point.bandwidth_mbps,
            buses=point.buses, latency=point.latency, perturb=point.perturb,
        )
        if hit is None:
            return None
        return self._maybe_verify(point, mode, hit, "cache")

    def _replay_identity(self, point: GridPoint) -> tuple[object, bool]:
        """A missed point's replay — experiment, variant and platform —
        and whether its trace digest is unknown, which kept
        :meth:`_cached_value` from looking it up in the result cache."""
        try:
            exp = _resolve_experiment(point, self.cache_dir, self._experiments)
        except Exception:  # noqa: BLE001 - its replay attempt reports it
            return point, True
        cfg = exp.platform(point.bandwidth_mbps, point.buses, point.latency,
                           point.perturb)
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
        """Tear down a broken or hung pool so the next submit rebuilds it.

        Workers are terminated outright: after a crash the survivors
        hold no state worth draining (results travel through futures we
        have already abandoned), and after a hang the stuck worker
        would block a graceful shutdown forever.
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
                          worker_config(), self.rss_limit_mb),
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
        """Prepare a point's pool task: ship-by-digest when possible.

        The zero-copy path: hand workers just ``(digest, platform)`` —
        a few dozen bytes instead of a pickled record forest.  When the
        spec->digest index already knows the variant's digest and the
        dispatch store holds those columns, the task ships as is;
        otherwise the parent resolves (and traces) the experiment once
        and publishes its packed encoding.  Any preparation trouble —
        unknown app, degraded store — falls back to shipping the spec,
        where the worker reproduces (and properly attributes) the
        failure itself.  ``lookup`` asks the worker to look a shipped
        point up in the result cache first.
        """
        reg = get_registry()
        store = self._dispatch_store()
        if not store.degraded:
            t0 = time.monotonic()
            try:
                exp = _resolve_experiment(point, self.cache_dir,
                                          self._experiments)
                cfg = exp.platform(
                    point.bandwidth_mbps, point.buses, point.latency,
                    point.perturb,
                )
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
                return ("ship", digest, cfg, lookup)
        reg.counter("engine.dispatch.spec_points").inc()
        return ("spec", point)

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

        Worker failures are retried per :attr:`retry`; permanently dead
        points surface per :attr:`degraded` (sentinel or raise).
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
        # share a batch, so a poisoned spec cannot waste a sibling
        # experiment's retry budget.
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
        failures: list[PointFailure] = []
        self._run_resilient(mode, batches, lookup, out, failures)
        if failures and not self.degraded:
            raise GridExecutionError(failures)
        if self.verify_sample > 0.0:
            # Worker-returned values get the same certification as
            # cache hits: a nondeterministic worker replay is caught by
            # an independent parent-side re-replay.
            for i in miss:
                out[i] = self._maybe_verify(points[i], mode, out[i], "worker")
        for i, rep in same.items():
            out[i] = out[rep]
        return out

    def _run_resilient(
        self,
        mode: str,
        batches: list[list[tuple[int, GridPoint]]],
        lookup: set[int],
        out: list,
        failures: list[PointFailure],
    ) -> None:
        """Submit every batch of ``(slot, point)`` entries and babysit.

        First attempts ride the prepared dispatch tasks (ship-by-digest
        where possible, looked up in workers for the slots in
        ``lookup``); every retry re-dispatches its point by spec, so
        even dispatch-store damage can only cost one attempt.  Failures
        inside a batch are per-entry (a sibling's exception never wastes
        a finished replay); three whole-batch failure shapes are also
        recovered: a worker *raising* before task execution (charge and
        retry each entry), a worker *dying* (``BrokenProcessPool``
        poisons every in-flight future — recycle the pool, charge each
        in-flight entry one attempt, resubmit singly), and a worker
        *hanging* (per-batch wall-clock budget exceeded — same recycle,
        charge only the expired batches).  A point that spends its
        attempt budget is quarantined; its slot receives a
        :class:`PointFailure`.

        A drain request (:meth:`request_drain`) is honored at the next
        scheduling step: queued futures are cancelled, running ones are
        awaited (their workers have stored them), and the grid raises
        :class:`~repro.experiments.checkpoint.CampaignInterrupted`.
        """
        retry = self.retry
        reg = get_registry()
        pending: dict[
            Future, tuple[list[tuple[int, GridPoint]], int, float]
        ] = {}
        #: Per-slot (kind, seconds, error) of every failed attempt so
        #: far — becomes PointFailure.attempt_history on quarantine.
        history: dict[int, list[tuple[str, float, str]]] = {}
        #: Per-slot first-attempt task, prepared once at dispatch time.
        prepared: dict[int, tuple] = {}

        def submit(entries: list[tuple[int, GridPoint]], attempt: int) -> None:
            tasks = [
                prepared[slot] if attempt == 1 else ("spec", point)
                for slot, point in entries
            ]
            try:
                fut = self._ensure_pool().submit(_worker_run_batch, tasks, mode)
            except BrokenProcessPool:
                # A worker died between submissions (batch preparation
                # gives it time to): recycle and submit to a fresh pool.
                # In-flight futures of the dead pool surface their own
                # crash through the recovery path below.
                self._discard_pool("broken (worker process died)")
                fut = self._ensure_pool().submit(_worker_run_batch, tasks, mode)
            pending[fut] = (entries, attempt, time.monotonic())
            reg.counter("engine.dispatch.batches").inc()

        def settle(slot: int, point: GridPoint, attempt: int,
                   kind: str, error: str, elapsed: float,
                   tb: str = "") -> None:
            history.setdefault(slot, []).append((kind, elapsed, error))
            if attempt < retry.max_attempts and not self._drain.is_set():
                delay = retry.delay(attempt, self._retry_rng)
                _log.warning(
                    "grid point %s/%s failed (%s, attempt %d/%d): %s; "
                    "retrying in %.3fs",
                    point.app, point.variant, kind, attempt,
                    retry.max_attempts, error, delay,
                )
                reg.counter("engine.retries").inc()
                if delay > 0:
                    time.sleep(delay)
                submit([(slot, point)], attempt + 1)
                return
            if attempt < retry.max_attempts:
                # Draining: don't burn the point's remaining attempts —
                # leave its slot empty so a resume re-runs it fresh.
                return
            failure = PointFailure(
                point=point, kind=kind, error=error, attempts=attempt,
                attempt_history=tuple(history.get(slot, ())), traceback=tb,
            )
            self.quarantine[point] = failure
            failures.append(failure)
            out[slot] = failure
            reg.counter("engine.quarantined").inc()
            run = current_run()
            if run is not None:
                run.record("point_quarantined", app=point.app,
                           variant=point.variant, kind=kind,
                           attempts=attempt, error=error)
            _log.error("grid point quarantined: %s", failure.describe())

        for entries in batches:
            if self._drain.is_set():
                break
            for slot, point in entries:
                prepared[slot] = self._dispatch_task(point, slot in lookup)
            submit(entries, 1)

        all_slots = [slot for entries in batches for slot, _ in entries]
        while pending:
            if self._drain.is_set():
                self._drain_inflight(mode, pending, out)
                remaining = sum(1 for slot in all_slots if out[slot] is None)
                raise self._interrupted(remaining=remaining)
            timeout = None
            if retry.point_timeout is not None:
                oldest = min(t0 for (_, _, t0) in pending.values())
                timeout = max(
                    0.0, oldest + retry.point_timeout - time.monotonic()
                )
            done, _ = wait(
                list(pending), timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                # A batch blew its wall-clock budget: its worker is
                # stuck, so the pool must go.  Innocent in-flight
                # batches are resubmitted without being charged an
                # attempt.
                now = time.monotonic()
                states = list(pending.values())
                pending.clear()
                self._discard_pool("hung (per-point timeout exceeded)")
                for entries, attempt, t0 in states:
                    if now - t0 >= retry.point_timeout:
                        for slot, point in entries:
                            settle(
                                slot, point, attempt, "timeout",
                                f"exceeded {retry.point_timeout:.3g}s "
                                f"wall clock",
                                now - t0,
                            )
                    else:
                        submit(entries, attempt)
                continue
            for fut in done:
                if fut not in pending:
                    continue  # cleared by a pool-crash recovery below
                entries, attempt, t0 = pending.pop(fut)
                elapsed = time.monotonic() - t0
                try:
                    outcomes, payload = fut.result()
                except BrokenProcessPool as exc:
                    # The dead worker poisons every in-flight future and
                    # the parent cannot tell which point killed it, so
                    # each one is charged an attempt (this bounds a
                    # reproducibly-crashing point to max_attempts pool
                    # restarts) and everything is resubmitted.
                    now = time.monotonic()
                    victims = list(pending.values())
                    pending.clear()
                    self._discard_pool("broken (worker process died)")
                    err = f"{type(exc).__name__}: {exc}" if str(exc) else (
                        "worker process died unexpectedly"
                    )
                    for slot, point in entries:
                        settle(slot, point, attempt, "pool_crash", err,
                               elapsed)
                    for v_entries, v_attempt, v_t0 in victims:
                        for slot, point in v_entries:
                            settle(slot, point, v_attempt, "pool_crash", err,
                                   now - v_t0)
                except Exception as exc:  # noqa: BLE001 - retried/reported
                    # A raise before task execution (fault hooks, pickle
                    # trouble); format_exception includes the
                    # _RemoteTraceback the pool chains in, i.e. the
                    # worker-side stack.
                    err = f"{type(exc).__name__}: {exc}"
                    tb = "".join(_tb.format_exception(exc))
                    for slot, point in entries:
                        settle(slot, point, attempt, "exception", err,
                               elapsed, tb=tb)
                else:
                    _absorb_payload(payload)
                    per_point = elapsed / max(1, len(entries))
                    for (slot, point), outcome in zip(entries, outcomes):
                        if outcome[0] == "ok":
                            out[slot] = outcome[1]
                            reg.counter("engine.points_executed").inc()
                            reg.histogram(
                                "engine.point_wall_seconds"
                            ).observe(per_point)
                        else:
                            settle(slot, point, attempt, "exception",
                                   outcome[1], per_point, tb=outcome[2])

        if self._drain.is_set():
            remaining = sum(1 for slot in all_slots if out[slot] is None)
            if remaining:
                raise self._interrupted(remaining=remaining)

    def _drain_inflight(self, mode: str, pending: dict, out: list) -> None:
        """Drain step: cancel what never started, await what runs.

        Queued futures are cancelled (their points re-run on resume);
        futures already executing are awaited, so the points they finish
        reach the result cache — a drain loses no finished work.
        """
        running: dict[
            Future, tuple[list[tuple[int, GridPoint]], int, float]
        ] = {}
        for fut, state in list(pending.items()):
            if not fut.cancel():
                running[fut] = state
        pending.clear()
        reg = get_registry()
        for fut, (entries, _attempt, t0) in running.items():
            try:
                outcomes, payload = fut.result(timeout=self.retry.point_timeout)
            except Exception:  # noqa: BLE001 - drained points just re-run
                continue
            _absorb_payload(payload)
            per_point = (time.monotonic() - t0) / max(1, len(entries))
            for (slot, point), outcome in zip(entries, outcomes):
                if outcome[0] != "ok":
                    continue
                out[slot] = outcome[1]
                reg.counter("engine.points_executed").inc()
                reg.histogram("engine.point_wall_seconds").observe(per_point)

    def _run_serial(self, points: list[GridPoint], mode: str) -> list:
        """In-process reference path with the same failure contract."""
        out: list = []
        failures: list[PointFailure] = []
        reg = get_registry()
        for p in points:
            if self._drain.is_set():
                raise self._interrupted(remaining=len(points) - len(out))
            t0 = time.monotonic()
            try:
                value = self._cached_value(p, mode)
                if value is None:
                    _check_rss_budget(self.rss_limit_mb)
                    value = _simulate_point(p, self.cache_dir,
                                            self._experiments, mode,
                                            lookup=False)
                    value = self._maybe_verify(p, mode, value, "serial")
                    reg.counter("engine.points_executed").inc()
                    reg.histogram("engine.point_wall_seconds").observe(
                        time.monotonic() - t0
                    )
                out.append(value)
            except Exception as exc:  # noqa: BLE001 - uniform grid contract
                err = f"{type(exc).__name__}: {exc}"
                failure = PointFailure(
                    point=p, kind="exception", error=err, attempts=1,
                    attempt_history=(("exception", time.monotonic() - t0, err),),
                    traceback="".join(_tb.format_exception(exc)),
                )
                self.quarantine[p] = failure
                reg.counter("engine.quarantined").inc()
                if not self.degraded:
                    raise GridExecutionError([failure]) from exc
                _log.warning("degraded grid: %s", failure.describe())
                failures.append(failure)
                out.append(failure)
        return out

    def run_grid(self, points: Iterable[GridPoint]) -> list[SimResult]:
        """Replay every grid point; results in input order.

        Deterministic: identical to running the same points serially.
        With ``jobs > 1`` every point that misses the caches replays in
        the pool, a lone one too.  In degraded mode, slots whose point
        kept failing hold a :class:`PointFailure` instead of a
        :class:`SimResult`; in strict mode such points raise
        :class:`GridExecutionError`.
        """
        points = list(points)
        _maybe_selfkill("REPRO_TEST_SELFKILL_BEFORE_DISPATCH")
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
        _maybe_selfkill("REPRO_TEST_SELFKILL_BEFORE_DISPATCH")
        with _span("engine.durations", points=len(points), jobs=self.jobs):
            if self.jobs <= 1:
                return self._run_serial(points, "duration")
            return self._map_points(points, "duration")

    # -- experiment interop -------------------------------------------------
    def point_for(self, exp: AppExperiment,
                  variant: str = "original") -> GridPoint:
        """Grid point describing an existing experiment bundle.

        The engine adopts ``exp`` for the point's experiment key (the
        first bundle offered wins), so lookups, serial replays and
        dispatch reuse its traces, memo and caches instead of building
        their own.
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


def speedup_grid(
    engine: ExperimentEngine,
    apps: Sequence[str],
    nranks: int = 64,
    chunks: int = 4,
) -> dict[str, dict[str, float]]:
    """Fig. 6(a) speedups for a pool of applications, engine-scheduled.

    Returns ``{app: {"real": s, "ideal": s}}`` — the same numbers as
    :meth:`AppExperiment.speedups` per app, computed as one grid.
    """
    variants = ("original", "real", "ideal")
    points = [
        GridPoint(app=a, variant=v, nranks=nranks, chunks=chunks)
        for a in apps
        for v in variants
    ]
    durs = engine.durations(points)
    by_point = dict(zip(points, durs))
    out: dict[str, dict[str, float]] = {}
    for a in apps:
        base = by_point[GridPoint(app=a, variant="original", nranks=nranks, chunks=chunks)]
        out[a] = {
            "real": base / by_point[GridPoint(app=a, variant="real", nranks=nranks, chunks=chunks)],
            "ideal": base / by_point[GridPoint(app=a, variant="ideal", nranks=nranks, chunks=chunks)],
        }
    return out
