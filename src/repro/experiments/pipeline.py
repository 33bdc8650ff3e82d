"""End-to-end experiment pipeline: app -> traces -> replays.

One :class:`AppExperiment` owns the three traces of one application
run (original, real-pattern overlapped, ideal-pattern overlapped —
exactly the three traces the paper's tracer emits per run) and replays
them on any platform variation.  The original is a
:class:`~repro.trace.records.TraceSet`, whose record objects carry the
access profiles the transformations and the pattern statistics read;
the two derived traces are held as the
:class:`~repro.trace.columnar.ColumnarTrace` the transformations
return, the form the replay reads.  Traces are built lazily and cached;
replays are memoized per (variant, platform) so bandwidth searches
stay cheap.  Every replay goes through one lookup
(:meth:`AppExperiment.cached`) and, on a miss, one replay step
(:meth:`AppExperiment.replay`); both serve a full result or the
makespan alone.  With a result cache a duration is answered from its
one-line sidecar before any envelope, trace or replay, and a duration
replay publishes that sidecar alone.

The memos are consulted before any cache, and they are the only
in-memory copy of what this process built: a cache that cannot write
(:mod:`repro.experiments.cache`) stops publishing and keeps nothing.
"""

from __future__ import annotations

import functools
from typing import Mapping

from ..apps import get_app
from ..core.ideal import ideal_transform
from ..core.transform import OverlapConfig, overlap_transform
from ..dimemas.machine import MachineConfig
from ..dimemas.replay import simulate
from ..dimemas.results import SimResult
from ..obs import span as _span
from ..trace.columnar import ColumnarTrace, columnar_of
from ..trace.records import TraceSet

__all__ = ["AppExperiment", "VARIANTS", "override_platform", "paper_testbed"]

#: The three executions the paper compares.
VARIANTS = ("original", "real", "ideal")


@functools.cache
def paper_testbed(app: str) -> MachineConfig:
    """The application's paper test bed
    (:meth:`MachineConfig.paper_testbed`), built once per process:
    configs are frozen, and grid points ask for it on every lookup."""
    return MachineConfig.paper_testbed(app)


def override_platform(
    machine: MachineConfig,
    bandwidth_mbps: float | None = None,
    buses: int | None | str = "default",
    latency: float | None = None,
    perturb: object | None = None,
) -> MachineConfig:
    """``machine`` with the standard experiment overrides: ``None``
    (``"default"`` for ``buses``) keeps the base value.

    ``perturb`` attaches a
    :class:`~repro.perturb.PerturbationSchedule` to the platform;
    because it becomes a :class:`MachineConfig` field, every cache key
    downstream picks it up for free.
    """
    overrides: dict = {}
    if bandwidth_mbps is not None:
        overrides["bandwidth_mbps"] = bandwidth_mbps
    if buses != "default":
        overrides["buses"] = buses
    if latency is not None:
        overrides["latency"] = latency
    if perturb is not None:
        overrides["perturb"] = perturb
    return machine.with_platform(**overrides)


class AppExperiment:
    """Cached trace/transform/replay bundle of one application run.

    Parameters
    ----------
    app:
        Table I application name (``sweep3d``, ``pop``, ``alya``,
        ``specfem3d``, ``bt``, ``cg``).
    nranks:
        Simulated processes (paper test bed: 64).
    chunks:
        Chunk count of the overlap transformation (paper: 4).
    app_params:
        Overrides forwarded to the application constructor.
    machine:
        Baseline platform; defaults to the paper test bed with the
        application's Table I bus count.
    """

    def __init__(
        self,
        app: str,
        nranks: int = 64,
        chunks: int = 4,
        app_params: Mapping | None = None,
        machine: MachineConfig | None = None,
        cache=None,
        sim_cache=None,
    ):
        self.app_name = app
        self.nranks = nranks
        self.chunks = chunks
        self.app_params = dict(app_params or {})
        self.machine = machine or paper_testbed(app)
        #: Optional :class:`~repro.experiments.cache.TraceCache` for
        #: persisting original traces across sessions.
        self.cache = cache
        #: Optional :class:`~repro.experiments.cache.SimResultCache`
        #: persisting replay results across processes and sessions.
        self.sim_cache = sim_cache
        self._traces: dict[str, TraceSet | ColumnarTrace] = {}
        self._sims: dict[tuple[str, MachineConfig], SimResult] = {}
        #: The makespan of every replay in ``_sims`` and of every
        #: duration-only replay.
        self._durations: dict[tuple[str, MachineConfig], float] = {}
        self._published_specs: set[str] = set()
        #: ``variant -> _spec_key(variant)``: the key hashes fields fixed
        #: at construction, and warm lookups ask for it on every point.
        self._spec_keys: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    def trace(self, variant: str = "original") -> TraceSet | ColumnarTrace:
        """The trace of one execution variant (built and cached lazily):
        the original's :class:`TraceSet`, or a derived variant's
        :class:`ColumnarTrace` (records through ``to_traceset()``)."""
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
        if variant not in self._traces:
            if variant == "original":
                def build() -> TraceSet:
                    with _span("trace.build", app=self.app_name,
                               nranks=self.nranks):
                        app = get_app(self.app_name, **self.app_params)
                        return app.trace(nranks=self.nranks).trace

                if self.cache is None:
                    self._traces["original"] = build()
                else:
                    key = self.cache.key(
                        app=self.app_name, nranks=self.nranks,
                        params=self.app_params,
                    )
                    self._traces["original"] = self.cache.load_or_build(key, build)
            elif variant == "real":
                cfg = OverlapConfig(chunks=self.chunks, schedule="real")
                self._traces["real"], _ = overlap_transform(self.trace("original"), cfg)
            else:
                self._traces["ideal"], _ = ideal_transform(
                    self.trace("original"), chunks=self.chunks,
                )
        return self._traces[variant]

    def platform(
        self,
        bandwidth_mbps: float | None = None,
        buses: int | None | str = "default",
        latency: float | None = None,
        perturb: object | None = None,
    ) -> MachineConfig:
        """The baseline machine with the standard experiment overrides
        (:func:`override_platform`)."""
        return override_platform(self.machine, bandwidth_mbps, buses,
                                 latency, perturb)

    def columnar(self, variant: str = "original"):
        """The packed columnar form of a variant's trace.

        Feeds the parallel engine's zero-copy dispatch: the parent
        encodes each trace once and workers replay straight from the
        columns.  Also publishes the spec->digest index entry so later
        runs can answer warm hits without building the trace at all.
        """
        col = columnar_of(self.trace(variant))
        spec = self._spec_key(variant)
        if self.sim_cache is not None and spec not in self._published_specs:
            self.sim_cache.put_digest(spec, col.digest)
            self._published_specs.add(spec)
        return col

    def simulate(
        self,
        variant: str = "original",
        bandwidth_mbps: float | None = None,
        buses: int | None | str = "default",
        latency: float | None = None,
        perturb: object | None = None,
    ) -> SimResult:
        """Replay a variant on a (possibly modified) platform.

        Asks :meth:`cached` first; a miss goes to :meth:`replay`.
        """
        cfg = self.platform(bandwidth_mbps, buses, latency, perturb)
        hit = self.cached(variant, cfg, full=True)
        return self.replay(variant, cfg, full=True) if hit is None else hit

    def duration(self, variant: str = "original", **platform) -> float:
        """Simulated makespan of a variant (seconds).

        Asks :meth:`cached` first, so a warm lookup reads one sidecar
        line and never loads a result envelope, builds a trace or
        replays; a miss goes to :meth:`replay`.
        """
        cfg = self.platform(**platform)
        hit = self.cached(variant, cfg, full=False)
        return self.replay(variant, cfg, full=False) if hit is None else hit

    def cached(self, variant: str, cfg: MachineConfig, full: bool):
        """A replay's result (``full``) or makespan *if it needs no
        work*, else None.

        Answers from the memo or — through the sim cache's
        spec->digest index — from disk, without ever building a trace
        or running a simulation; a duration reads only the one-line
        sidecar.  The parallel engine uses this to short-circuit warm
        grid points in the parent process instead of dispatching them
        to workers.  A result read from disk is memoized; a makespan
        read from disk is not.
        """
        hit = (self._sims if full else self._durations).get((variant, cfg))
        if hit is not None or self.sim_cache is None:
            return hit
        digest = self._known_digest(variant)
        if digest is None:
            return None
        key = self.sim_cache.key_for_digest(digest, cfg)
        if not full:
            return self.sim_cache.load_duration(key)
        hit = self.sim_cache.load(key)
        if hit is not None:
            self._memoize(variant, cfg, hit, full)
        return hit

    def _known_digest(self, variant: str) -> str | None:
        """The variant's trace digest, if knowable without building it."""
        if variant in self._traces:
            from .cache import trace_digest
            return trace_digest(self._traces[variant])
        if self.sim_cache is None:
            return None
        return self.sim_cache.get_digest(self._spec_key(variant))

    def _spec_key(self, variant: str) -> str:
        """Versioned content key of (application spec, variant) — the
        identity behind the sim cache's spec->digest shortcut.  Hashed
        once per variant; the digest it maps to is read from the cache
        on every lookup."""
        key = self._spec_keys.get(variant)
        if key is None:
            from .cache import content_key
            key = self._spec_keys[variant] = content_key(
                kind="experiment", app=self.app_name, nranks=self.nranks,
                chunks=self.chunks, params=self.app_params, variant=variant,
            )
        return key

    def replay(self, variant: str, cfg: MachineConfig, full: bool):
        """The result (``full``) or makespan of a replay whose lookup
        missed.

        :meth:`cached` looks a replay up only once the trace digest is
        known; when it was not, the lookup happens here, once the trace
        is built, so every replay is looked up exactly once.  The answer
        is memoized, keyed on the *full* platform so two configs
        differing in any machine field never alias; with a result cache
        a replay is published (:meth:`SimResultCache.publish`).
        """
        key = hit = None
        if self.sim_cache is not None:
            unknown = self._known_digest(variant) is None
            digest = self.columnar(variant).digest  # publishes spec->digest
            key = self.sim_cache.key_for_digest(digest, cfg)
            if unknown:
                cache = self.sim_cache
                hit = (cache.load if full else cache.load_duration)(key)
        if hit is None:
            with _span("experiment.simulate", app=self.app_name,
                       variant=variant):
                result = simulate(self.trace(variant), cfg)
            if key is not None:
                self.sim_cache.publish(key, result, full)
            hit = result if full else result.duration
        self._memoize(variant, cfg, hit, full)
        return hit

    def _memoize(self, variant: str, cfg: MachineConfig, hit, full: bool) -> None:
        if full:
            self._sims[(variant, cfg)] = hit
            hit = hit.duration
        self._durations[(variant, cfg)] = hit

    def speedups(self, **platform) -> dict[str, float]:
        """Overlap speedups vs the original execution (paper Fig. 6(a))."""
        base = self.duration("original", **platform)
        return {
            "real": base / self.duration("real", **platform),
            "ideal": base / self.duration("ideal", **platform),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AppExperiment({self.app_name!r}, nranks={self.nranks}, "
            f"chunks={self.chunks})"
        )
