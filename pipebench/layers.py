"""Per-layer timing of the pipeline, measured from outside the program.

Every layer of the pipeline is entered through a public function.  A
:class:`LayerTracer` replaces each such function, wherever a ``repro``
module binds it, with a wrapper that times the call.  Nothing inside
``src/`` is changed: the wrappers are installed in the benchmark's own
process before any work starts, and pool workers inherit them through
``fork``.

Two clocks are kept:

* **busy time** -- a layer's self time (its calls minus the nested calls
  of other layers), summed over every process and thread.  Each call is
  written into the ``repro.obs`` metrics registry, whose deltas the
  experiment engine already ships from pool workers back to the parent,
  so worker-side replays are counted without new instrumentation;
* **wall self time** -- the same self time, but only on the main thread
  of the parent process.  These partition the parent's wall clock, so
  the layer self times plus the time outside every layer add up to the
  measured wall time exactly.

The plan layer has no public entry of its own: plan construction always
happens inside ``simulate``, inside the existing ``replay.plan`` span,
whose durations are harvested when the enclosing ``simulate`` returns.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import time

#: The layers, named by module, in pipeline order.
LAYERS = (
    "apps.trace",
    "core.transform",
    "core.ideal",
    "trace.columnar",
    "dimemas.plan",
    "dimemas.replay",
    "audit",
    "insight",
    "perturb",
    "experiments.bandwidth",
    "experiments.parallel",
    "experiments.cache",
)

#: Registry namespace of the benchmark's own instruments.
PREFIX = "pipebench."

#: Public cache methods that make up the ``experiments.cache`` layer.
CACHE_METHODS = {
    "SimResultCache": ("load", "load_duration", "store", "load_or_simulate",
                       "get_digest", "put_digest"),
    "TraceCache": ("load_or_build", "flush"),
    "TraceStore": ("put", "get"),
}


def _simulate_layer(args: tuple, kwargs: dict) -> str:
    """Which layer a ``simulate`` call belongs to, from its arguments."""
    machine = kwargs.get("machine", args[1] if len(args) > 1 else None)
    if kwargs.get("perturb") is not None or (
        machine is not None and getattr(machine, "perturb", None) is not None
    ):
        return "perturb"
    if kwargs.get("audit") is not None:
        return "audit"
    if kwargs.get("insight") is not None:
        return "insight"
    return "dimemas.replay"


class _Frame:
    __slots__ = ("layer", "t0", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.t0 = time.perf_counter()
        self.child = 0.0


class LayerTracer:
    """Installs the layer wrappers and accumulates their timings."""

    def __init__(self) -> None:
        from repro.obs import get_registry

        self.registry = get_registry()
        self.root_pid = os.getpid()
        #: Wall self seconds per layer on the parent's main thread.
        self.wall_self: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self._local = threading.local()

    # -- timing ------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        # A forked worker inherits the forking thread's stack; start over.
        pid = os.getpid()
        if getattr(self._local, "pid", None) != pid:
            self._local.pid = pid
            self._local.stack = []
        return self._local.stack

    def _charge(self, layer: str, seconds: float) -> None:
        self.registry.histogram(f"{PREFIX}{layer}.s").observe(seconds)
        if (os.getpid() == self.root_pid
                and threading.current_thread() is threading.main_thread()):
            self.wall_self[layer] += seconds

    def _harvest_plans(self, frame: _Frame) -> None:
        """Move this replay's ``replay.plan`` span time to the plan layer."""
        from repro.obs import flush

        for rec in flush():
            if rec.name == "replay.plan":
                frame.child += rec.duration
                self._charge("dimemas.plan", rec.duration)
                self._count("dimemas.plan.built")

    # -- per-layer work counts ---------------------------------------------
    def _count(self, name: str, n: float = 1) -> None:
        self.registry.counter(PREFIX + name).inc(n)

    def _after(self, layer: str, fn_name: str, result, elapsed: float) -> None:
        self._count(f"{layer}.calls")
        if layer == "apps.trace":
            self._count("apps.trace.records",
                        sum(len(p.records) for p in result.trace.processes))
        elif layer == "core.transform":
            stats = result[1]
            self._count("core.transform.messages", stats.messages_transformed)
            self._count("core.transform.chunks", stats.chunks_created)
        elif layer == "dimemas.replay":
            self._count("dimemas.replay.events",
                        result.network_stats["events_executed"])
            self._count("dimemas.replay.messages", len(result.messages))
        elif fn_name == "decode":
            self.registry.histogram(
                f"{PREFIX}trace.columnar.decode_s").observe(elapsed)
        elif layer == "trace.columnar":
            self.registry.histogram(
                f"{PREFIX}trace.columnar.encode_s").observe(elapsed)
            if fn_name == "encode":
                self._count("trace.columnar.bytes", len(result))

    def _wrapper(self, layer: str | None, fn):
        """``fn``, timed as ``layer`` (None: classify each ``simulate``)."""
        tracer = self
        name = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lay = layer or _simulate_layer(args, kwargs)
            stack = tracer._stack()
            frame = _Frame(lay)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if name == "simulate":
                    tracer._harvest_plans(frame)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame.t0
                tracer._charge(lay, elapsed - frame.child)
                if stack:
                    stack[-1].child += elapsed
            tracer._after(lay, name, result, elapsed)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def _patch_function(self, fn, layer, skip_modules=()) -> None:
        """Rebind ``fn`` in every loaded ``repro`` module that holds it."""
        wrapper = self._wrapper(layer, fn)
        for mod_name, mod in list(sys.modules.items()):
            if (mod is None or not mod_name.startswith("repro")
                    or mod_name in skip_modules):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)

    def install(self) -> "LayerTracer":
        """Wrap every layer entry and turn on the program's own spans."""
        import repro.audit.certify as certify
        import repro.core.ideal as ideal
        import repro.core.transform as transform
        import repro.dimemas.replay as replay
        import repro.experiments  # noqa: F401 - binds the entries below
        import repro.experiments.bandwidth as bandwidth
        import repro.experiments.cache as cache
        import repro.insight.explain as explain
        import repro.trace.columnar as columnar
        from repro import obs
        from repro.apps.base import Application
        from repro.experiments.parallel import ExperimentEngine

        obs.enable()  # the replay.plan spans feed the plan layer
        self._patch_function(transform.overlap_transform, "core.transform",
                             skip_modules=("repro.core.ideal",))
        self._patch_function(ideal.ideal_transform, "core.ideal")
        self._patch_function(columnar.from_traceset, "trace.columnar")
        self._patch_function(columnar.decode, "trace.columnar")
        self._patch_function(replay.simulate, None)
        self._patch_function(certify.certify_trace, "audit")
        self._patch_function(explain.explain_experiment, "insight")
        self._patch_function(bandwidth.relaxation_bandwidth,
                             "experiments.bandwidth")
        self._patch_function(bandwidth.equivalent_bandwidth,
                             "experiments.bandwidth")
        methods = [(Application, "trace", "apps.trace"),
                   (columnar.ColumnarTrace, "encode", "trace.columnar")]
        methods += [(ExperimentEngine, m, "experiments.parallel")
                    for m in ("durations", "run_grid", "close")]
        methods += [(getattr(cache, cls), m, "experiments.cache")
                    for cls, names in CACHE_METHODS.items() for m in names]
        for cls, meth, layer in methods:
            setattr(cls, meth, self._wrapper(layer, getattr(cls, meth)))
        return self


#: Histograms whose new observations a phase needs.
_HISTOGRAMS = tuple(f"{PREFIX}{layer}.s" for layer in LAYERS) + (
    f"{PREFIX}trace.columnar.encode_s",
    f"{PREFIX}trace.columnar.decode_s",
    "engine.point_wall_seconds",
    "engine.dispatch.prep_seconds",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerReport:
    """Registry deltas over the phases of a traced run, as metrics.

    Phases: the cold pass (every busy time, count and self share), the
    first warm pass (cache traffic), and for the Figure 6 workload a
    serial warm pass, whose sequential searches give the probe count
    the speculative searches are measured against.
    """

    def __init__(self, tracer: LayerTracer):
        self.tracer = tracer
        self.registry = tracer.registry
        self._start = self._state()
        self.cold = self.warm = self.serial = None
        self.cold_s = self.warm_s = self.serial_s = 0.0
        self.jobs = 1
        self.warm_ops = 0
        self.wall_self: dict[str, float] = {}

    def _state(self) -> tuple[dict, dict]:
        return (self.registry.counters(),
                {h: len(self.registry.histogram(h).values)
                 for h in _HISTOGRAMS})

    def _delta(self, since: tuple[dict, dict]) -> tuple[dict, dict]:
        counters, lengths = since
        now = self.registry.counters()
        dc = {n: v - counters.get(n, 0) for n, v in now.items()}
        dh = {h: self.registry.histogram(h).values[lengths[h]:]
              for h in _HISTOGRAMS}
        return dc, dh

    def end_cold(self, cold_s: float, jobs: int) -> None:
        self.cold = self._delta(self._start)
        self.cold_s, self.jobs = cold_s, jobs
        self.wall_self = dict(self.tracer.wall_self)
        self._mark = self._state()

    def end_warm(self, warm_s: float, ops: int) -> None:
        self.warm = self._delta(self._mark)
        self.warm_s, self.warm_ops = warm_s, ops

    def begin_serial(self) -> None:
        self._mark = self._state()

    def end_serial(self, serial_s: float) -> None:
        self.serial = self._delta(self._mark)
        self.serial_s = serial_s

    def metrics(self) -> dict[str, float]:
        counters, hists = self.cold

        def count(name: str) -> float:
            return counters.get(PREFIX + name, 0)

        def total(name: str) -> float:
            return math.fsum(hists[name])

        busy = {layer: total(f"{PREFIX}{layer}.s") for layer in LAYERS}
        replay_s = busy["dimemas.replay"]
        m = {
            "apps.trace.calls": count("apps.trace.calls"),
            "apps.trace.s": busy["apps.trace"],
            "apps.trace.records": count("apps.trace.records"),
            "apps.trace.records_per_s": _ratio(count("apps.trace.records"),
                                               busy["apps.trace"]),
            "core.transform.s": busy["core.transform"],
            "core.transform.messages": count("core.transform.messages"),
            "core.transform.chunks": count("core.transform.chunks"),
            "core.ideal.s": busy["core.ideal"],
            "trace.columnar.encode_s": total(f"{PREFIX}trace.columnar.encode_s"),
            "trace.columnar.decode_s": total(f"{PREFIX}trace.columnar.decode_s"),
            "trace.columnar.bytes": count("trace.columnar.bytes"),
            "dimemas.plan.s": busy["dimemas.plan"],
            "dimemas.plan.built": count("dimemas.plan.built"),
            "dimemas.replay.calls": count("dimemas.replay.calls"),
            "dimemas.replay.s": replay_s,
            "dimemas.replay.events": count("dimemas.replay.events"),
            "dimemas.replay.events_per_s": _ratio(
                count("dimemas.replay.events"), replay_s),
            "dimemas.replay.messages": count("dimemas.replay.messages"),
        }
        for layer in ("audit", "insight", "perturb"):
            m[f"{layer}.s"] = busy[layer]
            m[f"{layer}.overhead"] = _ratio(busy[layer], replay_s)

        probes = counters.get("bisect.probes", 0)
        sequential = self.serial[0].get("bisect.probes", 0) if self.serial else 0
        m["experiments.bandwidth.searches"] = count(
            "experiments.bandwidth.calls")
        m["experiments.bandwidth.probes"] = probes
        m["experiments.bandwidth.useful_ratio"] = _ratio(sequential, probes)

        point_wall = hists["engine.point_wall_seconds"]
        m["experiments.parallel.points_executed"] = counters.get(
            "engine.points_executed", 0)
        m["experiments.parallel.point_s"] = _ratio(math.fsum(point_wall),
                                                   len(point_wall))
        m["experiments.parallel.prep_s"] = total("engine.dispatch.prep_seconds")
        m["experiments.parallel.ship_points"] = counters.get(
            "engine.dispatch.ship_points", 0)
        m["experiments.parallel.batches"] = counters.get(
            "engine.dispatch.batches", 0)
        m["experiments.parallel.pool_busy_share"] = _ratio(
            math.fsum(point_wall), self.jobs * self.cold_s)

        warm = self.warm[0] if self.warm else {}
        hits = sum(v for n, v in warm.items()
                   if n.startswith("cache.") and n.endswith(".hits"))
        misses = sum(v for n, v in warm.items()
                     if n.startswith("cache.") and n.endswith(".misses"))
        m["experiments.cache.hits"] = hits
        m["experiments.cache.misses"] = misses
        m["experiments.cache.hit_ratio"] = _ratio(hits, hits + misses)
        m["experiments.cache.warm_point_ms"] = _ratio(1000.0 * self.warm_s,
                                                      self.warm_ops)
        m["experiments.cache.serial_warm_s"] = self.serial_s

        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.wall_self[layer]
            m[f"{layer}.self_share"] = _ratio(self.wall_self[layer],
                                              self.cold_s)
        m["unattributed_s"] = self.cold_s - math.fsum(self.wall_self.values())
        m["unattributed_share"] = _ratio(m["unattributed_s"], self.cold_s)
        m["traced_cold_s"] = self.cold_s
        return m
