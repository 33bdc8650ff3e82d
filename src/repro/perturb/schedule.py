"""Seeded, deterministic platform-perturbation schedules.

A :class:`PerturbationSchedule` describes how a *simulated* platform
degrades over simulated time: bandwidth sagging inside time windows,
latency spikes, bus/link outages (with stall-and-resume or restart
semantics for in-flight transfers), per-rank OS noise on computation
bursts, and persistent straggler ranks.  It is pure data — frozen,
hashable, canonically serializable — and everything derived from it is
a deterministic function of the schedule and its ``seed``: replaying
the same trace under the same schedule is bitwise-reproducible across
processes and job counts.

Where it plugs in
-----------------

``simulate(trace, machine, perturb=schedule)`` — or a
:class:`~repro.dimemas.machine.MachineConfig` carrying the schedule in
its ``perturb`` field, which also keys every result cache entry by
the perturbation — replays the trace on
the degraded platform.  The network-facing math (windowed wire-time
integration, outage handling) lives in
:class:`repro.dimemas.network.PerturbedNetwork`; the CPU-facing math
(noise multipliers, straggler ratios) is computed here so the replay
core stays free of any randomness.

This module imports nothing from the simulator — it sits below
``repro.dimemas`` in the dependency order, so ``MachineConfig`` can
carry a schedule without an import cycle.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

__all__ = [
    "BandwidthWindow",
    "CpuNoise",
    "LatencyWindow",
    "OutageWindow",
    "PerturbationSchedule",
    "Straggler",
    "unit_hash",
]


def unit_hash(seed: int, *key) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from ``(seed, key)``.

    A pure function (sha256 over the rendered key) rather than a
    sequential RNG stream: every consumer — any process, any job
    count, any evaluation order — computes the identical value for the
    same coordinates, which is what makes perturbed replays
    bitwise-reproducible.
    """
    body = f"{seed}:" + ":".join(str(k) for k in key)
    digest = hashlib.sha256(body.encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _check_window(kind: str, t0: float, t1: float) -> None:
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"{kind} window must have finite bounds, got [{t0}, {t1}]")
    if t0 < 0:
        raise ValueError(f"{kind} window must start at t >= 0, got {t0}")
    if t1 <= t0:
        raise ValueError(f"{kind} window must have t1 > t0, got [{t0}, {t1}]")


@dataclass(frozen=True)
class BandwidthWindow:
    """Bandwidth scaled by ``factor`` while ``t0 <= t < t1``."""

    t0: float
    t1: float
    #: Multiplier on the platform bandwidth inside the window
    #: (``0 < factor``; ``factor < 1`` degrades, ``1.0`` is a no-op —
    #: use an :class:`OutageWindow` for a dead link).
    factor: float

    def __post_init__(self) -> None:
        _check_window("bandwidth", self.t0, self.t1)
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise ValueError(
                f"bandwidth factor must be finite and > 0, got {self.factor}"
            )

    def describe(self) -> str:
        return f"bandwidth x{self.factor:g} during [{self.t0:g}s, {self.t1:g}s)"


@dataclass(frozen=True)
class LatencyWindow:
    """``extra`` seconds added to per-message latency while active."""

    t0: float
    t1: float
    #: Additional latency in seconds (``>= 0``; 0 is a no-op).
    extra: float

    def __post_init__(self) -> None:
        _check_window("latency", self.t0, self.t1)
        if not (math.isfinite(self.extra) and self.extra >= 0):
            raise ValueError(
                f"latency extra must be finite and >= 0, got {self.extra}"
            )

    def describe(self) -> str:
        return f"latency +{self.extra:g}s during [{self.t0:g}s, {self.t1:g}s)"


@dataclass(frozen=True)
class OutageWindow:
    """The interconnect is down while ``t0 <= t < t1``.

    No new transfer can start during the window.  In-flight transfers
    follow ``semantics``:

    * ``"stall"`` — the transfer pauses and resumes where it left off
      when the window ends (link-level flow control);
    * ``"restart"`` — the transfer aborts and re-injects from scratch
      after the window (connection reset).
    """

    t0: float
    t1: float
    semantics: str = "stall"

    def __post_init__(self) -> None:
        _check_window("outage", self.t0, self.t1)
        if self.semantics not in ("stall", "restart"):
            raise ValueError(
                f"outage semantics must be 'stall' or 'restart', "
                f"got {self.semantics!r}"
            )

    def describe(self) -> str:
        return f"outage ({self.semantics}) during [{self.t0:g}s, {self.t1:g}s)"


@dataclass(frozen=True)
class CpuNoise:
    """Per-burst OS jitter on computation: each compute burst of the
    affected ranks is stretched by ``1 + amplitude * u`` where ``u``
    is a deterministic uniform draw per (seed, rank, burst index)."""

    #: Maximum fractional slowdown per burst (``>= 0``; 0 is a no-op).
    amplitude: float
    #: Affected ranks (``None`` = every rank).
    ranks: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(
                f"noise amplitude must be finite and >= 0, got {self.amplitude}"
            )
        if self.ranks is not None:
            object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
            if any(r < 0 for r in self.ranks):
                raise ValueError(f"noise ranks must be >= 0, got {self.ranks}")

    def describe(self) -> str:
        who = "all ranks" if self.ranks is None else f"ranks {list(self.ranks)}"
        return f"cpu noise amplitude {self.amplitude:g} on {who}"


@dataclass(frozen=True)
class Straggler:
    """One rank computing persistently slower: its effective
    ``cpu_ratio`` is multiplied by ``factor`` for the whole run."""

    rank: int
    #: Multiplier on the rank's cpu_ratio (``> 0``; ``2.0`` =
    #: half-speed CPU, ``1.0`` is a no-op).
    factor: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"straggler rank must be >= 0, got {self.rank}")
        if not (math.isfinite(self.factor) and self.factor > 0):
            raise ValueError(
                f"straggler factor must be finite and > 0, got {self.factor}"
            )

    def describe(self) -> str:
        return f"straggler rank {self.rank} cpu x{self.factor:g}"


def _overlapping(windows) -> tuple | None:
    """First overlapping pair among ``(t0, t1, obj)`` triples, or None."""
    ordered = sorted(windows, key=lambda w: (w[0], w[1]))
    for a, b in zip(ordered, ordered[1:]):
        if b[0] < a[1]:
            return a[2], b[2]
    return None


@dataclass(frozen=True)
class PerturbationSchedule:
    """A full degraded-platform scenario in simulated time.

    All windows are in simulated seconds.  Bandwidth and outage
    windows share the wire-time profile, so they must not overlap each
    other; latency windows must not overlap among themselves.  The
    ``seed`` drives every stochastic ingredient (currently the CPU
    noise draws) through :func:`unit_hash` — no sequential RNG state
    exists anywhere.
    """

    seed: int = 0
    bandwidth: tuple[BandwidthWindow, ...] = ()
    latency: tuple[LatencyWindow, ...] = ()
    outages: tuple[OutageWindow, ...] = ()
    cpu_noise: tuple[CpuNoise, ...] = ()
    stragglers: tuple[Straggler, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("bandwidth", "latency", "outages", "cpu_noise", "stragglers"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        wire = [(w.t0, w.t1, w) for w in self.bandwidth]
        wire += [(w.t0, w.t1, w) for w in self.outages]
        clash = _overlapping(wire)
        if clash is not None:
            raise ValueError(
                f"bandwidth/outage windows overlap: "
                f"{clash[0].describe()} vs {clash[1].describe()}"
            )
        clash = _overlapping([(w.t0, w.t1, w) for w in self.latency])
        if clash is not None:
            raise ValueError(
                f"latency windows overlap: "
                f"{clash[0].describe()} vs {clash[1].describe()}"
            )
        seen: set[int] = set()
        for s in self.stragglers:
            if s.rank in seen:
                raise ValueError(f"duplicate straggler for rank {s.rank}")
            seen.add(s.rank)

    # -- canonical forms ---------------------------------------------------- #
    def normalized(self) -> "PerturbationSchedule":
        """Copy with every zero-magnitude ingredient dropped.

        A factor-1.0 bandwidth window, a 0-extra latency window, a
        0-amplitude noise entry, and a factor-1.0 straggler all change
        nothing; dropping them makes "no-op schedule" and "no schedule"
        the same platform — and therefore the same cache key and the
        same bitwise replay.  Windows are kept sorted by start time.
        """
        return replace(
            self,
            bandwidth=tuple(sorted(
                (w for w in self.bandwidth if w.factor != 1.0),
                key=lambda w: (w.t0, w.t1),
            )),
            latency=tuple(sorted(
                (w for w in self.latency if w.extra > 0.0),
                key=lambda w: (w.t0, w.t1),
            )),
            outages=tuple(sorted(self.outages, key=lambda w: (w.t0, w.t1))),
            cpu_noise=tuple(c for c in self.cpu_noise if c.amplitude > 0.0),
            stragglers=tuple(sorted(
                (s for s in self.stragglers if s.factor != 1.0),
                key=lambda s: s.rank,
            )),
        )

    def is_noop(self) -> bool:
        """True when this schedule perturbs nothing."""
        return not (self.bandwidth or self.latency or self.outages
                    or self.cpu_noise or self.stragglers)

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (drives :meth:`digest`)."""
        return {
            "seed": self.seed,
            "bandwidth": [
                {"t0": w.t0, "t1": w.t1, "factor": w.factor}
                for w in self.bandwidth
            ],
            "latency": [
                {"t0": w.t0, "t1": w.t1, "extra": w.extra}
                for w in self.latency
            ],
            "outages": [
                {"t0": w.t0, "t1": w.t1, "semantics": w.semantics}
                for w in self.outages
            ],
            "cpu_noise": [
                {"amplitude": c.amplitude,
                 "ranks": None if c.ranks is None else list(c.ranks)}
                for c in self.cpu_noise
            ],
            "stragglers": [
                {"rank": s.rank, "factor": s.factor} for s in self.stragglers
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PerturbationSchedule":
        return cls(
            seed=int(doc.get("seed", 0)),
            bandwidth=tuple(
                BandwidthWindow(w["t0"], w["t1"], w["factor"])
                for w in doc.get("bandwidth", ())
            ),
            latency=tuple(
                LatencyWindow(w["t0"], w["t1"], w["extra"])
                for w in doc.get("latency", ())
            ),
            outages=tuple(
                OutageWindow(w["t0"], w["t1"], w.get("semantics", "stall"))
                for w in doc.get("outages", ())
            ),
            cpu_noise=tuple(
                CpuNoise(c["amplitude"],
                         None if c.get("ranks") is None else tuple(c["ranks"]))
                for c in doc.get("cpu_noise", ())
            ),
            stragglers=tuple(
                Straggler(s["rank"], s["factor"])
                for s in doc.get("stragglers", ())
            ),
        )

    def digest(self) -> str:
        """Content hash of the normalized schedule (cache identity)."""
        body = json.dumps(self.normalized().to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(body.encode()).hexdigest()[:24]

    def describe(self) -> str:
        """One-line human summary."""
        parts = [w.describe() for w in self.outages]
        parts += [w.describe() for w in self.bandwidth]
        parts += [w.describe() for w in self.latency]
        parts += [c.describe() for c in self.cpu_noise]
        parts += [s.describe() for s in self.stragglers]
        if not parts:
            return f"no-op perturbation (seed={self.seed})"
        return f"seed={self.seed}: " + "; ".join(parts)

    # -- replay-facing helpers ---------------------------------------------- #
    def cpu_factor(self, rank: int) -> float:
        """Persistent compute slowdown of ``rank`` (straggler skew)."""
        factor = 1.0
        for s in self.stragglers:
            if s.rank == rank:
                factor *= s.factor
        return factor

    def scale_cpu_durations(self, rank, ops, durs, cpu_op) -> list | None:
        """Noise-stretched copy of ``durs``, or None when no noise
        entry touches ``rank``.

        Entry ``ei`` stretches compute burst ``i`` by
        ``1 + amplitude * unit_hash(seed, "cpu", ei, rank, i)`` — a
        pure function of the schedule and coordinates, so every worker
        process computes the same replay.  Non-compute records are
        untouched; the input list is never mutated.
        """
        entries = [
            (ei, cn) for ei, cn in enumerate(self.cpu_noise)
            if cn.ranks is None or rank in cn.ranks
        ]
        if not entries:
            return None
        seed = self.seed
        out = list(durs)
        for i, op in enumerate(ops):
            if op != cpu_op:
                continue
            mult = 1.0
            for ei, cn in entries:
                mult *= 1.0 + cn.amplitude * unit_hash(seed, "cpu", ei, rank, i)
            out[i] = durs[i] * mult
        return out

    def blocking_window(self, t: float) -> str | None:
        """Description of the window active at (or next after) ``t``.

        Used by the watchdog post-mortem: when a perturbed replay blows
        its simulated-time budget, the report names the perturbation
        window the simulation was stuck in (or heading into) instead of
        shrugging.  Outages take precedence, then bandwidth, then
        latency windows; None when the schedule has no windows at all.
        """
        for group in (self.outages, self.bandwidth, self.latency):
            for w in group:
                if w.t0 <= t < w.t1:
                    return w.describe()
        upcoming = [
            w for group in (self.outages, self.bandwidth, self.latency)
            for w in group if w.t0 >= t
        ]
        if upcoming:
            return min(upcoming, key=lambda w: w.t0).describe()
        past = [
            w for group in (self.outages, self.bandwidth, self.latency)
            for w in group
        ]
        if past:
            return max(past, key=lambda w: w.t1).describe()
        return None
