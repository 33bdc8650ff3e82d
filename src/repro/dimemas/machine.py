"""Platform configuration of the replay simulator.

Mirrors Dimemas' machine model (paper §III-B): *"The communication
model ... consists of a linear model and some nonlinear effects, such
as network congestion.  The interconnect is parametrized by bandwidth,
latency and the number of global buses (denoting how many messages are
allowed to concurrently travel throughout the network).  Also, each
processor is characterized by the number of input/output ports that
determine its injection rate to the network."*

Defaults reproduce the paper's test bed: MareNostrum nodes (PowerPC
970 @ 2.3 GHz) on Myrinet with 250 MB/s unidirectional links; the
per-application bus counts of paper Table I live in
:data:`PAPER_BUSES`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MB", "MachineConfig", "PAPER_BUSES", "PAPER_BANDWIDTH_MBPS"]

#: One megabyte as used in network datasheets (10^6 bytes).
MB = 1e6

#: Paper Table I: number of Dimemas buses calibrated per application.
PAPER_BUSES: dict[str, int] = {
    "sweep3d": 12,
    "pop": 12,
    "alya": 11,
    "specfem3d": 8,
    "bt": 22,
    "cg": 6,
}

#: Paper test bed: Myrinet, 250 MB/s unidirectional bandwidth per link.
PAPER_BANDWIDTH_MBPS = 250.0


@dataclass(frozen=True)
class MachineConfig:
    """A simulated parallel platform.

    Attributes
    ----------
    bandwidth_mbps:
        Link bandwidth in MB/s (paper baseline: 250).
    latency:
        Per-message latency in seconds (not resource-bound — the linear
        model's constant term).  Myrinet-era default: 8 µs.
    buses:
        Number of global buses: the maximum number of messages
        concurrently occupying the network (None = unlimited).  Paper
        Table I calibrates this per application.
    input_ports / output_ports:
        Per-processor concurrent extraction/injection limits (Dimemas
        default: one of each — full-duplex single link per node).
    cpu_ratio:
        Relative CPU time scaling applied to computation bursts
        (1.0 replays bursts at the traced speed; 2.0 = half-speed CPU).
    cores_per_node:
        Processes per SMP node (Dimemas' multi-core machine model).
        Ranks ``k*cores_per_node .. (k+1)*cores_per_node - 1`` share
        node ``k``; messages between them travel through shared memory:
        ``intra_latency + size / intra_bandwidth``, bypassing the
        network's buses and ports.  Default 1 = the paper's setup (one
        process per node).
    intra_latency / intra_bandwidth_mbps:
        Shared-memory transfer parameters (defaults: 1 µs and 4x the
        network bandwidth).
    eager_threshold:
        Messages up to this many bytes use the eager protocol (sender
        completes on injection); larger ones rendezvous with the
        receiver.  Chunked messages carry an explicit per-record
        override set by the overlap transformation.
    collective_model_factor:
        Multiplier of the analytic collective cost model (only used for
        :class:`~repro.trace.records.GlobalOp` records).
    max_events:
        Watchdog: abort the replay with a
        :class:`~repro.dimemas.postmortem.SimulationTimeout` after this
        many executed events (None = unlimited).  A defence against
        runaway simulations on pathological platforms or corrupt
        traces; healthy replays execute a few events per trace record.
    max_sim_time:
        Watchdog: abort once the simulated clock would pass this many
        seconds (None = unlimited).
    perturb:
        Optional :class:`~repro.perturb.PerturbationSchedule` degrading
        the platform over simulated time (bandwidth sag, latency
        spikes, outages, CPU noise, stragglers).  Normalized on
        construction: a schedule that perturbs nothing is stored as
        ``None``, so a no-op schedule *is* the pristine platform —
        same replay, same cache keys.  Because configs flow through
        ``dataclasses.asdict`` into every result-cache key, carrying
        the schedule here keys every cached replay by the perturbation
        automatically.
    """

    bandwidth_mbps: float = PAPER_BANDWIDTH_MBPS
    latency: float = 8e-6
    buses: int | None = None
    input_ports: int = 1
    output_ports: int = 1
    cpu_ratio: float = 1.0
    cores_per_node: int = 1
    intra_latency: float = 1e-6
    intra_bandwidth_mbps: float | None = None
    eager_threshold: int = 65536
    collective_model_factor: float = 1.0
    max_events: int | None = None
    max_sim_time: float | None = None
    # A repro.perturb.PerturbationSchedule; typed loosely (and validated
    # structurally below) because repro.perturb must stay importable
    # without the simulator and vice versa.
    perturb: object | None = None

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_mbps}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")
        if self.buses is not None and self.buses < 1:
            raise ValueError(f"buses must be >= 1 or None, got {self.buses}")
        if self.input_ports < 1 or self.output_ports < 1:
            raise ValueError("port counts must be >= 1")
        if self.cpu_ratio <= 0:
            raise ValueError(f"cpu_ratio must be positive, got {self.cpu_ratio}")
        if self.cores_per_node < 1:
            raise ValueError(f"cores_per_node must be >= 1, got {self.cores_per_node}")
        if self.intra_latency < 0:
            raise ValueError("intra_latency must be >= 0")
        if self.intra_bandwidth_mbps is not None and self.intra_bandwidth_mbps <= 0:
            raise ValueError("intra_bandwidth_mbps must be positive or None")
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be >= 0")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(f"max_events must be >= 1 or None, got {self.max_events}")
        if self.max_sim_time is not None and self.max_sim_time <= 0:
            raise ValueError(
                f"max_sim_time must be positive or None, got {self.max_sim_time}"
            )
        if self.perturb is not None:
            normalized = getattr(self.perturb, "normalized", None)
            is_noop = getattr(self.perturb, "is_noop", None)
            if not (callable(normalized) and callable(is_noop)):
                raise ValueError(
                    "perturb must be a PerturbationSchedule (or None), "
                    f"got {type(self.perturb).__name__}"
                )
            schedule = normalized()
            # Canonical form: zero-magnitude schedules collapse to None
            # so the cache key and the replay are those of the pristine
            # platform.
            object.__setattr__(
                self, "perturb", None if schedule.is_noop() else schedule
            )

    @property
    def bandwidth(self) -> float:
        """Bandwidth in bytes/second."""
        return self.bandwidth_mbps * MB

    def transfer_seconds(self, size: int) -> float:
        """Pure wire occupancy of ``size`` bytes (no latency)."""
        return size / self.bandwidth

    def linear_cost(self, size: int) -> float:
        """The linear model's uncontended message cost: L + S/B."""
        return self.latency + self.transfer_seconds(size)

    @property
    def intra_bandwidth(self) -> float:
        """Shared-memory bandwidth in bytes/second (default 4x network)."""
        mbps = (
            self.intra_bandwidth_mbps
            if self.intra_bandwidth_mbps is not None
            else 4.0 * self.bandwidth_mbps
        )
        return mbps * MB

    def node_of(self, rank: int) -> int:
        """SMP node hosting ``rank``."""
        return rank // self.cores_per_node

    def same_node(self, a: int, b: int) -> bool:
        """True when both ranks share a node (shared-memory path)."""
        return self.node_of(a) == self.node_of(b)

    def intra_transfer_seconds(self, size: int) -> float:
        """Shared-memory copy time of ``size`` bytes (no latency)."""
        return size / self.intra_bandwidth

    def with_bandwidth(self, bandwidth_mbps: float) -> "MachineConfig":
        """Copy of this platform at a different bandwidth (sweeps)."""
        return replace(self, bandwidth_mbps=bandwidth_mbps)

    def with_platform(self, **overrides) -> "MachineConfig":
        """Copy with any subset of platform fields replaced.

        One call covers every experiment-side platform variation
        (bandwidth, buses, latency, ...); validation re-runs on the
        copy.  No overrides returns ``self`` (configs are frozen).
        """
        return replace(self, **overrides) if overrides else self

    @classmethod
    def paper_testbed(cls, app: str | None = None, **overrides) -> "MachineConfig":
        """The MareNostrum/Myrinet configuration of paper §IV.

        ``app`` selects the Table I bus count (case-insensitive);
        omitting it leaves buses unlimited.
        """
        buses = None
        if app is not None:
            key = app.lower()
            if key not in PAPER_BUSES:
                raise KeyError(
                    f"unknown application {app!r}; Table I lists {sorted(PAPER_BUSES)}"
                )
            buses = PAPER_BUSES[key]
        return cls(
            bandwidth_mbps=PAPER_BANDWIDTH_MBPS, buses=buses, **overrides
        )
