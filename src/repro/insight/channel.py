"""The analysis-event channel: raw material of wait-state attribution.

One :class:`InsightCollector` rides along one :func:`simulate` call.
Once the event loop drains, one fold over the replay log (see
:mod:`repro.dimemas.replay`) fills it with every *wait interval* — the
span between a rank blocking on a communication record and the
completion that released it, together with the transfers it was
blocked on — and with the network's *resource transitions*: why a
transfer queued and how bus occupancy evolved over simulated time.

Cost model (the ``repro.obs.spans`` contract, enforced by
``tests/test_insight.py``): collection is off by default, and with
neither ``insight`` nor ``audit`` the replay keeps no log; an
attributed replay produces bitwise-identical results, because the log
only observes; it never schedules.

Classification of the raw intervals into root causes happens post-hoc
in :mod:`repro.insight.attribution`, once every transfer's timing
fields are final.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dimemas.machine import MachineConfig
    from ..dimemas.results import SimResult

__all__ = ["InsightCollector", "collect"]

#: Epsilon mirroring ``repro.dimemas.replay._EPS``: wait intervals the
#: replay drops from the state timeline are not recorded either, so
#: attributed wait time sums to exactly the recorded blocked time.
_EPS = 1e-15


class InsightCollector:
    """The analysis events of one replay, read from its replay log.

    Attributes are plain lists/dicts; nothing here reads the clock or
    touches the event loop.
    """

    __slots__ = ("waits", "queue_cause", "occupancy", "queued_peak",
                 "queued_total", "perturb_excess")

    def __init__(self) -> None:
        #: Raw wait intervals ``(rank, state_label, t0, t1, transfers)``
        #: where ``transfers`` is a tuple of the
        #: :class:`~repro.dimemas.network.Transfer` objects the rank was
        #: blocked on (empty for collectives / unmatched records).
        self.waits: list[tuple[int, str, float, float, tuple]] = []
        #: ``id(transfer) -> cause`` recorded when the network queued a
        #: transfer instead of starting it: ``"bus_contention"``,
        #: ``"injection_port"``, ``"endpoint_port"``, or
        #: ``"perturbation"`` (an outage forbade starts).
        self.queue_cause: dict[int, str] = {}
        #: Bus-occupancy timeline: ``(t, active_transfers, queued)``
        #: transitions appended at every transfer start and release.
        self.occupancy: list[tuple[float, int, int]] = []
        #: Peak network queue depth observed (diagnostics).
        self.queued_peak = 0
        #: Total number of transfers that had to queue.
        self.queued_total = 0
        #: ``id(transfer) -> seconds`` a platform perturbation added to
        #: that transfer beyond its pristine wire time (degraded
        #: bandwidth, stalled/restarted outages, latency spikes), summed
        #: over the transfer's ``excess`` log entries (wire excess at
        #: start, latency excess at delivery).  Empty on an unperturbed
        #: replay.
        self.perturb_excess: dict[int, float] = {}

    def read_log(self, sim) -> None:
        """Fill the fields from ``sim``'s drained replay log.

        Waits are kept in resume order (attribution sums floats in this
        order).  A wait interval runs from the block to the resume,
        clamped the way the replay clamps its state timeline.
        """
        from ..dimemas.replay import log_entries

        blocked_at: dict[int, float] = {}
        for kind, t, a, b, c in log_entries(sim.log):
            if kind == "start" or kind == "release":
                self.occupancy.append((t, b, c))  # active, queued
            elif kind == "block":
                blocked_at[a] = t
            elif kind == "resume":
                rank, idx, label = a, b, c
                t0 = blocked_at[rank]
                if t > t0 + _EPS:
                    self.waits.append(
                        (rank, label, t0, t, sim.blocked_on(rank, idx))
                    )
            elif kind == "queued":
                self.queue_cause[id(a)] = b
                self.queued_total += 1
                self.queued_peak = max(self.queued_peak, c)
            else:  # "excess"
                self.perturb_excess[id(a)] = (
                    self.perturb_excess.get(id(a), 0.0) + b
                )

    # -- summaries --------------------------------------------------------- #
    def occupancy_profile(self, bins: int = 64,
                          duration: float | None = None) -> list[float]:
        """Mean active-transfer count per time bin (for overlays).

        Integrates the step function described by :attr:`occupancy`
        over ``bins`` equal windows of ``[0, duration]``.
        """
        if not self.occupancy or bins < 1:
            return [0.0] * max(bins, 0)
        end = duration if duration is not None else self.occupancy[-1][0]
        if end <= 0:
            return [0.0] * bins
        width = end / bins
        out = [0.0] * bins
        prev_t, prev_active = 0.0, 0
        points = list(self.occupancy) + [(end, 0, 0)]
        for t, active, _q in points:
            t = min(t, end)
            a, b = prev_t, t
            if b > a and prev_active > 0:
                first = min(int(a / width), bins - 1)
                last = min(int(b / width), bins - 1)
                for k in range(first, last + 1):
                    ka, kb = k * width, (k + 1) * width
                    out[k] += prev_active * max(0.0, min(b, kb) - max(a, ka))
            prev_t, prev_active = t, active
        return [v / width for v in out]


def collect(
    trace,
    machine: "MachineConfig | None" = None,
    **simulate_kwargs,
) -> "tuple[SimResult, InsightCollector]":
    """Replay ``trace`` with the analysis channel attached.

    Returns ``(result, collector)``; the result is bitwise-identical
    to an unattributed :func:`~repro.dimemas.replay.simulate` of the
    same trace/platform.  Feed the pair to
    :func:`repro.insight.attribution.attribute`.
    """
    from ..dimemas.replay import simulate

    collector = InsightCollector()
    result = simulate(trace, machine, insight=collector, **simulate_kwargs)
    return result, collector
