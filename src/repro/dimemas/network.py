"""Network resource model: buses, ports, and transfer scheduling.

Implements Dimemas' congestion semantics on top of the linear model:
a message's wire occupancy (``size/bandwidth``) simultaneously holds

* one **global bus** (bounding how many messages travel concurrently
  through the whole interconnect — paper Table I calibrates this),
* one **output port** of the source processor, and
* one **input port** of the destination processor,

while the constant ``latency`` term is pipeline depth, not a resource.
A transfer starts only when all three resources are free; queued
transfers are served FIFO by request time (a later transfer may start
earlier only if it uses entirely different ports while the earlier one
is port-blocked — matching Dimemas' per-resource queues).

Arbitration is per resource.  A submitted transfer starts at once when
its bus and both ports are free and queues otherwise.  A release wakes
only what it could have unblocked:

* if a bus was already free, no queued transfer was waiting for a bus,
  so only the transfers queued on the freed output or input port are
  checked, in FIFO order;
* if the bus pool was empty, one FIFO pass over the whole queue hands
  the freed bus to the first transfer whose ports are free.

This is exact, not an approximation of a full rescan: a start only
takes resources away, so between events no queued transfer is
startable, and a blocked transfer stays blocked until one of its own
resources is released.  A pass therefore never revisits an entry it
has checked, and it stops as soon as the bus pool is empty again.  (The
argument assumes submissions at event boundaries, which is where
:mod:`repro.dimemas.replay` makes them.)

Zero-byte messages (pure synchronization) bypass the network and cost
only latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable

from .engine import EventLoop
from .machine import MachineConfig

__all__ = ["Network", "PerturbedNetwork", "Transfer"]


@dataclass(slots=True)
class Transfer:
    """One point-to-point message moving through the platform.

    Filled in progressively by the replay driver (protocol handshake)
    and the network (timing).  All times are absolute seconds; ``None``
    = not yet known.  ``slots=True``: transfer attributes are read in
    the replay inner loop, and a few thousand instances are built per
    replay.
    """

    src: int
    dst: int
    size: int
    tag: int = 0
    rendezvous: bool = False

    #: When the sender executed its send record.
    send_time: float | None = None
    #: When the receiver posted the matching receive.
    recv_post_time: float | None = None
    #: When the transfer was handed to the network.
    ready_time: float | None = None
    #: When it acquired bus+ports and started occupying the wire.
    start_time: float | None = None
    #: When injection finished (resources released; sender-side done).
    inject_time: float | None = None
    #: When the payload arrived at the destination (receiver-side done).
    arrival_time: float | None = None

    injected: bool = False
    arrived: bool = False
    #: Arrival callbacks, allocated lazily — most transfers complete
    #: with no subscriber, and skipping a list allocation per transfer
    #: is measurable at replay scale.
    _arrival_waiters: list[Callable[[float], None]] | None = None

    # -- completion subscription ------------------------------------------------
    def on_arrived(self, fn: Callable[[float], None]) -> None:
        """Call ``fn(arrival_time)`` once the payload is delivered."""
        if self.arrived:
            fn(self.arrival_time)  # type: ignore[arg-type]
        elif self._arrival_waiters is None:
            self._arrival_waiters = [fn]
        else:
            self._arrival_waiters.append(fn)

    def _fire_injected(self, t: float) -> None:
        self.injected = True
        self.inject_time = t

    def _fire_arrived(self, t: float) -> None:
        self.arrived = True
        self.arrival_time = t
        waiters, self._arrival_waiters = self._arrival_waiters, None
        if waiters:
            for fn in waiters:
                fn(t)


class Network:
    """Resource arbiter for transfers on one :class:`MachineConfig`."""

    def __init__(self, loop: EventLoop, nranks: int, cfg: MachineConfig):
        self.loop = loop
        self.cfg = cfg
        self.nranks = nranks
        self._free_buses = cfg.buses if cfg.buses is not None else float("inf")
        self._free_out = [cfg.output_ports] * nranks
        self._free_in = [cfg.input_ports] * nranks
        #: Transfers waiting for resources, keyed by queue sequence
        #: number: insertion order is FIFO order and a started transfer
        #: leaves in O(1).  Keys, never ``Transfer`` equality, identify
        #: entries — transfers compare by value.
        self._queue: dict[int, Transfer] = {}
        #: The same entries by the output port (source rank) and the
        #: input port (destination rank) they wait for.
        self._out_wait: list[dict[int, Transfer]] = [{} for _ in range(nranks)]
        self._in_wait: list[dict[int, Transfer]] = [{} for _ in range(nranks)]
        self._seqs = count()
        #: Queued transfers whose resources were checked while looking
        #: for one to start (algorithmic cost, rolled up per replay as
        #: the ``replay.queue_scan_steps`` metric).
        self.scan_steps = 0
        #: The replay log (see :mod:`repro.dimemas.replay`), or None;
        #: the zero-byte/SMP bypass paths append nothing.
        self.log: list | None = None
        #: Hoisted platform constants — read once per transfer in the
        #: replay inner loop instead of walking ``cfg`` attributes.
        self._latency = cfg.latency
        self._bandwidth = cfg.bandwidth
        #: With one core per node no pair of distinct ranks shares a
        #: node, so the SMP branch can be skipped wholesale.
        self._smp_possible = (cfg.cores_per_node or 1) > 1
        #: Peak number of simultaneously active transfers (diagnostics).
        self.peak_active = 0
        self._active = 0
        #: Total wire-occupancy seconds consumed (diagnostics).
        self.busy_seconds = 0.0

    # ------------------------------------------------------------------ #
    def submit(self, transfer: Transfer) -> None:
        """Hand a transfer to the network at the current loop time.

        Must be called at ``loop.now == transfer.ready_time`` (the
        replay driver schedules the call accordingly).
        """
        loop = self.loop
        now = loop.now
        transfer.ready_time = now
        if transfer.size == 0 or transfer.src == transfer.dst:
            # Pure sync or self-message: latency only, no resources.
            transfer.start_time = now
            loop.at(now, transfer._fire_injected, now)
            lat = 0.0 if transfer.src == transfer.dst else self._latency
            loop.at(now + lat, transfer._fire_arrived, now + lat)
            return
        if self._smp_possible and self.cfg.same_node(transfer.src, transfer.dst):
            # Shared-memory path: no buses, no ports (Dimemas' SMP node
            # model) — a plain copy at intra-node latency/bandwidth.
            # Each event gets the time it fires at, as ``after`` sums it.
            transfer.start_time = now
            copy = self.cfg.intra_transfer_seconds(transfer.size)
            loop.after(copy, transfer._fire_injected, now + copy)
            lat = copy + self.cfg.intra_latency
            loop.after(lat, transfer._fire_arrived, now + lat)
            return
        self._admit(transfer)

    def _admit(self, transfer: Transfer) -> None:
        """Start ``transfer`` now if its resources are free, else queue it.

        Nothing queued is startable between events, so the newcomer
        cannot overtake an earlier transfer by starting.
        """
        if self._resources_free(transfer):
            self._start(transfer)
            return
        seq = next(self._seqs)
        self._queue[seq] = transfer
        self._out_wait[transfer.src][seq] = transfer
        self._in_wait[transfer.dst][seq] = transfer
        if self.log is not None:
            self.log.extend(("queued", self.loop.now, transfer,
                             self._queue_cause(transfer), len(self._queue)))

    # ------------------------------------------------------------------ #
    def _queue_cause(self, t: Transfer) -> str:
        """Which resource class is blocking ``t`` right now.

        Checked in bus → output-port → input-port order, mirroring
        :meth:`_resources_free`; the shared bus pool blocking everyone
        is also the fallback.
        """
        if self._free_buses < 1:
            return "bus_contention"
        if self._free_out[t.src] < 1:
            return "injection_port"
        if self._free_in[t.dst] < 1:
            return "endpoint_port"
        return "bus_contention"

    def _resources_free(self, t: Transfer) -> bool:
        return (
            self._free_buses >= 1
            and self._free_out[t.src] >= 1
            and self._free_in[t.dst] >= 1
        )

    def _pass(self, entries) -> None:
        """Start, in FIFO order, each queued ``(seq, transfer)`` entry
        whose resources are free, until the bus pool is empty.

        ``entries`` must be a snapshot unless at most one start can
        happen: the pass stops right after the start that empties the
        pool, before the live queue could notice its change.
        """
        if self._free_buses < 1:
            return
        steps = 0
        for seq, t in entries:
            steps += 1
            if self._resources_free(t):
                del self._queue[seq]
                del self._out_wait[t.src][seq]
                del self._in_wait[t.dst][seq]
                self._start(t)
                if self._free_buses < 1:
                    break
        self.scan_steps += steps

    def _wake(self, released: Transfer) -> None:
        """Start what the release of ``released``'s bus and ports
        unblocked (called with a non-empty queue)."""
        if self._free_buses == 1:
            # The pool was empty: any queued transfer may have waited
            # for this bus alone.  One bus admits one start, so the
            # pass may walk the live queue.
            self._pass(self._queue.items())
            return
        # A bus was free already, so only port-blocked transfers wait,
        # and only those on the two freed ports can start now.
        outs = self._out_wait[released.src]
        ins = self._in_wait[released.dst]
        if outs or ins:
            # Merged by sequence number; an entry on both ports once.
            self._pass(sorted({**outs, **ins}.items()))

    def _start(self, t: Transfer) -> None:
        self._free_buses -= 1
        self._free_out[t.src] -= 1
        self._free_in[t.dst] -= 1
        active = self._active + 1
        self._active = active
        if active > self.peak_active:
            self.peak_active = active
        loop = self.loop
        now = loop.now
        t.start_time = now
        if self.log is not None:
            self.log.extend(("start", now, t, active, len(self._queue)))
        finish, held = self._injection_end(t, now)
        self.busy_seconds += held
        loop.at(finish, self._finish_injection, t)

    def _injection_end(self, t: Transfer, now: float) -> tuple[float, float]:
        """When injecting ``t`` from ``now`` ends, and the wire seconds
        its bus and ports are held."""
        # Same arithmetic as cfg.transfer_seconds, minus the property
        # chase — this runs once per started transfer.
        occupancy = t.size / self._bandwidth
        return now + occupancy, occupancy

    def _arrival(self, t: Transfer, now: float) -> float:
        """When ``t``, injected at ``now``, reaches its destination."""
        return now + self._latency

    def _finish_injection(self, t: Transfer) -> None:
        self._free_buses += 1
        self._free_out[t.src] += 1
        self._free_in[t.dst] += 1
        self._active -= 1
        loop = self.loop
        now = loop.now
        if self.log is not None:
            self.log.extend(("release", now, t, self._active,
                             len(self._queue)))
        t._fire_injected(now)
        arrival = self._arrival(t, now)
        loop.at(arrival, t._fire_arrived, arrival)
        if self._queue:
            self._wake(t)


class PerturbedNetwork(Network):
    """A :class:`Network` degraded by a perturbation schedule.

    Subclassing keeps the fast path provably untouched: ``simulate``
    builds a plain :class:`Network` whenever no schedule is active, so
    the unperturbed hot loop contains not a single perturbation branch.
    Here, wire time is the integral of a piecewise-constant effective
    bandwidth (degradation windows scale it, stall outages zero it),
    restart outages abort and re-inject in-flight transfers, no
    transfer may *start* during any outage, and latency windows add to
    the pipeline constant at delivery time.

    An outage frees the link at its end without a release, which the
    per-port wake of :class:`Network` cannot see.  So a schedule with
    outages serves the whole queue in FIFO order on every submit and
    release; one without keeps the plain per-port arbitration, which
    is exact there because its resources are the plain network's.

    Everything is a pure function of ``loop.now`` and the schedule —
    no RNG, no wall clock — so perturbed replays stay bitwise
    deterministic.  Whenever a transfer takes longer than it would
    have on the pristine platform, the excess seconds go to the replay
    log as an ``excess`` entry, so wait-cause attribution can carve out
    exactly the slice of blocked time the fault caused.
    """

    def __init__(self, loop: EventLoop, nranks: int, cfg: MachineConfig,
                 schedule) -> None:
        super().__init__(loop, nranks, cfg)
        self.schedule = schedule
        #: Piecewise wire profile: (t0, t1, factor) with stall outages
        #: as factor 0.0.  Restart outages are kept apart — they do not
        #: slow the integral, they void the whole attempt.
        profile = [(w.t0, w.t1, w.factor) for w in schedule.bandwidth]
        profile += [
            (w.t0, w.t1, 0.0)
            for w in schedule.outages if w.semantics == "stall"
        ]
        self._profile = sorted(profile)
        self._restarts = sorted(
            (w.t0, w.t1)
            for w in schedule.outages if w.semantics == "restart"
        )
        self._outage_spans = sorted((w.t0, w.t1) for w in schedule.outages)
        self._latency_windows = sorted(
            (w.t0, w.t1, w.extra) for w in schedule.latency
        )
        #: Outage ends with a pending wake-up already scheduled.
        self._woken: set[float] = set()

    # -- schedule lookups ---------------------------------------------- #
    def _extra_latency(self, t: float) -> float:
        for w0, w1, extra in self._latency_windows:
            if w0 <= t < w1:
                return extra
        return 0.0

    def _outage_until(self, t: float) -> float | None:
        """End of the outage covering ``t`` (any semantics), or None."""
        for w0, w1 in self._outage_spans:
            if w0 <= t < w1:
                return w1
        return None

    def _note_excess(self, t: Transfer, seconds: float) -> None:
        if self.log is not None:
            self.log.extend(("excess", self.loop.now, t, seconds, None))

    # -- wire-time integration ----------------------------------------- #
    def _integrate(self, start: float, occupancy: float) -> float:
        """Finish time of ``occupancy`` effective wire-seconds starting
        at ``start`` under degradation and stall windows."""
        t = start
        remaining = occupancy
        for w0, w1, factor in self._profile:
            if w1 <= t:
                continue
            if w0 > t:
                gap = w0 - t
                if remaining <= gap:
                    return t + remaining
                remaining -= gap
                t = w0
            if factor <= 0.0:
                # Stalled: the clock runs, the payload does not.
                t = w1
            else:
                cap = (w1 - t) * factor
                if remaining <= cap:
                    return t + remaining / factor
                remaining -= cap
                t = w1
        return t + remaining

    def _wire_finish(self, start: float, occupancy: float) -> float:
        """Injection-complete time including restart-outage retries."""
        t = start
        while True:
            nxt = None
            for o0, o1 in self._restarts:
                if o1 > t:
                    nxt = (o0, o1)
                    break
            if nxt is not None and nxt[0] <= t:
                # Retry landed inside a reset window (fresh starts are
                # blocked by _resources_free, so only retries get here).
                t = nxt[1]
                continue
            finish = self._integrate(t, occupancy)
            if nxt is None or finish <= nxt[0]:
                return finish
            # In flight when the link reset: abort, re-inject after.
            t = nxt[1]

    # -- Network overrides --------------------------------------------- #
    def submit(self, transfer: Transfer) -> None:
        if transfer.size == 0 or transfer.src == transfer.dst:
            # Pure sync / self-message bypasses buses and ports but not
            # the wire pipeline, so latency spikes still apply.
            loop = self.loop
            now = loop.now
            transfer.ready_time = now
            transfer.start_time = now
            loop.at(now, transfer._fire_injected, now)
            if transfer.src == transfer.dst:
                lat = 0.0
            else:
                extra = self._extra_latency(now)
                lat = self._latency + extra
                if extra > 0.0:
                    self._note_excess(transfer, extra)
            loop.at(now + lat, transfer._fire_arrived, now + lat)
            return
        super().submit(transfer)

    def _resources_free(self, t: Transfer) -> bool:
        if self._outage_spans and self._outage_until(self.loop.now) is not None:
            return False
        return super()._resources_free(t)

    def _queue_cause(self, t: Transfer) -> str:
        if self._outage_spans and self._outage_until(self.loop.now) is not None:
            return "perturbation"
        return super()._queue_cause(t)

    def _admit(self, transfer: Transfer) -> None:
        if not self._outage_spans:
            # No outage: only a release frees a resource, so the plain
            # per-port arbitration is exact (module docstring).
            super()._admit(transfer)
            return
        # An outage ends without a release, and other events at that
        # instant may run before its wake-up: serve the queue first.
        self._pass(list(self._queue.items()))
        super()._admit(transfer)
        self._await_outage_end()

    def _wake(self, released: Transfer | None = None) -> None:
        """With outages, one FIFO pass over the whole queue on every
        release (and at the end of an outage, which frees the link with
        no release); without, the plain per-port wake."""
        if not self._outage_spans:
            super()._wake(released)
            return
        self._pass(list(self._queue.items()))
        self._await_outage_end()

    def _await_outage_end(self) -> None:
        if self._queue:
            until = self._outage_until(self.loop.now)
            if until is not None and until not in self._woken:
                # Nothing else is guaranteed to poke the queue while the
                # link is down — wake it the instant the outage lifts.
                self._woken.add(until)
                self.loop.at(until, self._wake, None)

    def _injection_end(self, t: Transfer, now: float) -> tuple[float, float]:
        occupancy = t.size / self._bandwidth
        finish = self._wire_finish(now, occupancy)
        # Wall-on-the-wire, not nominal occupancy: a stalled or slowed
        # transfer holds its bus and ports the whole time.
        elapsed = finish - now
        excess = elapsed - occupancy
        if excess > 0.0:
            self._note_excess(t, excess)
        return finish, elapsed

    def _arrival(self, t: Transfer, now: float) -> float:
        extra = self._extra_latency(now)
        if extra > 0.0:
            self._note_excess(t, extra)
        return now + self._latency + extra
