"""Discrete-event core of the replay simulator.

A minimal, deterministic event loop: events are ``(time, seq, fn,
arg)`` tuples on a binary heap, and running one calls ``fn(arg)``; ties
in time break by insertion order, so replays are bit-reproducible.  The
argument rides in the event so the scheduler never needs a closure: the
replay schedules bound methods and plain functions with the object or
time they act on.  The loop is deliberately dumb — all simulation
semantics live in :mod:`repro.dimemas.replay` and
:mod:`repro.dimemas.network`.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

__all__ = ["EventLoop", "WatchdogExpired"]


class WatchdogExpired(RuntimeError):
    """:meth:`EventLoop.run` hit its event or simulated-time budget.

    The loop state (``now``, ``executed``, pending events) is left
    intact, so callers can build a post-mortem of the in-flight
    simulation before surfacing the failure.
    """

    def __init__(self, reason: str, now: float, executed: int):
        self.reason = reason
        self.now = now
        self.executed = executed
        super().__init__(
            f"event-loop watchdog expired ({reason}) at t={now:.9g}s "
            f"after {executed} event(s)"
        )


class EventLoop:
    """Deterministic discrete-event loop."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        #: Current simulation time (seconds).
        self.now = 0.0
        #: Number of events executed so far.
        self.executed = 0

    def at(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` at absolute ``time`` (>= now)."""
        now = self.now
        # Single guard for the common case: a NaN time fails this
        # comparison too, so the fast path costs one branch.
        if not time >= now:
            if math.isnan(time):
                raise ValueError("cannot schedule an event at NaN time")
            if time < now - 1e-12:
                raise ValueError(
                    f"cannot schedule into the past: t={time} < now={now}"
                )
            time = now
        heapq.heappush(self._heap, (time, self._seq, fn, arg))
        self._seq += 1

    def after(self, delay: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self.at(self.now + delay, fn, arg)

    def run(
        self,
        max_events: int | None = None,
        max_time: float | None = None,
    ) -> float:
        """Execute events until the queue drains; returns the final time.

        ``max_events`` / ``max_time`` are watchdog budgets: exceeding
        either raises :class:`WatchdogExpired` instead of looping
        forever, converting a runaway simulation (livelock, pathological
        platform, malformed trace) into a diagnosable failure.  The
        budget is checked *before* executing each event, so the loop
        never runs an event past the limit.
        """
        budget = math.inf if max_events is None else self.executed + max_events
        time_limit = math.inf if max_time is None else max_time
        heap = self._heap
        pop = heapq.heappop
        executed = self.executed
        # ``executed`` stays in a local inside the loop (one store per
        # event saved); the finally clause keeps the attribute exact on
        # every exit — normal drain, watchdog raise, or a callback
        # raising through us.
        try:
            while heap:
                if executed >= budget:
                    raise WatchdogExpired("max_events", self.now, executed)
                time, _, fn, arg = heap[0]
                if time > time_limit:
                    raise WatchdogExpired("max_sim_time", self.now, executed)
                pop(heap)
                self.now = time
                executed += 1
                fn(arg)
        finally:
            self.executed = executed
        return self.now

    @property
    def pending(self) -> int:
        """Number of scheduled, not-yet-executed events."""
        return len(self._heap)
