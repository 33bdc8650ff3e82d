"""Hierarchical span tracer: who spent the wall-clock, and inside what.

The pipeline's cost structure is a tree — a ``repro-report`` run
contains grid executions, which contain grid points, which contain
trace builds, transforms, and replays, which contain matching and the
event-queue drain.  A *span* marks one node of that tree::

    with span("replay.simulate", nranks=64) as sp:
        ...
        sp.annotate(events=loop.executed)

Cost model
----------

Collection is **off by default** and the disabled path is a single
module-global check returning a shared no-op context manager — no
allocation, no clock read, no stack maintenance.  Instrumentation is
deliberately *coarse* (stage granularity, never per simulated event),
so even the enabled path costs microseconds per span against
milliseconds of replaying.  The inner replay loop is observed through
sampled gauges (:mod:`repro.dimemas.engine`'s depth sampler) rather
than spans, following the Caliper always-on-annotation idea: cheap
collection in the hot path, aggregation and export decoupled from it.

Timestamps are ``time.perf_counter()`` values plus a per-process epoch
offset, so spans recorded in different worker processes land on one
comparable wall-clock axis when merged by the run manifest.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable

__all__ = [
    "SpanRecord", "disable", "enable", "flush", "is_enabled", "span",
    "traced",
]

#: Offset turning ``perf_counter`` readings into absolute wall-clock
#: seconds (comparable across processes on one host).
_EPOCH = time.time() - time.perf_counter()


class SpanRecord:
    """One finished span (plain data, cheap to pickle as a dict)."""

    __slots__ = ("name", "t0", "t1", "parent", "sid", "tid", "attrs")

    def __init__(self, name: str, t0: float, t1: float, parent: int | None,
                 sid: int, tid: int, attrs: dict):
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.parent = parent
        self.sid = sid
        self.tid = tid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        """Picklable/JSON form (timestamps shifted to wall-clock)."""
        return {
            "name": self.name,
            "t0": self.t0 + _EPOCH,
            "t1": self.t1 + _EPOCH,
            "parent": self.parent,
            "sid": self.sid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SpanRecord({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"sid={self.sid}, parent={self.parent})")


class _NullSpan:
    """Shared do-nothing span: the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


#: The singleton every disabled ``span()`` call returns.
NULL_SPAN = _NullSpan()


class _Tracer:
    """Per-process span collector (one global instance)."""

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st


_TRACER = _Tracer()


class _Span:
    """Live span context manager (enabled path)."""

    __slots__ = ("name", "attrs", "sid", "_parent", "_t0")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.sid = next(_TRACER._ids)
        self._parent: int | None = None
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        stack = _TRACER.stack()
        self._parent = stack[-1] if stack else None
        stack.append(self.sid)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.perf_counter()
        stack = _TRACER.stack()
        if stack and stack[-1] == self.sid:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        rec = SpanRecord(
            self.name, self._t0, t1, self._parent, self.sid,
            threading.get_ident(), self.attrs,
        )
        with _TRACER._lock:
            _TRACER.records.append(rec)
        return False

    def annotate(self, **attrs) -> None:
        """Attach result attributes (events replayed, cache outcome, ...)."""
        self.attrs.update(attrs)


def span(name: str, **attrs: Any):
    """Open a span named ``name`` (context manager).

    With collection disabled (the default) this returns a shared no-op
    object; with it enabled, a :class:`_Span` that records its wall
    interval, nesting parent, and attributes on exit.
    """
    if not _TRACER.enabled:
        return NULL_SPAN
    return _Span(name, attrs)


def traced(name: str | None = None) -> Callable:
    """Decorator form: trace every call of the wrapped function."""

    def decorate(fn: Callable) -> Callable:
        label = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _TRACER.enabled:
                return fn(*args, **kwargs)
            with span(label):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def enable() -> None:
    """Turn span collection on (idempotent)."""
    _TRACER.enabled = True


def disable() -> None:
    """Turn span collection off and drop any active nesting state."""
    _TRACER.enabled = False
    _TRACER._local = threading.local()


def is_enabled() -> bool:
    return _TRACER.enabled


def flush() -> list[SpanRecord]:
    """Drain and return the finished spans collected so far."""
    with _TRACER._lock:
        out, _TRACER.records = _TRACER.records, []
    return out
