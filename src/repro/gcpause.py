"""Keeping CPython's cyclic garbage collector out of bulk builds.

The replay (:func:`repro.dimemas.replay.simulate`) and the overlap
transformation (:func:`repro.core.transform.overlap_transform`) each
allocate tens of thousands of container objects per call, enough to
set off repeated collections that walk every object the process holds.
Neither leaves a reference cycle behind (``tests/test_replay_gc.py``,
``tests/test_transform_gc.py``), so reference counting frees what they
drop, and both run with the collector paused.
"""

from __future__ import annotations

import functools
import gc

__all__ = ["pause_collector"]


def pause_collector(fn):
    """Run ``fn`` with the cyclic collector paused, and leave it as the
    caller had it, on or off, whether ``fn`` returns or raises.  A call
    that raises may leave cycles, which the collector reclaims later."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused
