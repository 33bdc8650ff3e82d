"""Common machinery of the application pool.

Every skeleton is a callable object: ``app(comm)`` runs one rank, so an
application instance can be handed directly to the runtime or the
tracer.  :meth:`Application.trace` is the one-stop entry the
experiment harness uses.

The skeletons model the *paper's* application pool (§IV): Sweep3D,
POP, Alya, SPECFEM3D, NAS BT and NAS CG on up to 64 processors of the
MareNostrum test bed.  See DESIGN.md §2 for the substitution argument:
communication structure and message geometry are modelled from the
real codes; access placement inside compute intervals is calibrated to
the paper's Table II measurements via :mod:`repro.apps.patterns`.
"""

from __future__ import annotations

import math
from typing import Any

from ..tracer.tracefile import TraceRun, run_traced
from ..tracer.timestamps import DEFAULT_MIPS

__all__ = ["Application", "grid_2d"]


def grid_2d(nranks: int) -> tuple[int, int]:
    """Near-square 2-D process grid ``(px, py)`` with ``px * py == nranks``."""
    px = int(math.isqrt(nranks))
    while nranks % px:
        px -= 1
    return px, nranks // px


class Application:
    """Base class of the pool: a named, parameterized rank function."""

    #: Registry key and default scale of the skeleton.
    name: str = "app"
    default_nranks: int = 64

    def __call__(self, comm) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def params(self) -> dict:
        """Public constructor parameters (recorded in trace metadata)."""
        return {
            k: v for k, v in vars(self).items()
            if not k.startswith("_") and isinstance(v, (int, float, str, bool))
        }

    def trace(
        self,
        nranks: int | None = None,
        mips: float = DEFAULT_MIPS,
        record_streams: bool = False,
        **kwargs,
    ) -> TraceRun:
        """Run this application under the tracer (the Valgrind stage)."""
        n = nranks if nranks is not None else self.default_nranks
        return run_traced(
            self, n, mips=mips, record_streams=record_streams,
            meta={"app": self.name, "params": self.params()},
            **kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        args = ", ".join(f"{k}={v!r}" for k, v in self.params().items())
        return f"{type(self).__name__}({args})"
