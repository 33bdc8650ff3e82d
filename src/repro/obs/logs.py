"""Structured logging for the framework's own diagnostics.

The framework logs through the stdlib under the ``repro.`` namespace
(caches, engine, and observability already do).  This module owns the
one place that attaches a handler: :func:`configure` maps the CLI's
``-v`` / ``--quiet`` to levels and installs a single stderr handler
with a structured ``time level logger: message`` format, tagged with
the active run ID when a manifest is open.

Library code must *log*, never ``print()`` — stdout belongs to the
commands' actual output (tables, reports), which is what the
``tools/check_print.py`` lint enforces.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["configure", "get_logger"]

_HANDLER: logging.Handler | None = None


class _RunIdFormatter(logging.Formatter):
    """Stamps each record with the active run ID (when one is open)."""

    def format(self, record: logging.LogRecord) -> str:
        from .manifest import current_run
        run = current_run()
        record.run = f" [{run.run_id}]" if run is not None else ""
        return super().format(record)


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted
    (as the stdlib's ``logging.lastResort`` does), so a stream swapped
    out and closed since :func:`configure` ran is never written to."""

    def __init__(self) -> None:
        # Not StreamHandler.__init__: it assigns ``stream``, a read-only
        # property here.
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


def configure(verbosity: int = 0, quiet: bool = False) -> logging.Logger:
    """Install (or retune) the framework's stderr log handler.

    ``verbosity`` counts ``-v`` flags: 0 -> WARNING, 1 -> INFO,
    2+ -> DEBUG.  ``quiet`` forces ERROR regardless.  Idempotent: a
    second call adjusts the existing handler instead of stacking one.
    """
    global _HANDLER
    root = logging.getLogger("repro")
    if quiet:
        level = logging.ERROR
    else:
        level = {0: logging.WARNING, 1: logging.INFO}.get(
            verbosity, logging.DEBUG
        )
    if _HANDLER is None:
        _HANDLER = _StderrHandler()
        _HANDLER.setFormatter(_RunIdFormatter(
            "%(asctime)s %(levelname)s%(run)s %(name)s: %(message)s",
            datefmt="%H:%M:%S",
        ))
        root.addHandler(_HANDLER)
    root.setLevel(level)
    root.propagate = False
    return root


def get_logger(name: str) -> logging.Logger:
    """A logger in the framework namespace (``repro.<name>``)."""
    return logging.getLogger(name if name.startswith("repro") else
                             f"repro.{name}")
