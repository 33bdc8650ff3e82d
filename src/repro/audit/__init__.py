"""Simulation integrity: invariant auditing and determinism certification.

The paper's numbers are only as good as the replay engine behind them —
a silent simulator bug (a dropped flight, a port over-subscription, a
nondeterministic worker result) corrupts every overlap figure
downstream.  This package is the correctness backbone that checks the
engine's *output* rather than trusting it:

* :class:`InvariantAuditor` — post-hoc invariant checks over a
  drained replay (:mod:`repro.dimemas.replay`) and its replay log:
  clock monotonicity, non-negative durations, bus/port occupancy
  within :class:`MachineConfig` capacity, request lifecycle, byte
  conservation, end-of-run quiescence.
  Levels ``off``/``basic``/``full`` (``--audit`` / ``$REPRO_AUDIT``);
  violations aggregate into an :class:`IntegrityReport` and, with
  ``strict=True``, raise :class:`IntegrityError`.
* :func:`result_digest` / :func:`certify_trace` / :func:`divergence` —
  determinism certification: content digests over
  :class:`~repro.dimemas.results.SimResult`, double-replay comparison,
  and per-rank attribution of timeline divergence (how
  ``repro-verify`` decides that a trace replays to one result).
* :class:`IngestLimits` — resource caps for the trace parsers
  (``$REPRO_MAX_TRACE_MB`` and friends), so a hostile or corrupt input
  is a typed parse error, never an allocation bomb.
"""

# Submodules resolve lazily (PEP 562): the trace codecs import
# ``repro.audit.limits`` and the replay engine imports
# ``repro.audit.auditor``, while the auditor itself builds on the
# replay's error taxonomy — eager imports here would close that loop.
_EXPORTS = {
    "AUDIT_LEVELS": "auditor",
    "AuditConfig": "auditor",
    "IntegrityError": "auditor",
    "IntegrityReport": "auditor",
    "InvariantAuditor": "auditor",
    "Violation": "auditor",
    "resolve_level": "auditor",
    "certify_trace": "certify",
    "divergence": "certify",
    "result_digest": "certify",
    "IngestLimits": "limits",
    "ingest_limits": "limits",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "AUDIT_LEVELS",
    "AuditConfig",
    "IngestLimits",
    "IntegrityError",
    "IntegrityReport",
    "InvariantAuditor",
    "Violation",
    "certify_trace",
    "divergence",
    "ingest_limits",
    "resolve_level",
    "result_digest",
]
