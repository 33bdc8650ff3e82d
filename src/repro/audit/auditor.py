"""The invariant auditor: integrity checks over one replay.

Design constraint: :func:`~repro.dimemas.replay.simulate` is the inner
loop of every experiment, so the audit machinery must cost nothing
when off and stay cheap at ``basic``.  Every invariant is therefore
checked *post hoc*, once the event loop drains, on state the replay
materializes anyway (state intervals, transfer slots, the plan's
request-to-pair resolution, the network's resource counters) and on the replay log (see
:mod:`repro.dimemas.replay`), from which bus and port occupancy is
recounted.

At ``full`` level each violation carries the last
:data:`CONTEXT_LINES` log lines of every involved rank before it.
Violations aggregate into an :class:`IntegrityReport` and are emitted
as ``audit.*`` metrics/events through :mod:`repro.obs`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..dimemas.postmortem import ReplayError
from ..dimemas.replay import LOG_FIELDS, log_entries
from ..obs import current_run, get_registry

__all__ = [
    "AUDIT_LEVELS",
    "AuditConfig",
    "IntegrityError",
    "IntegrityReport",
    "InvariantAuditor",
    "Violation",
    "resolve_level",
]

#: Recognized audit levels, in increasing depth.
AUDIT_LEVELS = ("off", "basic", "full")

#: Interval/clock comparisons tolerate accumulated float rounding.
_EPS = 1e-9

#: Log lines of causal context per involved rank (``full`` level).
CONTEXT_LINES = 16


def resolve_level(level: "str | AuditConfig | None" = None) -> str:
    """Normalize an audit level (``None`` -> ``$REPRO_AUDIT`` -> off)."""
    if isinstance(level, AuditConfig):
        return level.level
    if level is None:
        level = os.environ.get("REPRO_AUDIT") or "off"
    level = str(level).strip().lower()
    if level not in AUDIT_LEVELS:
        raise ValueError(
            f"unknown audit level {level!r}; pick from {AUDIT_LEVELS}"
        )
    return level


@dataclass
class AuditConfig:
    """How one :func:`~repro.dimemas.replay.simulate` call is audited.

    ``report`` is filled in by the replay on completion, so callers
    passing a config object get the :class:`IntegrityReport` back even
    when ``strict`` is off and no exception fires.
    """

    level: str = "basic"
    #: Raise :class:`IntegrityError` when any violation is found.
    strict: bool = False
    #: The last replay's report (output parameter).
    report: "IntegrityReport | None" = None

    @classmethod
    def coerce(cls, value: "AuditConfig | str | None") -> "AuditConfig | None":
        """``None``/"off" -> None; a level string -> a fresh config."""
        if value is None:
            return None
        if isinstance(value, cls):
            return None if value.level == "off" else value
        level = resolve_level(value)
        return None if level == "off" else cls(level=level)


@dataclass
class Violation:
    """One broken invariant, attributed to the ranks involved."""

    #: Stable machine-readable identifier, e.g. ``clock.monotonicity``.
    code: str
    message: str
    ranks: tuple[int, ...] = ()
    #: Simulated time the violation refers to (None = whole-run).
    time: float | None = None
    #: The last log lines per involved rank (``full`` level).
    context: dict[int, list[str]] = field(default_factory=dict)

    def render(self) -> str:
        where = ",".join(str(r) for r in self.ranks) or "-"
        at = f" t={self.time:.9g}" if self.time is not None else ""
        lines = [f"[{self.code}] ranks={where}{at}: {self.message}"]
        for rank in sorted(self.context):
            lines.append(f"  rank {rank} last events:")
            lines.extend(f"    {ev}" for ev in self.context[rank])
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "ranks": list(self.ranks),
            "time": self.time,
            "context": {str(r): list(v) for r, v in self.context.items()},
        }


class IntegrityError(ReplayError):
    """A strict audit found violations; ``report`` carries them all."""

    def __init__(self, report: "IntegrityReport"):
        self.report = report
        head = "; ".join(
            f"[{v.code}] {v.message}" for v in report.violations[:3]
        )
        more = len(report.violations) - 3
        super().__init__(
            f"replay integrity audit failed with "
            f"{len(report.violations)} violation(s): {head}"
            + (f"; and {more} more" if more > 0 else "")
        )


@dataclass
class IntegrityReport:
    """Aggregate outcome of one audited replay (or certification)."""

    level: str
    nranks: int = 0
    #: Names of the invariant checks that actually ran.
    checks: tuple[str, ...] = ()
    violations: list[Violation] = field(default_factory=list)
    #: Content digest of the audited trace, when known.
    trace_digest: str | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def for_rank(self, rank: int) -> list[Violation]:
        """Violations attributed to one rank."""
        return [v for v in self.violations if rank in v.ranks]

    def render(self) -> str:
        head = (
            f"integrity audit ({self.level}): "
            f"{len(self.checks)} check(s) on {self.nranks} rank(s)"
        )
        if self.ok:
            return head + " -- clean"
        lines = [head + f" -- {len(self.violations)} violation(s)"]
        lines.extend(v.render() for v in self.violations)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "nranks": self.nranks,
            "checks": list(self.checks),
            "ok": self.ok,
            "trace_digest": self.trace_digest,
            "violations": [v.to_dict() for v in self.violations],
        }


def _capacity(cfg) -> tuple[float, int, int]:
    """A platform's buses, output ports and input ports per rank."""
    buses = float(cfg.buses) if cfg.buses is not None else float("inf")
    return buses, cfg.output_ports, cfg.input_ports


def _context_line(entry, rank: int) -> str | None:
    """The causal-context line a replay-log entry gives ``rank``."""
    kind, t, who = entry[0], entry[1], entry[2]  # who: rank or transfer
    if kind == "block" and who == rank:
        text = f"block ({entry[4]}) at record {entry[3]}"
    elif kind == "resume" and who == rank:
        text = f"resume from {entry[4]} at record {entry[3]}"
    elif kind == "start" and who.src == rank:
        text = f"xfer start -> {who.dst} ({who.size}B)"
    elif kind == "start" and who.dst == rank:
        text = f"xfer start <- {who.src} ({who.size}B)"
    elif kind == "release" and who.dst == rank:
        text = f"xfer injected <- {who.src} ({who.size}B)"
    else:
        return None
    return f"t={t:.9g} {text}"


class InvariantAuditor:
    """Checks the invariants of one finished :class:`_Simulation`.

    :meth:`finish` runs once the event loop drains: it recounts
    occupancy from the replay log, runs the other checks, and builds
    the report.
    """

    def __init__(self, config: AuditConfig):
        self.config = config
        self.level = config.level
        self.full = config.level == "full"
        self.violations: list[Violation] = []
        self._checks: list[str] = []
        self._log: list = []

    def _context(self, ranks: tuple[int, ...],
                 end: int) -> dict[int, list[str]]:
        """The last :data:`CONTEXT_LINES` lines of each of ``ranks``
        in the log before item ``end`` (``full`` level)."""
        if not self.full:
            return {}
        context: dict[int, list[str]] = {}
        log = self._log
        for rank in ranks:
            lines = []
            for j in range(end - LOG_FIELDS, -1, -LOG_FIELDS):
                line = _context_line(log[j:j + LOG_FIELDS], rank)
                if line is not None:
                    lines.append(line)
                    if len(lines) == CONTEXT_LINES:
                        break
            if lines:
                context[rank] = lines[::-1]
        return context

    def _add(
        self,
        code: str,
        message: str,
        ranks: tuple[int, ...] = (),
        time: float | None = None,
        at: int | None = None,
    ) -> None:
        """Record a violation; its context ends at log item ``at``
        (the end of the log by default)."""
        self.violations.append(Violation(
            code=code, message=message, ranks=ranks, time=time,
            context=self._context(ranks, len(self._log) if at is None
                                  else at),
        ))

    def _check_occupancy(self, sim) -> None:
        """Recount bus and port occupancy from the log's starts and
        releases: over capacity breaks the congestion model's core
        promise, a free count above capacity is a double release."""
        self._checks.append("network.occupancy")
        cap_buses, cap_out, cap_in = _capacity(sim.cfg)
        free_buses = cap_buses
        free_out = [cap_out] * sim.nranks
        free_in = [cap_in] * sim.nranks
        for i, (kind, t, tr, _a, _b) in enumerate(log_entries(self._log)):
            at = i * LOG_FIELDS  # where a violation's context ends
            if kind == "start":
                src, dst = tr.src, tr.dst
                free_buses -= 1
                free_out[src] -= 1
                free_in[dst] -= 1
                if free_buses < 0:
                    self._add(
                        "network.occupancy",
                        f"bus occupancy exceeds capacity "
                        f"({cap_buses:g} buses configured)",
                        (src, dst), t, at,
                    )
                if free_out[src] < 0:
                    self._add(
                        "network.occupancy",
                        f"output-port occupancy of rank {src} exceeds "
                        f"capacity ({cap_out} port(s))",
                        (src,), t, at,
                    )
                if free_in[dst] < 0:
                    self._add(
                        "network.occupancy",
                        f"input-port occupancy of rank {dst} exceeds "
                        f"capacity ({cap_in} port(s))",
                        (dst,), t, at,
                    )
            elif kind == "release":
                src, dst = tr.src, tr.dst
                free_buses += 1
                free_out[src] += 1
                free_in[dst] += 1
                if free_buses > cap_buses:
                    self._add(
                        "network.occupancy",
                        "bus released more often than acquired",
                        (src, dst), t, at,
                    )
                if free_out[src] > cap_out:
                    self._add(
                        "network.occupancy",
                        f"output port of rank {src} released more often "
                        "than acquired",
                        (src,), t, at,
                    )
                if free_in[dst] > cap_in:
                    self._add(
                        "network.occupancy",
                        f"input port of rank {dst} released more often "
                        "than acquired",
                        (dst,), t, at,
                    )

    # -- post-hoc checks ------------------------------------------------------
    def _check_clocks(self, result) -> None:
        """Per-rank monotone, non-overlapping, non-negative intervals.

        The runner's ``_resume`` clamps a backwards completion time to
        ``now`` (defensive), which would *hide* a causality bug from a
        naive end-time check — the interval lists are the ground truth,
        so overlap/negative-length here catches what the clamp masks.
        """
        self._checks.append("clock.monotonicity")
        for rank, intervals in enumerate(result.states):
            prev_end = 0.0
            for label, t0, t1 in intervals:
                if t0 < -_EPS:
                    self._add(
                        "clock.monotonicity",
                        f"state {label!r} starts before t=0 ({t0:.9g})",
                        (rank,), t0,
                    )
                if t1 < t0 - _EPS:
                    self._add(
                        "duration.negative",
                        f"state {label!r} has negative length "
                        f"({t0:.9g} -> {t1:.9g})",
                        (rank,), t0,
                    )
                if t0 < prev_end - _EPS:
                    self._add(
                        "clock.monotonicity",
                        f"state {label!r} at {t0:.9g} overlaps the previous "
                        f"interval ending {prev_end:.9g}",
                        (rank,), t0,
                    )
                prev_end = max(prev_end, t1)
            end = result.rank_end[rank]
            if end < prev_end - _EPS:
                self._add(
                    "clock.monotonicity",
                    f"rank clock ends at {end:.9g} before its last state "
                    f"interval ({prev_end:.9g})",
                    (rank,), end,
                )

    def _check_transfers(self, sim) -> None:
        """Transfer timing sanity and byte conservation."""
        self._checks.append("bytes.conservation")
        self._checks.append("duration.transfer")
        matched = injected = delivered = 0
        for tr in sim.transfers:
            matched += tr.size
            if tr.injected:
                injected += tr.size
            if tr.arrived:
                delivered += tr.size
            ranks = (tr.src, tr.dst)
            if tr.size < 0:
                self._add(
                    "duration.transfer",
                    f"negative transfer size {tr.size}", ranks,
                )
            if tr.start_time is not None and tr.send_time is not None \
                    and tr.start_time < tr.send_time - _EPS:
                self._add(
                    "duration.transfer",
                    f"transfer hit the wire at {tr.start_time:.9g} before "
                    f"its send at {tr.send_time:.9g}",
                    ranks, tr.start_time,
                )
            if tr.arrival_time is not None and tr.start_time is not None \
                    and tr.arrival_time < tr.start_time - _EPS:
                self._add(
                    "duration.transfer",
                    f"transfer arrived at {tr.arrival_time:.9g} before "
                    f"starting at {tr.start_time:.9g}",
                    ranks, tr.arrival_time,
                )
        if not (matched == injected == delivered):
            self._add(
                "bytes.conservation",
                f"byte conservation broken: {matched} byte(s) matched, "
                f"{injected} injected, {delivered} delivered",
            )

    def _check_requests(self, sim) -> None:
        """Every posted ISend/IRecv request waited exactly once, and
        every waited request completed (arrived) by end of run."""
        self._checks.append("request.lifecycle")
        plan = sim.plan
        for rank, posted in enumerate(plan.requests()):
            counts: dict[int, int] = {}
            for idx in sim.waits[rank]:
                for req in plan.wait_requests(rank, idx):
                    counts[req] = counts.get(req, 0) + 1
            for req, n in counts.items():
                if n > 1:
                    self._add(
                        "request.lifecycle",
                        f"request {req} waited {n} times", (rank,),
                    )
                ref = posted.get(req)
                if ref is not None:
                    # ``ref`` is a receive's pair, or ``~pid`` for a
                    # send's.  Eager send requests buffer-complete at
                    # the call; everything else must have completed by
                    # now for the wait to have returned.
                    tr = sim.transfers[ref if ref >= 0 else ~ref]
                    if (ref >= 0 or tr.rendezvous) and not tr.arrived:
                        self._add(
                            "request.lifecycle",
                            f"request {req} was waited but its transfer "
                            "never completed",
                            (rank,),
                        )
            for req in posted:
                if counts.get(req, 0) == 0:
                    self._add(
                        "request.lifecycle",
                        f"request {req} posted but never waited", (rank,),
                    )

    def _check_quiescence(self, sim) -> None:
        """End-of-run: empty event queue, no in-flight transfers, all
        network resources returned to capacity."""
        self._checks.append("quiescence")
        net = sim.network
        cap_buses, cap_out, cap_in = _capacity(sim.cfg)
        if sim.loop.pending:
            self._add(
                "quiescence",
                f"{sim.loop.pending} event(s) still queued after the "
                "replay drained",
            )
        if net._queue:
            self._add(
                "quiescence",
                f"{len(net._queue)} transfer(s) still queued for "
                "network resources",
            )
        stuck = [
            tr for tr in sim.transfers
            if tr.send_time is not None and not tr.arrived
        ]
        if stuck:
            ranks = tuple(sorted({r for t in stuck for r in (t.src, t.dst)}))
            self._add(
                "quiescence",
                f"{len(stuck)} submitted transfer(s) never delivered",
                ranks,
            )
        if net._active != 0:
            self._add(
                "quiescence",
                f"{net._active} transfer(s) still hold network resources",
            )
        if net._free_buses != cap_buses:
            self._add(
                "network.occupancy",
                f"bus pool ended at {net._free_buses:g} free of "
                f"{cap_buses:g} (resource leak)",
            )
        for rank in range(sim.nranks):
            if net._free_out[rank] != cap_out:
                self._add(
                    "network.occupancy",
                    f"output ports of rank {rank} ended at "
                    f"{net._free_out[rank]} free of {cap_out}",
                    (rank,),
                )
            if net._free_in[rank] != cap_in:
                self._add(
                    "network.occupancy",
                    f"input ports of rank {rank} ended at "
                    f"{net._free_in[rank]} free of {cap_in}",
                    (rank,),
                )

    def _check_plan_durations(self, sim) -> None:
        """``full`` only: scan every CpuBurst duration in the plan."""
        from ..trace.columnar import OP_CPU
        self._checks.append("duration.burst")
        plan = sim.plan
        for rank in range(sim.nranks):
            ops = plan.ops[rank]
            durs = plan.durs[rank]
            for i, op in enumerate(ops):
                if op == OP_CPU and not durs[i] >= 0.0:
                    self._add(
                        "duration.burst",
                        f"CpuBurst at record {i} has invalid duration "
                        f"{durs[i]!r}",
                        (rank,),
                    )

    def finish(self, sim, result) -> IntegrityReport:
        """Run the post-hoc checks and aggregate the report.

        Also rolls the outcome into the ``audit.*`` metrics and, when a
        run manifest is active, records an ``audit_violations`` event.
        """
        self._log = sim.log
        self._check_occupancy(sim)
        self._check_clocks(result)
        self._check_transfers(sim)
        self._check_requests(sim)
        self._check_quiescence(sim)
        if self.full:
            self._check_plan_durations(sim)
        report = IntegrityReport(
            level=self.level,
            nranks=sim.nranks,
            checks=tuple(dict.fromkeys(self._checks)),
            violations=list(self.violations),
            trace_digest=sim.plan.digest,
        )
        reg = get_registry()
        reg.counter("audit.replays").inc()
        reg.counter("audit.checks").inc(len(report.checks))
        if not report.ok:
            reg.counter("audit.violations").inc(len(report.violations))
            run = current_run()
            if run is not None:
                run.record(
                    "audit_violations",
                    count=len(report.violations),
                    codes=sorted({v.code for v in report.violations}),
                    trace_digest=report.trace_digest,
                )
        self.config.report = report
        return report
