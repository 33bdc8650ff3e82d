"""Command-line front-ends of the framework.

Five entry points mirror the tool chain of paper Figure 3:

* ``repro-trace``    — run an application under the tracer and write
  its Dimemas trace (the Valgrind stage);
* ``repro-overlap``  — apply the overlap transformation to a trace
  file (the tracer's second/third output);
* ``repro-simulate`` — replay a trace on a configurable platform and
  print/export the reconstructed timeline (the Dimemas stage);
* ``repro-report``   — regenerate the paper's tables and figures.
* ``repro-verify``   — certify trace integrity: structural validation,
  a fully audited replay, and a double-replay determinism check.
* ``repro-explain``  — deep-analyze why an application does (not)
  benefit from overlap: wait-state attribution, overlap scorecards,
  and a differential original/overlapped/ideal comparison.
* ``repro-resilience`` — replay original vs overlapped variants across
  a grid of injected platform faults (degraded bandwidth, outages,
  OS noise, stragglers) and report how much of the damage overlap
  masks (the resilience index).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import shutil
import sys

from .apps import APPS, get_app
from .audit.auditor import IntegrityError
from .core.ideal import ideal_transform
from .core.transform import OverlapConfig, overlap_transform
from .dimemas.machine import MachineConfig
from .dimemas.replay import DeadlockError, SimulationTimeout, simulate
from .experiments.checkpoint import CampaignInterrupted
from .paraver.gantt import render_gantt
from .paraver.stats import comm_stats, profile_table
from .trace import dim, prv
from .trace.records import ISend, Send

__all__ = ["main_analyze", "main_explain", "main_overlap", "main_report",
           "main_resilience", "main_simulate", "main_trace", "main_verify"]

#: CLI exit codes for diagnosed replay failures (0 ok, 2 argparse).
EXIT_DEADLOCK = 3
EXIT_TIMEOUT = 4
#: The campaign drained gracefully after SIGTERM/SIGINT and left its
#: run directory and result cache behind: re-run with
#: ``--resume <run-id>`` to continue.
EXIT_RESUMABLE = 5
#: The integrity audit found violations (``--strict-audit`` / a failed
#: ``repro-verify`` certification).
EXIT_INTEGRITY = 6
EXIT_INTERRUPTED = 130
#: The reader of standard output went away (``repro-analyze t.dim |
#: head``): 128+SIGPIPE, as a shell reports a process SIGPIPE killed.
EXIT_BROKEN_PIPE = 141


def _interruptible(fn):
    """Turn interrupts into clean exits instead of stack traces.

    Cleanup of pools and staging temp files happens where the resources
    live (``full_report`` tears its engine down on the way out); this
    wrapper only standardizes the user-visible behavior: a gracefully
    drained campaign prints its resume hint and exits with
    :data:`EXIT_RESUMABLE`; a hard Ctrl-C keeps the conventional
    128+SIGINT exit status; a closed standard output exits with
    :data:`EXIT_BROKEN_PIPE`, silently.
    """

    @functools.wraps(fn)
    def wrapper(argv: list[str] | None = None) -> int:
        try:
            code = fn(argv)
            # Flush here, so a reader that went away is seen here and
            # not by the interpreter's exit-time flush.
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # Whatever is still buffered goes to /dev/null at exit.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_BROKEN_PIPE
        except CampaignInterrupted as exc:
            print(str(exc), file=sys.stderr)
            if exc.resumable:
                print(f"resume with: repro-report --resume {exc.run_id}",
                      file=sys.stderr)
                return EXIT_RESUMABLE
            return EXIT_INTERRUPTED
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED

    return wrapper


def _obs_args(ap: argparse.ArgumentParser) -> None:
    """The shared observability options (every entry point gets them)."""
    g = ap.add_argument_group("observability")
    g.add_argument("--profile", action="store_true",
                   help="trace pipeline spans; writes a Perfetto-loadable "
                        "trace.json into the run directory and prints a "
                        "span summary on stderr")
    g.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="write the final metrics snapshot (counters, "
                        "gauges, histogram percentiles) as JSON")
    g.add_argument("--obs-dir", default=None, metavar="DIR",
                   help="parent directory for run manifests and event "
                        "logs (default: $REPRO_OBS_DIR, else .repro-obs "
                        "next to the cwd when a run is recorded)")
    g.add_argument("-v", "--verbose", action="count", default=0,
                   help="more stderr logging (-vv for debug)")
    g.add_argument("-q", "--quiet", action="store_true",
                   help="errors only; also suppresses the span summary")


def _default_obs_dir(args: argparse.Namespace) -> str:
    return args.obs_dir or os.environ.get("REPRO_OBS_DIR") or ".repro-obs"


@contextlib.contextmanager
def _observed(args: argparse.Namespace, command: str,
              run_id: str | None = None, resume: bool = False):
    """Run-manifest + profiling lifecycle around one CLI invocation.

    Spans are enabled for ``--profile``; a run directory (manifest +
    JSONL event log, plus trace.json when profiling) is created when
    any of ``--profile`` / ``--metrics-out`` / ``--obs-dir`` /
    ``$REPRO_OBS_DIR`` asks for observability.  Without those flags
    this is a no-op apart from logger configuration, so existing
    workflows see no new files.

    ``resume`` re-opens an existing run (``run_id`` required): events
    append to the same log, the run-sequence number increments, and
    the finalized manifest carries counter totals merged across every
    sequence.  A drained campaign finalizes with status
    ``interrupted`` rather than ``error``, marking it resumable.
    """
    from . import obs

    obs.configure_logging(verbosity=args.verbose, quiet=args.quiet)
    obs_dir = args.obs_dir or os.environ.get("REPRO_OBS_DIR")
    observed = bool(args.profile or args.metrics_out or obs_dir or resume)
    if not observed:
        yield None
        return
    if args.profile:
        obs.enable()
    run = obs.RunContext(obs_dir or ".repro-obs", command=command,
                         run_id=run_id, resume=resume)
    status = "ok"
    try:
        yield run
    except CampaignInterrupted:
        status = "interrupted"
        raise
    except BaseException:
        status = "error"
        raise
    finally:
        reg = obs.get_registry()
        spans_ = run.drain_spans()
        if args.profile and spans_:
            obs.write_chrome_trace(run.dir / "trace.json", spans_)
        if args.metrics_out:
            obs.write_metrics(args.metrics_out, reg, run_id=run.run_id)
        run.finalize(status=status)
        if args.profile:
            obs.disable()
            if not args.quiet:
                if spans_:
                    print(obs.span_summary_table(spans_), file=sys.stderr)
                print(f"run {run.run_id}: artifacts in {run.dir}",
                      file=sys.stderr)


def _machine_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--bandwidth", type=float, default=250.0,
                    help="link bandwidth in MB/s (default: 250, the paper's Myrinet)")
    ap.add_argument("--latency", type=float, default=8e-6,
                    help="message latency in seconds (default: 8 us)")
    ap.add_argument("--buses", type=int, default=0,
                    help="global bus count (0 = unlimited)")
    ap.add_argument("--cpu-ratio", type=float, default=1.0,
                    help="CPU time scaling of computation bursts")
    ap.add_argument("--max-events", type=int, default=None,
                    help="watchdog: abort the replay after this many "
                         "simulation events (default: unlimited)")
    ap.add_argument("--max-sim-time", type=float, default=None,
                    help="watchdog: abort when simulated time exceeds "
                         "this many seconds (default: unlimited)")


def _machine(args: argparse.Namespace) -> MachineConfig:
    return MachineConfig(
        bandwidth_mbps=args.bandwidth,
        latency=args.latency,
        buses=args.buses or None,
        cpu_ratio=args.cpu_ratio,
        max_events=args.max_events,
        max_sim_time=args.max_sim_time,
    )


def _audit_args(ap: argparse.ArgumentParser) -> None:
    g = ap.add_argument_group("integrity")
    g.add_argument("--audit", choices=("off", "basic", "full"), default=None,
                   help="run the invariant auditor alongside the replay "
                        "(default: $REPRO_AUDIT, else off)")
    g.add_argument("--strict-audit", action="store_true",
                   help="treat any audit violation as a failure (exit 6)")


def _replay(trace, machine, audit=None, strict=False):
    """Run :func:`simulate`, printing a post-mortem on failure.

    Returns ``(result, exit_code)``; ``result`` is None when the replay
    deadlocked (exit 3), tripped the watchdog (exit 4), or — with
    ``strict`` — failed the integrity audit (exit 6).  A non-strict
    audit prints its report to stderr and keeps the result.
    """
    acfg = None
    if audit is not None or os.environ.get("REPRO_AUDIT"):
        from .audit.auditor import AuditConfig, resolve_level
        level = resolve_level(audit)
        if level != "off":
            acfg = AuditConfig(level=level, strict=strict)
    try:
        result = simulate(trace, machine, audit=acfg)
    except DeadlockError as exc:
        print("replay deadlocked; post-mortem:", file=sys.stderr)
        print(exc.report.render(), file=sys.stderr)
        return None, EXIT_DEADLOCK
    except SimulationTimeout as exc:
        print(f"replay watchdog expired ({exc.reason}); post-mortem:",
              file=sys.stderr)
        print(exc.report.render(), file=sys.stderr)
        return None, EXIT_TIMEOUT
    except IntegrityError as exc:
        print("replay failed the integrity audit:", file=sys.stderr)
        print(exc.report.render(), file=sys.stderr)
        return None, EXIT_INTEGRITY
    if acfg is not None and acfg.report is not None:
        print(acfg.report.render(), file=sys.stderr)
    return result, 0


@_interruptible
def main_trace(argv: list[str] | None = None) -> int:
    """``repro-trace APP -n RANKS -o trace.dim``"""
    ap = argparse.ArgumentParser(
        prog="repro-trace",
        description="Trace a pool application (the Valgrind stage).",
    )
    ap.add_argument("app", choices=sorted(APPS))
    ap.add_argument("-n", "--nranks", type=int, default=16)
    ap.add_argument("-o", "--output", required=True,
                    help="output trace file (.dim)")
    ap.add_argument("--mips", type=float, default=2300.0)
    ap.add_argument("--streams", action="store_true",
                    help="record full access streams (Figure 5 data)")
    _obs_args(ap)
    args = ap.parse_args(argv)

    with _observed(args, "repro-trace"):
        app = get_app(args.app)
        run = app.trace(nranks=args.nranks, mips=args.mips,
                        record_streams=args.streams)
        dim.dump(run.trace, args.output)
        print(f"traced {args.app} on {args.nranks} ranks -> {args.output} "
              f"({run.trace.total_records()} records)")
    return 0


@_interruptible
def main_overlap(argv: list[str] | None = None) -> int:
    """``repro-overlap trace.dim -o overlapped.dim [--ideal]``"""
    ap = argparse.ArgumentParser(
        prog="repro-overlap",
        description="Apply the automatic overlap transformation to a trace.",
    )
    ap.add_argument("trace")
    ap.add_argument("-o", "--output", required=True)
    ap.add_argument("--chunks", type=int, default=4,
                    help="chunks per message (paper: 4)")
    ap.add_argument("--ideal", action="store_true",
                    help="generate the ideal-pattern trace instead")
    ap.add_argument("--no-double-buffering", action="store_true")
    _obs_args(ap)
    args = ap.parse_args(argv)

    with _observed(args, "repro-overlap"):
        trace = dim.load(args.trace)
        if args.ideal:
            out, stats = ideal_transform(
                trace, chunks=args.chunks,
                double_buffering=not args.no_double_buffering,
            )
        else:
            out, stats = overlap_transform(trace, OverlapConfig(
                chunks=args.chunks,
                double_buffering=not args.no_double_buffering,
            ))
        dim.dump(out.to_traceset(), args.output)
        print(f"transformed {stats.messages_transformed}/{stats.messages_total} "
              f"messages into {stats.chunks_created} chunks -> {args.output}")
    return 0


@_interruptible
def main_simulate(argv: list[str] | None = None) -> int:
    """``repro-simulate trace.dim [--gantt] [--prv out.prv]``"""
    ap = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Replay a trace on a configurable platform (the Dimemas stage).",
    )
    ap.add_argument("trace")
    _machine_args(ap)
    _audit_args(ap)
    ap.add_argument("--gantt", action="store_true",
                    help="print an ASCII Gantt of the reconstruction")
    ap.add_argument("--state-profile", action="store_true",
                    help="print the per-rank state profile "
                         "(--profile traces the pipeline itself)")
    ap.add_argument("--prv", help="export a Paraver .prv trace to this path")
    ap.add_argument("--svg", help="export an SVG timeline to this path")
    ap.add_argument("--json", help="export the reconstruction as JSON")
    ap.add_argument("--width", type=int, default=100)
    _obs_args(ap)
    args = ap.parse_args(argv)

    with _observed(args, "repro-simulate"):
        trace = dim.load(args.trace)
        result, code = _replay(trace, _machine(args), audit=args.audit,
                               strict=args.strict_audit)
        if result is None:
            return code
        print(f"simulated {result.nranks} ranks: makespan {result.duration * 1e6:.1f} us, "
              f"{len(result.messages)} messages, "
              f"parallel efficiency {result.parallel_efficiency * 100:.1f}%")
        print(f"comm: {comm_stats(result)}")
        if args.gantt:
            print(render_gantt(result, width=args.width))
        if args.state_profile:
            print(profile_table(result))
        if args.prv:
            prv.write_prv(result, args.prv)
            prv.write_pcf(args.prv.rsplit(".", 1)[0] + ".pcf")
            print(f"wrote {args.prv}")
        if args.svg:
            from .paraver.svg import write_svg
            write_svg(result, args.svg)
            print(f"wrote {args.svg}")
        if args.json:
            result.to_json(args.json)
            print(f"wrote {args.json}")
    return 0


def _trace_stats(trace) -> dict:
    """Summary statistics of a trace (records, bytes per channel)."""
    bytes_per_channel: dict[int, int] = {}
    messages = 0
    for proc in trace:
        for rec in proc:
            if isinstance(rec, (Send, ISend)):
                messages += 1
                bytes_per_channel[rec.channel] = (
                    bytes_per_channel.get(rec.channel, 0) + rec.size)
    return {
        "nranks": trace.nranks,
        "records": trace.total_records(),
        "messages": messages,
        "bytes_per_channel": bytes_per_channel,
        "virtual_compute_seconds": trace.total_virtual_compute(),
    }


@_interruptible
def main_analyze(argv: list[str] | None = None) -> int:
    """``repro-analyze trace.dim`` — patterns, stats, phase headroom.

    The analysis half of the framework without replaying anything:
    Table II rows, per-channel byte accounting, and the phase-level
    overlap potential of a recorded trace.  Add a platform with
    ``--simulate`` to append the replay profile and critical path.
    """
    ap = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Analyze a recorded trace (patterns, stats, bottlenecks).",
    )
    ap.add_argument("trace")
    ap.add_argument("--channel", type=int, default=None,
                    help="restrict pattern tables to one channel "
                         "(default: all channels)")
    ap.add_argument("--simulate", action="store_true",
                    help="also replay and print profile + critical path")
    _machine_args(ap)
    _audit_args(ap)
    _obs_args(ap)
    args = ap.parse_args(argv)

    from .core.patterns import consumption_table, production_table
    from .core.phases import phase_overlap_potential

    with _observed(args, "repro-analyze"):
        trace = dim.load(args.trace)
        st = _trace_stats(trace)
        print(f"trace: {st['nranks']} ranks, {st['records']} records, "
              f"{st['messages']} messages, "
              f"{st['virtual_compute_seconds'] * 1e3:.3f} ms compute")
        for ch, nbytes in sorted(st["bytes_per_channel"].items()):
            label = {0: "application", 1: "collective", 2: "chunk"}.get(ch, str(ch))
            print(f"  channel {ch} ({label}): {nbytes} bytes")

        p = production_table(trace, channel=args.channel)
        c = consumption_table(trace, channel=args.channel)
        print("\nproduction pattern  (fraction of phase): "
              f"1st={p.first_element:.4f} 1/4={p.quarter:.4f} "
              f"1/2={p.half:.4f} all={p.whole:.4f}")
        print("consumption pattern (fraction of phase): "
              f"none={c.nothing:.4f} 1/4={c.quarter:.4f} 1/2={c.half:.4f}")
        print(phase_overlap_potential(trace, channel=args.channel))

        if args.simulate:
            from .paraver.critical import critical_path, render_path
            result, code = _replay(trace, _machine(args), audit=args.audit,
                                   strict=args.strict_audit)
            if result is None:
                return code
            print(f"\nreplay: makespan {result.duration * 1e6:.1f} us, "
                  f"efficiency {result.parallel_efficiency * 100:.1f}%")
            print(profile_table(result))
            print()
            print(render_path(critical_path(result)))
    return 0


@_interruptible
def main_explain(argv: list[str] | None = None) -> int:
    """``repro-explain TARGET`` — why does overlap (not) pay here?

    ``TARGET`` is either a paper application name (the skeleton is
    traced, transformed, and replayed on its Table I test bed) or a
    recorded ``.dim`` trace file (the overlapped and ideal variants are
    derived from it).  The analysis replays the triple with the
    wait-attribution channel attached and reports scorecards,
    per-rank/per-phase cause tables, the critical-path breakdown, and
    a §V-style verdict.
    """
    ap = argparse.ArgumentParser(
        prog="repro-explain",
        description="Attribute wait states and explain the overlap "
                    "speedup of an application or trace.",
    )
    ap.add_argument("target",
                    help="application name "
                         f"({', '.join(sorted(APPS))}) or a .dim trace file")
    ap.add_argument("-n", "--nranks", type=int, default=16,
                    help="ranks for application targets (default: 16)")
    ap.add_argument("--chunks", type=int, default=4,
                    help="chunks per message of the transformation "
                         "(paper: 4)")
    ap.add_argument("--channel", type=int, default=None,
                    help="restrict the pattern tables to one channel")
    ap.add_argument("--no-ideal", action="store_true",
                    help="skip the ideal-pattern variant")
    ap.add_argument("--top-ranks", type=int, default=8,
                    help="ranks shown in the attribution tables")
    ap.add_argument("--json", metavar="FILE",
                    help="write the machine-readable report "
                         "(docs/schema/repro-explain.schema.json)")
    ap.add_argument("--html", metavar="FILE",
                    help="write the self-contained HTML deep report")
    ap.add_argument("--perfetto", metavar="FILE",
                    help="write wait-cause overlay tracks as a "
                         "Perfetto-loadable trace JSON")
    g = ap.add_argument_group("fault injection")
    g.add_argument("--perturb", metavar="SCENARIO", default=None,
                   help="replay on a degraded platform: a named scenario "
                        "(see repro-resilience --list-scenarios) scaled to "
                        "the unperturbed makespan; blocked time the faults "
                        "cause shows up under the 'perturbation' cause")
    g.add_argument("--perturb-seed", type=int, default=0,
                   help="seed of the perturbation schedule (default: 0)")
    _machine_args(ap)
    _obs_args(ap)
    args = ap.parse_args(argv)

    from .insight import explain_traces, render_html, render_text, to_json

    with _observed(args, "repro-explain"):
        app = None
        if args.target.lower() in APPS:
            app = args.target.lower()
            run = get_app(app).trace(nranks=args.nranks)
            original = run.trace
            # Table I test bed of the application, with only the
            # machine flags the user actually set overriding it.
            overrides = {}
            if args.bandwidth != ap.get_default("bandwidth"):
                overrides["bandwidth_mbps"] = args.bandwidth
            if args.latency != ap.get_default("latency"):
                overrides["latency"] = args.latency
            if args.buses != ap.get_default("buses"):
                overrides["buses"] = args.buses or None
            if args.cpu_ratio != ap.get_default("cpu_ratio"):
                overrides["cpu_ratio"] = args.cpu_ratio
            machine = MachineConfig.paper_testbed(app, **overrides)
        else:
            if not os.path.exists(args.target):
                ap.error(f"{args.target!r} is neither a known application "
                         f"({', '.join(sorted(APPS))}) nor a trace file")
            original = dim.load(args.target)
            machine = _machine(args)

        traces = {"original": original}
        traces["real"], _ = overlap_transform(
            original, OverlapConfig(chunks=args.chunks)
        )
        if not args.no_ideal:
            traces["ideal"], _ = ideal_transform(original,
                                                 chunks=args.chunks)
        if args.perturb:
            from .perturb.scenarios import SCENARIO_KINDS, build_scenario
            if args.perturb not in SCENARIO_KINDS:
                ap.error(f"unknown scenario {args.perturb!r} "
                         f"(choose from {', '.join(sorted(SCENARIO_KINDS))})")
            # Scenario windows scale to the *unperturbed* makespan, so
            # measure it first with one pristine replay.
            horizon = simulate(original, machine).duration
            machine = machine.with_platform(
                perturb=build_scenario(args.perturb, horizon,
                                       args.perturb_seed))
        try:
            expl = explain_traces(
                traces, machine=machine, app=app, chunks=args.chunks,
                channel=args.channel, max_events=args.max_events,
                max_sim_time=args.max_sim_time,
            )
        except DeadlockError as exc:
            print("replay deadlocked; post-mortem:", file=sys.stderr)
            print(exc.report.render(), file=sys.stderr)
            return EXIT_DEADLOCK
        except SimulationTimeout as exc:
            window = getattr(exc, "window", None)
            if window is not None:
                print(f"replay stalled under active perturbation "
                      f"[{window}] ({exc.reason}); post-mortem:",
                      file=sys.stderr)
            else:
                print(f"replay watchdog expired ({exc.reason}); "
                      "post-mortem:", file=sys.stderr)
            print(exc.report.render(), file=sys.stderr)
            return EXIT_TIMEOUT

        print(render_text(expl, top_ranks=args.top_ranks))
        if args.json:
            import json as _json
            with open(args.json, "w") as fh:
                _json.dump(to_json(expl), fh, indent=1)
                fh.write("\n")
            print(f"wrote {args.json}")
        if args.html:
            with open(args.html, "w") as fh:
                fh.write(render_html(expl))
            print(f"wrote {args.html}")
        if args.perfetto:
            from .obs.export import write_insight_trace
            tracks = [
                (v, expl.attribution[v], expl.collectors.get(v))
                for v in ("original", "real", "ideal")
                if v in expl.attribution
            ]
            write_insight_trace(args.perfetto, tracks)
            print(f"wrote {args.perfetto}")
    return 0


@_interruptible
def main_resilience(argv: list[str] | None = None) -> int:
    """``repro-resilience [APP...]`` — how much overlap buys back.

    Replays every application's original and overlapped variants on
    the pristine platform and under each named fault scenario
    (bandwidth sag, latency spikes, link outages, OS noise,
    stragglers), then reports per-scenario slowdowns and the
    resilience index — the fraction of the injected degradation the
    overlap transform masked.  Deterministic per ``--seed``: the
    result digest is identical across reruns and ``--jobs`` counts.
    """
    ap = argparse.ArgumentParser(
        prog="repro-resilience",
        description="Measure how much of an injected platform "
                    "degradation communication-computation overlap "
                    "masks.",
    )
    ap.add_argument("apps", nargs="*", metavar="APP",
                    help="applications to sweep (default: the full "
                         f"paper pool: {', '.join(sorted(APPS))})")
    ap.add_argument("--scenarios", default=None, metavar="KIND[,KIND...]",
                    help="comma-separated scenario subset "
                         "(default: all)")
    ap.add_argument("--list-scenarios", action="store_true",
                    help="list the named scenarios and exit")
    ap.add_argument("--seed", type=int, default=0,
                    help="perturbation-schedule seed (default: 0)")
    ap.add_argument("-n", "--nranks", type=int, default=8,
                    help="ranks per application (default: 8)")
    ap.add_argument("--chunks", type=int, default=4,
                    help="chunks per message of the overlap transform "
                         "(paper: 4)")
    ap.add_argument("-j", "--jobs", type=int, default=1,
                    help="worker processes for the replay grid "
                         "(default: 1, serial)")
    ap.add_argument("--cache-dir", default=None,
                    help="persist traces and replay results here "
                         "(perturbed replays are cache-keyed by their "
                         "schedule digest; re-runs are nearly free)")
    ap.add_argument("--degraded", action="store_true",
                    help="report n/a cells instead of aborting when "
                         "replays fail")
    ap.add_argument("--json", metavar="FILE",
                    help="write the machine-readable report "
                         "(docs/schema/repro-resilience.schema.json)")
    ap.add_argument("--html", metavar="FILE",
                    help="write the self-contained HTML report")
    _obs_args(ap)
    args = ap.parse_args(argv)

    from .experiments.parallel import ExperimentEngine, GridExecutionError
    from .experiments.resilience import (
        render_html, render_text, resilience_sweep, to_json,
    )
    from .perturb.scenarios import SCENARIO_KINDS

    if args.list_scenarios:
        from .perturb.scenarios import build_scenario
        for kind in sorted(SCENARIO_KINDS):
            sched = build_scenario(kind, 1.0, args.seed)
            print(f"{kind:<15} {sched.describe()}")
        return 0
    apps = tuple(a.lower() for a in args.apps) or tuple(sorted(APPS))
    unknown = sorted(set(apps) - set(APPS))
    if unknown:
        ap.error(f"unknown apps: {', '.join(unknown)} "
                 f"(choose from {', '.join(sorted(APPS))})")
    scenarios = None
    if args.scenarios:
        scenarios = tuple(s.strip() for s in args.scenarios.split(",")
                          if s.strip())
        bad = sorted(set(scenarios) - set(SCENARIO_KINDS))
        if bad:
            ap.error(f"unknown scenarios: {', '.join(bad)} "
                     f"(choose from {', '.join(sorted(SCENARIO_KINDS))})")

    with _observed(args, "repro-resilience"):
        engine = ExperimentEngine(jobs=args.jobs, cache_dir=args.cache_dir,
                                  degraded=args.degraded)
        try:
            report = resilience_sweep(
                apps, scenarios=scenarios, seed=args.seed,
                nranks=args.nranks, chunks=args.chunks, engine=engine,
            )
        except GridExecutionError as exc:
            print(str(exc), file=sys.stderr)
            print("re-run with --degraded to keep the surviving cells",
                  file=sys.stderr)
            return EXIT_TIMEOUT if "watchdog" in str(exc) else 1
        finally:
            engine.close()
        print(render_text(report))
        if args.json:
            import json as _json
            with open(args.json, "w") as fh:
                _json.dump(to_json(report), fh, indent=1)
                fh.write("\n")
            print(f"wrote {args.json}")
        if args.html:
            with open(args.html, "w") as fh:
                fh.write(render_html(report))
            print(f"wrote {args.html}")
    return 0


@_interruptible
def main_report(argv: list[str] | None = None) -> int:
    """``repro-report [--nranks N] [--no-bandwidth] [-j N] [--cache-dir D]``"""
    ap = argparse.ArgumentParser(
        prog="repro-report",
        description="Regenerate the paper's tables and figures.",
    )
    ap.add_argument("--nranks", type=int, default=64)
    ap.add_argument("--no-bandwidth", action="store_true")
    ap.add_argument("--apps", default=None, metavar="APP[,APP...]",
                    help="comma-separated subset of the paper pool "
                         "(default: all six applications)")
    ap.add_argument("-j", "--jobs", type=int, default=1,
                    help="worker processes for the replay grids "
                         "(default: 1, serial)")
    ap.add_argument("--cache-dir", default=None,
                    help="persist traces and replay results in this "
                         "directory (shared by all workers; re-runs are "
                         "nearly free).  Default while a run is recorded: "
                         "<run-dir>/cache, deleted once the run finishes ok")
    ap.add_argument("--degraded", action="store_true",
                    help="report FAILED rows instead of aborting when "
                         "replays fail")
    ap.add_argument("--explain", action="store_true",
                    help="append per-app overlap explanations (wait-state "
                         "attribution scorecards and verdicts)")
    g = ap.add_argument_group("resume")
    g.add_argument("--resume", default=None, metavar="RUN_ID",
                   help="resume an interrupted campaign under the same "
                        "run directory: replays found in its result cache "
                        "(<run-dir>/cache, or the --cache-dir given) are "
                        "served, only the missing ones re-run")
    g.add_argument("--list-runs", action="store_true",
                   help="list the runs under the obs dir (status, "
                        "replays so far, resumable) and exit")
    _obs_args(ap)
    args = ap.parse_args(argv)
    from .experiments.checkpoint import list_runs, render_runs_table
    from .experiments.report import full_report

    if args.list_runs:
        print(render_runs_table(list_runs(_default_obs_dir(args))))
        return 0
    if args.resume:
        from pathlib import Path
        if not (Path(_default_obs_dir(args)) / args.resume).is_dir():
            ap.error(f"no run {args.resume!r} under "
                     f"{_default_obs_dir(args)} (try --list-runs)")
    kwargs = {}
    if args.apps:
        apps = tuple(a.strip() for a in args.apps.split(",") if a.strip())
        unknown = sorted(set(apps) - set(APPS))
        if unknown:
            ap.error(f"unknown apps: {', '.join(unknown)} "
                     f"(choose from {', '.join(sorted(APPS))})")
        kwargs["apps"] = apps
    with _observed(args, "repro-report", run_id=args.resume,
                   resume=bool(args.resume)) as run:
        # A recorded run resumes from a result cache of its own until
        # it finishes.
        own_cache = args.cache_dir is None and run is not None
        cache_dir = run.dir / "cache" if own_cache else args.cache_dir
        print(full_report(nranks=args.nranks,
                          include_bandwidth=not args.no_bandwidth,
                          jobs=args.jobs, cache_dir=cache_dir,
                          degraded=args.degraded,
                          explain=args.explain,
                          **kwargs))
        if own_cache:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


def _verify_targets(paths: list[str], error) -> list:
    """Expand ``repro-verify`` operands into trace file paths."""
    from pathlib import Path

    targets = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            found = sorted(q for q in p.iterdir()
                           if q.suffix in (".dim", ".rct"))
            if not found:
                error(f"no .dim/.rct traces under {raw}")
            targets.extend(found)
        elif p.exists():
            targets.append(p)
        else:
            error(f"no such trace: {raw}")
    return targets


@_interruptible
def main_verify(argv: list[str] | None = None) -> int:
    """``repro-verify TRACE [TRACE...]`` — certify trace integrity.

    For each ``.dim`` / ``.rct`` file (or every one in a directory):
    structural validation, an audited replay, and a double-replay
    determinism check.  Any violation fails the certification and the
    command exits with :data:`EXIT_INTEGRITY`.
    """
    ap = argparse.ArgumentParser(
        prog="repro-verify",
        description="Certify trace integrity: validation, audited replay, "
                    "double-replay determinism check.",
    )
    ap.add_argument("paths", nargs="+", metavar="TRACE",
                    help=".dim/.rct trace files or directories of them")
    ap.add_argument("--level", choices=("basic", "full"), default="full",
                    help="audit depth for the replay pass (default: full)")
    ap.add_argument("--no-double-replay", action="store_true",
                    help="skip the second replay / digest comparison")
    ap.add_argument("--report", action="store_true",
                    help="print the full integrity report for every "
                         "trace, not only the failing ones")
    _machine_args(ap)
    _obs_args(ap)
    args = ap.parse_args(argv)

    from .audit.certify import certify_trace
    from .trace.columnar import ColumnarFormatError, decode
    from .trace.dim import TraceFormatError

    targets = _verify_targets(args.paths, ap.error)
    machine = _machine(args)
    failed = 0
    with _observed(args, "repro-verify"):
        for path in targets:
            try:
                if path.suffix == ".rct":
                    trace = decode(path.read_bytes())
                else:
                    trace = dim.load(str(path))
            except (TraceFormatError, ColumnarFormatError, OSError) as exc:
                failed += 1
                print(f"FAIL {path}: unreadable trace: {exc}")
                continue
            report = certify_trace(
                trace, machine=machine, level=args.level,
                double_replay=not args.no_double_replay,
            )
            verdict = "PASS" if report.ok else "FAIL"
            print(f"{verdict} {path}: {report.nranks} ranks, "
                  f"{len(report.checks)} checks, "
                  f"{len(report.violations)} violations")
            if not report.ok:
                failed += 1
            if not report.ok or args.report:
                print(report.render())
        n = len(targets)
        print(f"verified {n} trace{'s' if n != 1 else ''}: "
              f"{n - failed} passed, {failed} failed")
    return EXIT_INTEGRITY if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main_trace())
