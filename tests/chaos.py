"""Chaos harness: a tiny killable/resumable campaign driver.

Run as a subprocess by ``tests/test_chaos.py`` (and by hand when
debugging crash-recovery)::

    python tests/chaos.py --obs-dir OBS --cache-dir CACHE --out TABLE \
        [--resume RUN_ID] [--jobs N] [--metrics-json FILE] \
        [--store-delay SECONDS]

The driver runs a small deterministic Sweep3D grid through an
:class:`~repro.experiments.parallel.ExperimentEngine` on a result
cache, inside a run directory, and writes the campaign's final table
(one formatted row per grid point) to ``--out``.  The harness kills it
at chosen or randomized instants — the driver killing itself on
request, or an external ``killpg`` — then re-invokes it with
``--resume`` on the same cache and asserts the final table is
bitwise-identical to an uninterrupted run's, with no stored point
executed again.

The driver's own kills, all made from this file (the program under
test has no fault hooks):

* ``REPRO_TEST_SELFKILL_BEFORE_DISPATCH`` (any value): SIGKILL right
  before the grid starts;
* ``REPRO_TEST_SELFKILL_AFTER_STORE=N``: SIGKILL after the process's
  Nth stored point (a pool worker counts and kills only itself);
* ``REPRO_TEST_CHAOS_SELF_SIGTERM=N``: SIGTERM after the Nth stored
  point (``0``: before the grid), as an operator's ``kill`` would.

``--store-delay`` sleeps after every stored point, pool workers
included (they are forked from the driver), to give an external kill
a wide window.

Exit codes mirror the CLI contract: 0 done, 5 interrupted-but-
resumable (graceful drain), 130 hard interrupt.

The first stdout line is always ``run-id: <id>`` so the harness can
learn what to pass to ``--resume``.  ``--metrics-json`` dumps the
*session* counters (``cache.replay.hits``, ``replay.runs``,
``engine.points_executed``, ...) at campaign end for the harness's
no-re-execution assertions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments import (  # noqa: E402
    CampaignInterrupted,
    ExperimentEngine,
    SimResultCache,
    expand_grid,
    graceful_drain,
)
from repro.obs import RunContext, get_registry  # noqa: E402

#: A tiny Sweep3D instance so every grid point replays in milliseconds.
TINY = dict(nx=8, ny=8, nz=4, mk=2, angle_block=2, iterations=1)


def campaign_points():
    """The deterministic grid every chaos run executes (8 points)."""
    return expand_grid(
        ["sweep3d"],
        variants=("original", "real"),
        bandwidths=(None, 100.0, 50.0, 25.0),
        nranks=4,
        app_params=TINY,
    )


def render_table(points, results) -> str:
    """The campaign's final table: one row per grid point.

    Floats are ``repr``-formatted, so two runs that produced the same
    results render bitwise-identical text.
    """
    rows = ["app variant bandwidth duration efficiency"]
    for p, r in zip(points, results):
        bw = "inf" if p.bandwidth_mbps is None else repr(p.bandwidth_mbps)
        rows.append(f"{p.app} {p.variant} {bw} "
                    f"{r.duration!r} {r.parallel_efficiency!r}")
    return "\n".join(rows) + "\n"


def dump_metrics(path: str | None) -> None:
    if not path:
        return
    reg = get_registry()
    Path(path).write_text(json.dumps(reg.snapshot()["counters"], indent=1))


def after_each_store(action) -> None:
    """Call ``action(n)`` after this process's nth stored point.

    Every stored point passes through
    :meth:`~repro.experiments.cache.SimResultCache.store_duration`, so
    the action runs right after the point became servable to a resumed
    session.  Pool workers are forked from the driver and inherit the
    wrapper; each counts its own points.
    """
    store_duration = SimResultCache.store_duration
    stored = itertools.count(1)

    def wrapped(self, key, duration):
        store_duration(self, key, duration)
        action(next(stored))

    SimResultCache.store_duration = wrapped


def self_kill(sig: int) -> None:
    os.kill(os.getpid(), sig)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--obs-dir", required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--resume", default=None, metavar="RUN_ID")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--metrics-json", default=None)
    ap.add_argument("--store-delay", type=float, default=0.0)
    args = ap.parse_args(argv)

    run = RunContext(args.obs_dir, command="chaos-campaign",
                     run_id=args.resume, resume=bool(args.resume))
    print(f"run-id: {run.run_id}", flush=True)
    if args.store_delay:
        after_each_store(lambda n: time.sleep(args.store_delay))
    kill_after = int(os.environ.get("REPRO_TEST_SELFKILL_AFTER_STORE", 0))
    if kill_after > 0:
        after_each_store(
            lambda n: n == kill_after and self_kill(signal.SIGKILL))
    sigterm_after = int(os.environ.get("REPRO_TEST_CHAOS_SELF_SIGTERM", -1))

    def sigterm_self(stored: int) -> None:
        if stored == sigterm_after:
            self_kill(signal.SIGTERM)

    if sigterm_after > 0:
        after_each_store(sigterm_self)
    engine = ExperimentEngine(jobs=args.jobs, cache_dir=args.cache_dir)
    points = campaign_points()
    try:
        with graceful_drain(engine):
            sigterm_self(0)
            if os.environ.get("REPRO_TEST_SELFKILL_BEFORE_DISPATCH"):
                self_kill(signal.SIGKILL)
            results = engine.run_grid(points)
    except CampaignInterrupted as exc:
        dump_metrics(args.metrics_json)
        run.finalize(status="interrupted")
        print(f"interrupted: {exc}", file=sys.stderr)
        return 5 if exc.resumable else 130
    except KeyboardInterrupt:
        run.finalize(status="error")
        return 130
    finally:
        engine.close()
    Path(args.out).write_text(render_table(points, results))
    dump_metrics(args.metrics_json)
    run.finalize(status="ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
