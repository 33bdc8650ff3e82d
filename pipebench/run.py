"""Pipeline benchmark: the paper's studies at 16 and 64 ranks, end to end.

Usage::

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen: ``pipebench/README.md``):
``triples-16``, ``fig6-cg-64``, ``explain-bt-64``.

``--trace 0`` measures the end-to-end metrics with nothing traced.  The
set-up time is the median of several fresh interpreters that only
import ``repro`` and start the engine.  Then the workload runs in fresh
interpreters, one cold pass and several warm passes each, for as long
as ``--seconds`` allows (at least once); cold time, warm time and peak
memory are medians over them.  The three times are reported at a fixed
host speed: each is measured in units of a fixed host reference task
run between the steps of a pass (``workloads.HostClock``), times that
task's nominal time.  The unscaled medians are printed too.

``--trace 1`` runs the workload once untraced and once with every layer
entry wrapped (``layers.py``), and reports the per-layer metrics of the
traced cold pass, a table of each layer's self time as a share of it,
and the tracing overhead (traced minus untraced cold time).

Every result is checked against ``reference.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 when every
result matched, 1 when one did not or the program failed, 2 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for cache directories, inside the checkout.
WORK_ROOT = ROOT / ".pipebench_work"
WORKLOADS = ("triples-16", "fig6-cg-64", "explain-bt-64")
#: Fresh interpreters timed for the set-up metric.
SETUP_RUNS = 7
#: Warm passes per cold interpreter (at least, for ``FILL_WITH_WARM``).
WARM_PASSES = {"triples-16": 8, "fig6-cg-64": 24, "explain-bt-64": 2}
#: Workloads whose first cold interpreter leaves too little of a run for
#: a second: it keeps repeating warm passes until the run's time is up,
#: so the warm median spans as much of the host's speed drift as the
#: run does.
FILL_WITH_WARM = {"fig6-cg-64", "explain-bt-64"}
#: Nominal time of the host reference task (``workloads.host_reference``):
#: its faster readings on the 2-vCPU host of the baseline in README.md,
#: where it takes 0.08 to 0.16 s.  Times are reported at that speed.
REF_NOMINAL_S = 0.1
#: Hard cap on one invocation, below the 180 s a run may take.
BUDGET_S = 170.0


class ChildFailed(RuntimeError):
    pass


def unit_of(name: str) -> str:
    """Unit of a metric, from its name's suffix."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith(("_share", "_ratio", ".overhead")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def run_child(mode: str, workload: str, extra: list[str], scale: str,
              deadline: float) -> dict:
    """One fresh interpreter running ``workloads.py``; its JSON result."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
    cmd = [sys.executable, str(HERE / "workloads.py"), mode,
           "--workload", workload, "--work-dir", str(work),
           "--scale", scale, *extra]
    os.sync()  # no child is timed against the last one's writeback
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool
        proc.communicate()
        raise ChildFailed(f"{mode} {workload}: out of time") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        doc = {"error": "no result printed"}
    if proc.returncode != 0 or "error" in doc:
        raise ChildFailed(f"{mode} {workload} exited {proc.returncode}: "
                          f"{doc.get('error', '').strip()}")
    doc["wall_s"] = time.monotonic() - t0
    return doc


def end_to_end(args, deadline: float) -> tuple[list[dict], dict]:
    start = time.monotonic()
    setups = [run_child("setup", args.workload, [], args.scale, deadline)
              for _ in range(SETUP_RUNS)]
    extra = ["--seed", str(args.seed), "--warm",
             str(WARM_PASSES[args.workload])]
    if args.workload in FILL_WITH_WARM:
        extra += ["--warm-until", repr(time.time() - time.monotonic()
                                       + start + args.seconds)]
    runs: list[dict] = []
    while True:
        runs.append(run_child("run", args.workload, extra, args.scale,
                              deadline))
        projected = time.monotonic() + runs[-1]["wall_s"]
        if projected - start > args.seconds or projected > deadline:
            break
    metrics = {
        "cold_s": REF_NOMINAL_S * statistics.median(
            r["cold_scaled"] for r in runs),
        "warm_s": REF_NOMINAL_S * statistics.median(
            w for r in runs for w in r["warm_scaled"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": REF_NOMINAL_S * statistics.median(
            s["setup_scaled"] for s in setups),
    }
    refs = [ref for r in runs for ref in r["ref_s"]]
    print(f"host reference task: median {statistics.median(refs):.4f} s "
          f"(nominal {REF_NOMINAL_S} s)")
    print("unscaled medians: "
          f"cold_s {statistics.median(r['cold_s'] for r in runs):.4f} s, "
          "warm_s "
          f"{statistics.median(w for r in runs for w in r['warm_s']):.4f} s,"
          f" setup_s {statistics.median(s['setup_s'] for s in setups):.4f} s")
    return runs, metrics


def per_layer(args, deadline: float) -> tuple[list[dict], dict]:
    seed = ["--seed", str(args.seed)]
    plain = run_child("run", args.workload, seed, args.scale, deadline)
    traced = run_child(
        "run", args.workload,
        seed + ["--trace", "--warm", str(WARM_PASSES[args.workload])],
        args.scale, deadline)
    metrics = dict(traced["layers"])
    metrics["tracing_overhead_s"] = traced["cold_s"] - plain["cold_s"]
    metrics["host.ref_s"] = statistics.median(traced["ref_s"])
    print_shares(metrics)
    return [plain, traced], metrics


def print_shares(m: dict) -> None:
    """Each layer's self time as a share of the traced cold pass."""
    from layers import LAYERS

    cold = m["traced_cold_s"]
    print(f"{'layer':<24}{'self s':>10}{'share':>9}")
    for layer in LAYERS:
        print(f"{layer:<24}{m[f'{layer}.self_s']:>10.3f}"
              f"{m[f'{layer}.self_share']:>9.1%}")
    print(f"{'unattributed_s':<24}{m['unattributed_s']:>10.3f}"
          f"{m['unattributed_share']:>9.1%}")
    print(f"{'traced cold_s':<24}{cold:>10.3f}"
          f"   (tracing overhead {m['tracing_overhead_s']:+.3f} s)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: 4 ranks everywhere (benchmark self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        runs, metrics = (per_layer if args.trace else end_to_end)(
            args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for op in sorted({op for r in runs for op in r["mismatches"]}):
        print(f"MISMATCH {args.workload}: {op}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
