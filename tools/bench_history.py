"""Rolling benchmark history: pipebench result lines in HISTORY.jsonl.

``pipebench/run.py`` prints one JSON result line per run: correctness,
then every metric ``BENCHMARK.json`` declares.  This module keeps the
longitudinal record of those lines: :func:`append_history` stamps one
with the git revision and a UTC timestamp and appends it as one line to
``benchmarks/perf/HISTORY.jsonl``.

Save a run's last stdout line in a file named after the bench
(``fig6-cg-64.json``); the file stem names the bench.  Then::

    # compare it with the last history entry of the same bench and kind:
    python tools/bench_history.py --compare fig6-cg-64.json

    # and log it:
    python tools/bench_history.py fig6-cg-64.json

``--compare`` prints each end-to-end metric that ``BENCHMARK.json``
declares next to the bench's last history entry of the same kind, with
the relative change and the metric's bound, and exits 1 when any
metric is worse by more than its bound.  The kind is plain or traced: a
traced line (``--trace 1``) carries per-layer metrics and no end-to-end
ones, so it is compared with the last traced entry, and a plain line
with the last plain one.  For traced lines it prints the per-layer
metrics both carry, with their change; they have no bound and never
set the exit code.  A bench with no history of the kind has nothing to
compare and passes.  Wall-clock numbers
compare only on one host: take the history entry and the new line on
the same machine.

Lines are self-contained JSON objects, so the history is greppable and
trivially loadable::

    import json, pathlib
    runs = [json.loads(ln) for ln in
            pathlib.Path("benchmarks/perf/HISTORY.jsonl").read_text().splitlines()]
"""

from __future__ import annotations

import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["append_history", "compare_history", "git_sha"]

ROOT = Path(__file__).resolve().parent.parent
#: Default history file.
HISTORY_PATH = ROOT / "benchmarks" / "perf" / "HISTORY.jsonl"
#: The benchmark declaration: end-to-end metrics and their bounds.
BENCHMARK_PATH = ROOT / "BENCHMARK.json"


def git_sha(cwd: str | Path | None = None) -> str:
    """The current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def append_history(
    doc: dict,
    bench: str,
    history_path: str | Path | None = None,
) -> Path:
    """Append one benchmark run to the history file; returns its path.

    ``doc`` is a pipebench result line; ``bench`` names its workload
    (``"fig6-cg-64"``, ...).  The line wraps the doc with provenance —
    git sha and UTC timestamp — so regressions can be bisected without
    relying on file mtimes.
    """
    path = Path(history_path) if history_path is not None else HISTORY_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    line = {
        "bench": bench,
        "git_sha": git_sha(path.parent),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "results": doc,
    }
    with path.open("a") as fh:
        fh.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def compare_history(doc: dict, bench: str) -> tuple[list[str], bool]:
    """Compare a result line with the bench's last history entry.

    Returns the report lines and whether any end-to-end metric of the
    benchmark declaration is worse than that entry by more than its
    bound (relative change, in the metric's ``better`` direction).
    The entry is the bench's last of the same kind, plain or traced
    (module docstring).  Per-layer metrics carried by both lines
    follow, ungated.
    """
    spec = json.loads(BENCHMARK_PATH.read_text())
    layer_names = {m["name"] for m in spec.get("per_layer", [])}

    def traced(line: dict) -> bool:
        return not layer_names.isdisjoint(line.get("metrics", {}))

    kind = traced(doc)
    last = None
    if HISTORY_PATH.exists():
        for raw in HISTORY_PATH.read_text().splitlines():
            entry = json.loads(raw) if raw.strip() else {}
            if (entry.get("bench") == bench
                    and traced(entry.get("results", {})) == kind):
                last = entry
    if last is None:
        return [f"{bench}: no history entry to compare with "
                f"({'traced' if kind else 'plain'} runs)"], False
    lines = [f"{bench}: against {last.get('git_sha', '?')[:12]} "
             f"({last.get('timestamp', '?')})",
             f"  {'metric':<12} {'last':>12} {'now':>12} {'change':>8} "
             f"{'bound':>6}"]
    worse = False
    old, new = last["results"].get("metrics", {}), doc.get("metrics", {})
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if name not in old or name not in new:
            lines.append(f"  {name:<12} missing")
            continue
        a, b = old[name]["value"], new[name]["value"]
        change = (b - a) / a
        loss = change if metric["better"] == "lower" else -change
        verdict = ""
        if loss > bound:
            worse = True
            verdict = "  WORSE"
        lines.append(f"  {name:<12} {a:>12.4g} {b:>12.4g} {change:>+8.1%} "
                     f"{bound:>6.0%}  {metric['unit']}{verdict}")
    layers = [m for m in spec.get("per_layer", [])
              if m["name"] in old and m["name"] in new]
    if layers:
        width = max(len(m["name"]) for m in layers)
        lines.append(f"  {'per-layer (no bound)':<{width}} {'last':>12} "
                     f"{'now':>12} {'change':>8}")
        for metric in layers:
            name = metric["name"]
            a, b = old[name]["value"], new[name]["value"]
            change = f"{(b - a) / a:>+8.1%}" if a else f"{'n/a':>8}"
            lines.append(f"  {name:<{width}} {a:>12.4g} {b:>12.4g} "
                         f"{change}  {metric['unit']}")
    return lines, worse


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 0 if args else 2
    if args[0] == "--compare":
        if len(args) == 1:
            print(__doc__, file=sys.stderr)
            return 2
        worse = False
        for snapshot in args[1:]:
            p = Path(snapshot)
            lines, bad = compare_history(json.loads(p.read_text()), p.stem)
            print("\n".join(lines))
            worse |= bad
        return 1 if worse else 0
    for snapshot in args:
        p = Path(snapshot)
        out = append_history(json.loads(p.read_text()), bench=p.stem)
        print(f"appended {p.name} ({p.stem}) -> {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
