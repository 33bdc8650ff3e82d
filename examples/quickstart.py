#!/usr/bin/env python
"""Quickstart: trace -> overlap -> simulate -> compare, in 60 lines.

Runs a small halo-exchange application under the tracer (the
framework's Valgrind stage), derives the overlapped execution
automatically (no application changes — the paper's headline feature),
replays both on a configurable platform (the Dimemas stage), and
prints the Paraver-style comparison.

    python examples/quickstart.py
"""

from repro.apps import HaloExchange2D
from repro.core import overlap_transform
from repro.dimemas import MachineConfig, simulate
from repro.paraver import compare

# 1. A 16-rank stencil code whose boundary data is produced late in
#    each step (80 %+) and consumed early — decent overlap potential.
app = HaloExchange2D(
    edge_elements=2048,
    work=4_000_000,
    iterations=4,
    production_anchors=[(0.0, 0.5), (1.0, 1.0)],
    consumption_anchors=[(0.0, 0.1), (1.0, 0.8)],
)

# 2. Trace it (one simulated Valgrind VM per rank).
run = app.trace(nranks=16)
trace = run.trace
print(f"traced {trace.nranks} ranks: {trace.total_records()} records, "
      f"{trace.total_virtual_compute() * 1e3:.2f} ms of computation")

# 3. Apply the automatic overlap transformation: message chunking,
#    advancing sends, double buffering, post-postponed receptions.
#    The new trace comes back as packed columns, the form the replay
#    reads; overlapped.to_traceset() gives its record objects.
overlapped, stats = overlap_transform(trace, chunks=4)
print(f"transformed {stats.messages_transformed}/{stats.messages_total} "
      f"messages; {stats.sends_advanced} chunk sends advanced, "
      f"{stats.waits_postponed} waits postponed")

# 4. Reconstruct both time-behaviours on a Myrinet-class platform.
machine = MachineConfig(bandwidth_mbps=250.0, latency=8e-6, buses=8)
original = simulate(trace, machine)
better = simulate(overlapped, machine)

# 5. Inspect the difference the way the paper does with Paraver.
print()
print(compare(original, better).report(width=100))
