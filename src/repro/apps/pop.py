"""POP skeleton: Parallel Ocean Program.

POP (paper input ``test``, 192x128x20 grid) alternates two phases per
timestep on a 2-D domain decomposition:

* **baroclinic** — a large local 3-D computation followed by a
  four-neighbour halo exchange of multi-field boundary strips;
* **barotropic** — an iterative 2-D implicit solver: every inner
  iteration does a thin halo exchange plus a global residual
  reduction.

Measured patterns (Table II / Fig. 5(c)): halo data is produced very
late (95.5 % of the interval), and consumption starts after a short
stretch of *independent work* (~3.5 %) after which everything is
needed at once (the copy-in spike visible in Figure 5(c)).
"""

from __future__ import annotations

import numpy as np

from ..smpi.api import Comm
from .base import Application, grid_2d
from .patterns import consumption_batches, production_batches, scalar_at

__all__ = ["POP"]

#: Paper Table II rows for POP.
PRODUCTION_ANCHORS = [(0.0, 0.955), (0.25, 0.9662), (0.50, 0.9775), (1.0, 0.9999)]
CONSUMPTION_ANCHORS = [(0.0, 0.03525), (0.25, 0.0353), (0.50, 0.03534), (1.0, 0.04)]


class POP(Application):
    """Ocean-model skeleton (halo exchange + reduction solver).

    Parameters
    ----------
    nx, ny, nz:
        Global grid (paper: 192 x 128 x 20).
    steps:
        Timesteps to run.
    solver_iters:
        Barotropic inner iterations per step.
    fields:
        Number of prognostic fields exchanged in the baroclinic halo.
    work_per_point:
        Instructions per grid point per step (baroclinic grain).
    """

    name = "pop"

    def __init__(
        self,
        nx: int = 192,
        ny: int = 128,
        nz: int = 20,
        steps: int = 3,
        solver_iters: int = 4,
        fields: int = 3,
        work_per_point: int = 18,
    ):
        if min(nx, ny, nz, steps, solver_iters, fields, work_per_point) < 1:
            raise ValueError("all POP parameters must be >= 1")
        self.nx, self.ny, self.nz = nx, ny, nz
        self.steps = steps
        self.solver_iters = solver_iters
        self.fields = fields
        self.work_per_point = work_per_point

    def __call__(self, comm: Comm) -> dict:
        px, py = grid_2d(comm.size)
        cx, cy = comm.rank % px, comm.rank // px
        nx_l = max(1, self.nx // px)
        ny_l = max(1, self.ny // py)

        def nbr(dx: int, dy: int) -> int | None:
            x, y = cx + dx, cy + dy
            return y * px + x if 0 <= x < px and 0 <= y < py else None

        neighbors = {
            "e": (nbr(+1, 0), ny_l), "w": (nbr(-1, 0), ny_l),
            "n": (nbr(0, +1), nx_l), "s": (nbr(0, -1), nx_l),
        }
        sbufs = {
            d: np.zeros(edge * self.nz * self.fields)
            for d, (r, edge) in neighbors.items() if r is not None
        }
        rbufs = {d: np.zeros_like(b) for d, b in sbufs.items()}
        solver_sbufs = {
            d: np.zeros(edge) for d, (r, edge) in neighbors.items() if r is not None
        }
        solver_rbufs = {d: np.zeros_like(b) for d, b in solver_sbufs.items()}
        resid_s, resid_r = np.zeros(1), np.zeros(1)

        baroclinic_work = int(nx_l * ny_l * self.nz * self.work_per_point)
        solver_work = int(nx_l * ny_l * max(2, self.work_per_point // 6))
        opposite = {"e": "w", "w": "e", "n": "s", "s": "n"}
        tags = {"e": 0, "w": 1, "n": 2, "s": 3}

        def exchange(sb: dict, rb: dict) -> None:
            """Halo exchange in the deadlock-free Irecv/Send/Waitall idiom."""
            reqs = [
                comm.Irecv(buf, neighbors[d][0], tag=tags[opposite[d]])
                for d, buf in rb.items()
            ]
            for d, buf in sb.items():
                comm.send(buf, neighbors[d][0], tag=tags[d])
            comm.waitall(reqs)

        # The access batches are the same every step: build them once.
        # Baroclinic: a big burst producing the halo strips late; the
        # halos are consumed inside the next burst (independent work
        # first, then the copy-in spike).
        halo_stores = [
            (buf, o, a)
            for buf in sbufs.values()
            for o, a in production_batches(buf.size, PRODUCTION_ANCHORS, revisits=2)
        ]
        halo_loads = [
            (buf, o, a)
            for buf in rbufs.values()
            for o, a in consumption_batches(buf.size, CONSUMPTION_ANCHORS, rereads=1)
        ]
        # Barotropic solver: thin strips plus the residual scalar.
        solver_stores = [
            (buf, o, a)
            for buf in solver_sbufs.values()
            for o, a in production_batches(buf.size, PRODUCTION_ANCHORS)
        ] + [(resid_s, None, scalar_at(0.97))]
        solver_loads = [
            (buf, o, a)
            for buf in solver_rbufs.values()
            for o, a in consumption_batches(buf.size, CONSUMPTION_ANCHORS)
        ] + [(resid_r, None, scalar_at(0.01))]

        for step in range(self.steps):
            comm.event("iteration", step)
            comm.compute(baroclinic_work, stores=halo_stores)
            exchange(sbufs, rbufs)
            loads = halo_loads
            # Barotropic solver iterations.
            for _ in range(self.solver_iters):
                comm.compute(solver_work, loads=loads, stores=solver_stores)
                exchange(solver_sbufs, solver_rbufs)
                comm.Allreduce(resid_s, resid_r)
                loads = solver_loads
            comm.compute(solver_work, loads=loads)
        return {"halo_elements": {d: int(b.size) for d, b in sbufs.items()}}
