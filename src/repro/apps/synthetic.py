"""A parameterized synthetic application: a generic 2-D halo exchange.

Its communication structure is the classic four-neighbour stencil and
its access anchors are constructor arguments, so a script can dial in
any production/consumption pattern and watch the pipeline's response
(the README's and ``examples/quickstart.py``'s first run).
"""

from __future__ import annotations

import numpy as np

from ..smpi.api import Comm
from .base import Application, grid_2d
from .patterns import consumption_batches, production_batches

__all__ = ["HaloExchange2D"]

_LINEAR = [(0.0, 0.0), (1.0, 1.0)]


class HaloExchange2D(Application):
    """Four-neighbour halo exchange on a 2-D grid (generic stencil)."""

    name = "halo2d"
    default_nranks = 16

    def __init__(
        self,
        edge_elements: int = 512,
        work: int = 2_000_000,
        iterations: int = 4,
        production_anchors: list | None = None,
        consumption_anchors: list | None = None,
    ):
        if edge_elements < 1 or work < 0 or iterations < 1:
            raise ValueError("invalid HaloExchange2D parameters")
        self.edge_elements = edge_elements
        self.work = work
        self.iterations = iterations
        self.production_anchors = production_anchors or _LINEAR
        self.consumption_anchors = consumption_anchors or _LINEAR

    def __call__(self, comm: Comm):
        px, py = grid_2d(comm.size)
        cx, cy = comm.rank % px, comm.rank // px
        nbrs = {}
        for tag, (dx, dy) in enumerate(((1, 0), (-1, 0), (0, 1), (0, -1))):
            x, y = cx + dx, cy + dy
            if 0 <= x < px and 0 <= y < py:
                nbrs[tag] = y * px + x
        sbufs = {t: np.zeros(self.edge_elements) for t in nbrs}
        rbufs = {t: np.zeros(self.edge_elements) for t in nbrs}
        prod = production_batches(self.edge_elements, self.production_anchors)
        cons = consumption_batches(self.edge_elements, self.consumption_anchors)
        opp = {0: 1, 1: 0, 2: 3, 3: 2}

        loads: list = []
        for it in range(self.iterations):
            comm.event("iteration", it)
            stores = [(sbufs[t], o, a) for t in nbrs for o, a in prod]
            comm.compute(self.work, loads=loads, stores=stores)
            reqs = [comm.Irecv(rbufs[t], nbrs[t], tag=opp[t]) for t in nbrs]
            for t, peer in nbrs.items():
                comm.send(sbufs[t], peer, tag=t)
            comm.waitall(reqs)
            loads = [(rbufs[t], o, a) for t in nbrs for o, a in cons]
        comm.compute(self.work // 2, loads=loads)
        return True
