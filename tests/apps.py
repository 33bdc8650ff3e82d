"""Synthetic applications for the test suite.

Small, fully-controllable codes: their communication structure and
access anchors are constructor arguments, so a test can dial in any
production/consumption pattern and check the pipeline's response
(e.g. "a perfectly linear producer must show ideal-level speedup").
:class:`RandomSparse` runs an exchange-compute loop over a seeded
random neighbour graph, for properties that must hold whatever the
topology.  None of them is in the :data:`repro.apps.APPS` pool.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.apps.base import Application
from repro.apps.patterns import consumption_batches, production_batches
from repro.smpi.api import Comm

_LINEAR = [(0.0, 0.0), (1.0, 1.0)]


class Pipeline1D(Application):
    """A chain of ranks: compute, forward a buffer, repeat.

    The minimal wavefront: rank r receives from r-1, computes
    (producing its outgoing buffer per the anchors), sends to r+1.
    """

    name = "pipeline1d"
    default_nranks = 8

    def __init__(
        self,
        elements: int = 1000,
        work: int = 1_000_000,
        iterations: int = 4,
        production_anchors: list | None = None,
        consumption_anchors: list | None = None,
        revisits: int = 0,
    ):
        if elements < 1 or work < 0 or iterations < 1:
            raise ValueError("invalid Pipeline1D parameters")
        self.elements = elements
        self.work = work
        self.iterations = iterations
        self.production_anchors = production_anchors or _LINEAR
        self.consumption_anchors = consumption_anchors or _LINEAR
        self.revisits = revisits

    def __call__(self, comm: Comm):
        r, s = comm.rank, comm.size
        out = np.zeros(self.elements)
        inbox = np.zeros(self.elements)
        prod = production_batches(self.elements, self.production_anchors, self.revisits)
        cons = consumption_batches(self.elements, self.consumption_anchors)
        loads: list = []
        for it in range(self.iterations):
            comm.event("iteration", it)
            if r > 0:
                comm.Recv(inbox, r - 1, tag=0)
                loads = [(inbox, o, a) for o, a in cons]
            stores = [(out, o, a) for o, a in prod] if r < s - 1 else []
            comm.compute(self.work, loads=loads, stores=stores)
            loads = []
            if r < s - 1:
                comm.send(out, r + 1, tag=0)
        return True


class ReduceLoop(Application):
    """Alya-style loop of one-element reductions."""

    name = "reduceloop"
    default_nranks = 8

    def __init__(self, work: int = 500_000, iterations: int = 10,
                 produce_at: float = 0.9, consume_at: float = 0.05):
        if work < 0 or iterations < 1:
            raise ValueError("invalid ReduceLoop parameters")
        if not (0 <= produce_at <= 1 and 0 <= consume_at <= 1):
            raise ValueError("produce_at/consume_at must lie in [0, 1]")
        self.work = work
        self.iterations = iterations
        self.produce_at = produce_at
        self.consume_at = consume_at

    def __call__(self, comm: Comm):
        s_buf, r_buf = np.zeros(1), np.zeros(1)
        one = np.zeros(1, dtype=np.intp)
        loads: list = []
        for it in range(self.iterations):
            comm.event("iteration", it)
            comm.compute(self.work, loads=loads,
                         stores=[(s_buf, one, np.array([self.produce_at]))])
            comm.Allreduce(s_buf, r_buf)
            loads = [(r_buf, one, np.array([self.consume_at]))]
        return True


class PingPong(Application):
    """Two ranks bouncing one buffer — the unit test workhorse."""

    name = "pingpong"
    default_nranks = 2

    def __init__(self, elements: int = 256, work: int = 100_000,
                 rounds: int = 3):
        if elements < 1 or work < 0 or rounds < 1:
            raise ValueError("invalid PingPong parameters")
        self.elements = elements
        self.work = work
        self.rounds = rounds

    def __call__(self, comm: Comm):
        if comm.size < 2:
            raise ValueError("PingPong needs at least 2 ranks")
        if comm.rank > 1:
            return False
        buf = np.zeros(self.elements)
        offs = np.arange(self.elements, dtype=np.intp)
        for k in range(self.rounds):
            comm.event("iteration", k)
            if comm.rank == 0:
                comm.compute(self.work, stores=[(buf, offs)])
                comm.send(buf, 1, tag=k)
                comm.Recv(buf, 1, tag=k)
                comm.compute(self.work, loads=[(buf, offs)])
            else:
                comm.Recv(buf, 0, tag=k)
                comm.compute(self.work, loads=[(buf, offs)])
                comm.compute(self.work, stores=[(buf, offs)])
                comm.send(buf, 0, tag=k)
        return True


class RandomSparse(Application):
    """Exchange-compute loop over a random connected neighbour graph.

    Parameters
    ----------
    seed:
        Seeds the graph, the message sizes, and the work distribution.
    degree:
        Average vertex degree of the neighbour graph.
    iterations:
        Exchange rounds.
    min_elements / max_elements:
        Per-edge message size range (elements, doubles).
    work:
        Mean per-rank instructions per round (±50 % spread by rank).
    late_production / early_consumption:
        Anchor points of the access patterns (defaults: a typical
        unfavourable code).
    """

    name = "randomsparse"
    default_nranks = 16

    def __init__(
        self,
        seed: int = 0,
        degree: int = 3,
        iterations: int = 3,
        min_elements: int = 16,
        max_elements: int = 2048,
        work: int = 1_000_000,
        late_production: float = 0.9,
        early_consumption: float = 0.05,
    ):
        if degree < 1 or iterations < 1 or min_elements < 1:
            raise ValueError("invalid RandomSparse parameters")
        if max_elements < min_elements:
            raise ValueError("max_elements must be >= min_elements")
        if not (0 <= late_production <= 1 and 0 <= early_consumption <= 1):
            raise ValueError("pattern anchors must lie in [0, 1]")
        self.seed = seed
        self.degree = degree
        self.iterations = iterations
        self.min_elements = min_elements
        self.max_elements = max_elements
        self.work = work
        self.late_production = late_production
        self.early_consumption = early_consumption

    def topology(self, nranks: int) -> nx.Graph:
        """The (deterministic) neighbour graph used at this scale."""
        if nranks == 1:
            g = nx.Graph()
            g.add_node(0)
            return g
        edges = max(nranks - 1, (nranks * self.degree) // 2)
        g = nx.gnm_random_graph(nranks, edges, seed=self.seed)
        # ensure connectivity deterministically: chain the components
        comps = [sorted(c) for c in nx.connected_components(g)]
        for a, b in zip(comps, comps[1:]):
            g.add_edge(a[0], b[0])
        return g

    def __call__(self, comm: Comm) -> dict:
        g = self.topology(comm.size)
        rng = np.random.default_rng(self.seed)  # same stream on all ranks
        sizes = {
            tuple(sorted(e)): int(rng.integers(self.min_elements,
                                               self.max_elements + 1))
            for e in sorted(g.edges())
        }
        works = rng.integers(self.work // 2, self.work * 3 // 2 + 1,
                             size=comm.size)

        peers = sorted(g.neighbors(comm.rank))
        sbufs = {p: np.zeros(sizes[tuple(sorted((comm.rank, p)))])
                 for p in peers}
        rbufs = {p: np.zeros_like(b) for p, b in sbufs.items()}
        prod_anchors = [(0.0, self.late_production), (1.0, 1.0)]
        cons_anchors = [(0.0, self.early_consumption),
                        (1.0, min(self.early_consumption + 0.1, 1.0))]

        loads: list = []
        for it in range(self.iterations):
            comm.event("iteration", it)
            stores = [
                (b, o, a) for b in sbufs.values()
                for o, a in production_batches(b.size, prod_anchors)
            ]
            comm.compute(int(works[comm.rank]), loads=loads, stores=stores)
            reqs = [comm.Irecv(rbufs[p], p, tag=2) for p in peers]
            for p in peers:
                comm.send(sbufs[p], p, tag=2)
            comm.waitall(reqs)
            loads = [
                (b, o, a) for b in rbufs.values()
                for o, a in consumption_batches(b.size, cons_anchors)
            ]
        comm.allreduce(1.0)
        return {"degree": len(peers),
                "edges": sum(b.size for b in sbufs.values())}
