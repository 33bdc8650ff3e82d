"""Alya (NASTIN module) skeleton: incompressible Navier-Stokes.

Alya's instrumented kernel (paper §IV/§V) is dominated by its
iterative solver: *"the instrumented kernel of Alya communicates
mainly using MPI reduction collectives of length of one element"* —
dot products and convergence checks in the Krylov loop — plus sparse
neighbour exchanges during assembly.  One-element reductions cannot be
chunked (Table II note), so Alya is the pool's overlap-resistant
member: only whole-message advancing (98.8 % production point) and a
sliver of postponable independent work (0.4 %) remain.
"""

from __future__ import annotations

import numpy as np

from ..smpi.api import Comm
from .base import Application
from .patterns import consumption_batches, production_batches, scalar_at

__all__ = ["Alya"]

#: Paper Table II entries for Alya (single-element transfers).
PRODUCTION_POINT = 0.988
CONSUMPTION_POINT = 0.004

#: Halo patterns for the assembly exchange (not tabulated in the paper;
#: modelled like the other unstructured code, SPECFEM3D).
HALO_PRODUCTION = [(0.0, 0.953), (0.25, 0.9648), (0.50, 0.9765), (1.0, 0.9887)]
HALO_CONSUMPTION = [(0.0, 0.004), (0.25, 0.0042), (0.50, 0.0044), (1.0, 0.006)]


class Alya(Application):
    """Multi-physics FEM skeleton (assembly + scalar-reduction solver).

    Parameters
    ----------
    dofs_per_rank:
        Local degrees of freedom (sets compute grain).
    interface_elems:
        Elements shared with each mesh neighbour (halo message size).
    neighbors:
        Mesh neighbours per rank (ring distance 1..neighbors/2).
    iterations:
        Outer (time/linearization) steps.
    krylov_iters:
        Solver iterations per step — each does two one-element
        allreduces (dot product + norm).
    work_per_dof:
        Instructions per DOF per assembly.
    """

    name = "alya"

    def __init__(
        self,
        dofs_per_rank: int = 4000,
        interface_elems: int = 160,
        neighbors: int = 2,
        iterations: int = 3,
        krylov_iters: int = 8,
        work_per_dof: int = 55,
    ):
        if min(dofs_per_rank, interface_elems, neighbors,
               iterations, krylov_iters, work_per_dof) < 1:
            raise ValueError("all Alya parameters must be >= 1")
        self.dofs_per_rank = dofs_per_rank
        self.interface_elems = interface_elems
        self.neighbors = neighbors
        self.iterations = iterations
        self.krylov_iters = krylov_iters
        self.work_per_dof = work_per_dof

    def __call__(self, comm: Comm) -> dict:
        size, rank = comm.size, comm.rank
        nnbr = min(self.neighbors, max(size - 1, 0))
        dists = [d for k in range(1, nnbr + 1) for d in ((k + 1) // 2 * (-1) ** k,)]
        peers = sorted({(rank + d) % size for d in dists} - {rank}) if size > 1 else []

        sbufs = {p: np.zeros(self.interface_elems) for p in peers}
        rbufs = {p: np.zeros(self.interface_elems) for p in peers}
        dot_s, dot_r = np.zeros(1), np.zeros(1)
        nrm_s, nrm_r = np.zeros(1), np.zeros(1)

        assembly_work = int(self.dofs_per_rank * self.work_per_dof)
        spmv_work = int(self.dofs_per_rank * max(4, self.work_per_dof // 8))
        # One-element operands: whole-buffer batches (offsets None).
        produce, consume = scalar_at(PRODUCTION_POINT), scalar_at(CONSUMPTION_POINT)
        # The halo batches are the same every iteration: build them once.
        halo_stores = [
            (b, o, a)
            for b in sbufs.values()
            for o, a in production_batches(b.size, HALO_PRODUCTION, revisits=2)
        ]
        halo_loads = [
            (b, o, a)
            for b in rbufs.values()
            for o, a in consumption_batches(b.size, HALO_CONSUMPTION)
        ]

        for it in range(self.iterations):
            comm.event("iteration", it)
            # Assembly: produce interface contributions late in the burst.
            comm.compute(assembly_work, stores=halo_stores)
            reqs = [comm.Irecv(b, p, tag=7) for p, b in rbufs.items()]
            for p, b in sbufs.items():
                comm.send(b, p, tag=7)
            comm.waitall(reqs)
            loads = halo_loads
            # Krylov loop: the paper's dominant communication — scalar
            # allreduces whose operand is produced at 98.8 % of the
            # preceding burst and consumed 0.4 % into the next.
            for _k in range(self.krylov_iters):
                comm.compute(
                    spmv_work,
                    loads=loads,
                    stores=[(dot_s, None, produce)],
                )
                loads = []
                comm.Allreduce(dot_s, dot_r)
                comm.compute(
                    spmv_work,
                    loads=[(dot_r, None, consume)],
                    stores=[(nrm_s, None, produce)],
                )
                comm.Allreduce(nrm_s, nrm_r)
                loads = [(nrm_r, None, consume)]
        return {"peers": peers, "reductions": 2 * self.iterations * self.krylov_iters}
