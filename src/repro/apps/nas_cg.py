"""NAS CG skeleton: conjugate gradient (class B).

NPB-CG partitions the sparse matrix over a 2-D process grid; every CG
iteration computes a local sparse matrix-vector product and then sums
the partial results across each process row with a sequence of
pairwise exchanges, finishing with an exchange against the transpose
partner, plus two scalar dot-product reductions.

CG is the one application of the pool whose *real* patterns already
gain from overlap (paper Figure 4: ~8 % at 4 processes): the partial
``q = A.p`` vector is produced almost linearly through the matvec
(3.98 % / 27.98 % / 51.99 % — Table II(a)), and consumption advances
nearly linearly too (2.2 % / 18.4 % / 34.5 %).
"""

from __future__ import annotations

import numpy as np

from ..smpi.api import Comm
from .base import Application
from .patterns import consumption_batches, production_batches, scalar_at

__all__ = ["NasCG"]

#: Paper Table II rows for NAS-CG.
PRODUCTION_ANCHORS = [(0.0, 0.0398), (0.25, 0.2798), (0.50, 0.5199), (1.0, 0.9997)]
CONSUMPTION_ANCHORS = [(0.0, 0.02175), (0.25, 0.1835), (0.50, 0.3453), (1.0, 0.69)]


class NasCG(Application):
    """Conjugate-gradient skeleton on a 2-D process grid.

    Parameters
    ----------
    n:
        Global vector length (class B: 75000).
    iterations:
        CG iterations (the paper's Figure 4 view shows five).
    nonzeros_per_row:
        Sparsity (compute grain of the matvec).
    work_per_nonzero:
        Instructions per nonzero per matvec.
    """

    name = "cg"

    def __init__(
        self,
        n: int = 75000,
        iterations: int = 5,
        nonzeros_per_row: int = 13,
        work_per_nonzero: int = 25,
    ):
        if min(n, iterations, nonzeros_per_row, work_per_nonzero) < 1:
            raise ValueError("all CG parameters must be >= 1")
        self.n = n
        self.iterations = iterations
        self.nonzeros_per_row = nonzeros_per_row
        self.work_per_nonzero = work_per_nonzero

    @staticmethod
    def _grid(size: int) -> tuple[int, int]:
        """NPB CG layout: npcols = 2*nprows for non-square powers of two."""
        import math
        lg = int(math.log2(size)) if size & (size - 1) == 0 else None
        if lg is not None:
            nprows = 1 << (lg // 2)
            npcols = size // nprows
            return nprows, npcols
        from .base import grid_2d
        return grid_2d(size)

    def __call__(self, comm: Comm) -> dict:
        size, rank = comm.size, comm.rank
        nprows, npcols = self._grid(size)
        row, col = rank // npcols, rank % npcols
        # NPB-CG communicates the row sums within row communicators.
        row_comm = comm.split(color=row, key=col)

        seg = max(1, self.n // npcols)           # columns owned per rank
        q_part = np.zeros(seg)                    # partial matvec result
        q_sum = np.zeros(seg)                     # row-summed exchange buffer
        p_new = np.zeros(seg)                     # next direction vector
        dot_s, dot_r = np.zeros(1), np.zeros(1)
        rho_s, rho_r = np.zeros(1), np.zeros(1)

        rows_local = max(1, self.n // nprows)
        matvec_work = int(rows_local // npcols * self.nonzeros_per_row
                          * self.work_per_nonzero * npcols)
        vec_work = int(seg * 12)

        prod = production_batches(seg, PRODUCTION_ANCHORS)
        cons = consumption_batches(seg, CONSUMPTION_ANCHORS)
        # Scalar operands: whole-buffer batches (offsets None).
        produce, consume = scalar_at(0.97), scalar_at(0.02)

        # Transpose partner (exchange_proc of NPB-CG).
        t_row = col % nprows
        t_col = row + (col // nprows) * nprows
        transpose = t_row * npcols + t_col

        loads: list = []
        for it in range(self.iterations):
            comm.event("iteration", it)
            # Local matvec: q_part produced near-linearly (Table II).
            comm.compute(
                matvec_work, loads=loads,
                stores=[(q_part, o, a) for o, a in prod],
            )
            loads = []
            # Row reduction: pairwise exchanges across the process row
            # (XOR partners when the row is a power of two, as in NPB),
            # carried by the row communicator.
            if npcols & (npcols - 1) == 0:
                dists = [npcols >> (k + 1) for k in range(npcols.bit_length() - 1)]
                partners = [col ^ d for d in dists if d >= 1]
            else:
                partners = [(col + k) % npcols for k in range(1, npcols)]
            for partner in partners:
                req = row_comm.Irecv(q_sum, partner, tag=11)
                row_comm.send(q_part, partner, tag=11)
                row_comm.wait(req)
                comm.compute(
                    vec_work,
                    loads=[(q_sum, o, a) for o, a in cons],
                    stores=[(q_part, o, a) for o, a in prod],
                )
            # Transpose exchange delivers the summed vector segment.
            if transpose != rank:
                req = comm.Irecv(p_new, transpose, tag=12)
                comm.send(q_part, transpose, tag=12)
                comm.wait(req)
                loads += [(p_new, o, a) for o, a in cons]
            # Two scalar reductions: rho and the step dot product.
            comm.compute(vec_work, loads=loads,
                         stores=[(dot_s, None, produce)])
            loads = []
            comm.Allreduce(dot_s, dot_r)
            comm.compute(vec_work,
                         loads=[(dot_r, None, consume)],
                         stores=[(rho_s, None, produce)])
            comm.Allreduce(rho_s, rho_r)
            loads = [(rho_r, None, consume)]
        return {"segment": seg, "grid": (nprows, npcols), "transpose": transpose}
