"""Rank-aware diamond-shaped data distribution (Fig. 3d, Sec. VII-B).

For 3D covariance-like operators (and drastically so for RBF), tile
rank — hence computational weight — decays with distance to the
diagonal.  Under 2DBCDD a process row owns a horizontal stripe of the
lower triangle, so stripes near the top of the matrix carry far less
work than stripes near the bottom, and within a stripe the heavy
near-diagonal tiles cluster on a few processes.

The diamond distribution skews the 2DBCDD along the diagonal: the
process *row* index cycles with the distance to the diagonal
``d = m - k``, rotated once per panel sweep so that every distance
band visits every process row:

    owner(m, k) = ((m - k + k // Q) mod P) * Q + (k mod Q)

Every process row therefore samples every rank regime — without the
rotation, the heavy first off-band distance (``d mod P`` fixed) would
pin to a single process row; with it, the band's weight spreads over
all rows as the panel index advances.  The process *column* group of a
panel stays at most ``P`` processes — as optimal as 2DBCDD for the two
column broadcasts (POTRF→TRSMs, TRSM→GEMMs).  Row process groups may
grow (up to ``P*Q``), but the row broadcast moves only a tiny low-rank
tile (Fig. 1), so the trade is favourable — precisely the argument of
Section VII-B.

The constant-owner lines run parallel to the diagonal and shift every
``Q`` columns, which draws the eponymous diamonds on the owner map.
"""

from __future__ import annotations

import numpy as np

from repro.distribution.base import Distribution
from repro.utils.validation import check_positive

__all__ = ["DiamondDistribution"]


class DiamondDistribution(Distribution):
    """Diagonal-skewed block-cyclic distribution on a ``P x Q`` grid."""

    def __init__(self, p: int, q: int) -> None:
        check_positive("p", p)
        check_positive("q", q)
        self.p = int(p)
        self.q = int(q)
        self.nproc = self.p * self.q

    def owner(self, m: int, k: int) -> int:
        if k > m or k < 0:
            raise IndexError(f"tile ({m}, {k}) outside lower triangle")
        return ((m - k + k // self.q) % self.p) * self.q + (k % self.q)

    def owner_vec(self, m, k):
        m = np.asarray(m, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        return ((m - k + k // self.q) % self.p) * self.q + (k % self.q)
