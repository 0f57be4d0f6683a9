"""Lorapo's hybrid 1D + 2D block-cyclic distribution (Fig. 3b).

Diagonal tiles — which stay dense and carry most of the flops after
compression — are spread 1D-cyclically over *all* processes, while
off-diagonal tiles use the standard 2DBCDD.  This balances the
dense-diagonal workload without giving up the 2D communication
pattern off the diagonal (Cao et al., PASC'20).
"""

from __future__ import annotations

from repro.distribution.base import Distribution
from repro.distribution.block_cyclic import OneDBlockCyclic, TwoDBlockCyclic

__all__ = ["HybridDistribution"]


class HybridDistribution(Distribution):
    """1DBCDD on the diagonal band, 2DBCDD elsewhere.

    Parameters
    ----------
    p, q:
        Off-diagonal process grid (``nproc = p * q``).
    band_width:
        Tiles with ``m - k < band_width`` use the 1D distribution
        (Lorapo: 1, i.e. the diagonal only).
    """

    def __init__(self, p: int, q: int, band_width: int = 1) -> None:
        if band_width < 1:
            raise ValueError(f"band_width must be >= 1, got {band_width}")
        self._two_d = TwoDBlockCyclic(p, q)
        self._one_d = OneDBlockCyclic(p * q)
        self.p = self._two_d.p
        self.q = self._two_d.q
        self.nproc = self._two_d.nproc
        self.band_width = int(band_width)

    def owner(self, m: int, k: int) -> int:
        if k > m or k < 0:
            raise IndexError(f"tile ({m}, {k}) outside lower triangle")
        if m - k < self.band_width:
            return self._one_d.owner(m, k)
        return self._two_d.owner(m, k)

    def owner_vec(self, m, k):
        import numpy as np

        m = np.asarray(m, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        two_d = self._two_d.owner_vec(m, k)
        return np.where((m - k) < self.band_width, k % self.nproc, two_d)
