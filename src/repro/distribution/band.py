"""Band distribution: localize the critical-path TRSM (Fig. 3c).

Section VII-A: the critical path of TLR Cholesky repeats POTRF(k) →
TRSM(k+1, k) → SYRK(k+1, k).  Binding the subdiagonal tile to the
*same process* as the diagonal tile turns the expensive POTRF→TRSM
dependency (a dense-tile transfer between remote nodes) into a local
memory access.  The diagonal and subdiagonal therefore share one
process pattern (1D cyclic by panel); all other tiles fall back to the
wrapped off-band distribution.
"""

from __future__ import annotations

from repro.distribution.base import Distribution
from repro.distribution.block_cyclic import OneDBlockCyclic, TwoDBlockCyclic

__all__ = ["BandDistribution"]


class BandDistribution(Distribution):
    """Diagonal + subdiagonal pinned per-panel; off-band delegated.

    Parameters
    ----------
    off_band:
        Distribution used for tiles with ``m - k > 1`` (typically
        :class:`TwoDBlockCyclic` or :class:`DiamondDistribution`).
    """

    def __init__(self, off_band: Distribution) -> None:
        self.off_band = off_band
        self.nproc = off_band.nproc
        self._one_d = OneDBlockCyclic(self.nproc)

    def owner(self, m: int, k: int) -> int:
        if k > m or k < 0:
            raise IndexError(f"tile ({m}, {k}) outside lower triangle")
        if m - k <= 1:
            # Same affinity for POTRF(k), TRSM(k+1,k) and SYRK -> the
            # critical-path chain of panel k runs on one process.
            return self._one_d.owner(k, k)
        return self.off_band.owner(m, k)

    def owner_vec(self, m, k):
        import numpy as np

        m = np.asarray(m, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        out = self.off_band.owner_vec(m, k)
        in_band = (m - k) <= 1
        if np.any(in_band):
            out = np.where(in_band, k % self.nproc, out)
        return out

    @classmethod
    def over_2d(cls, p: int, q: int) -> "BandDistribution":
        """Band over a plain 2DBCDD off-band grid."""
        return cls(TwoDBlockCyclic(p, q))
