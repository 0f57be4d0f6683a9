"""Block-cyclic distributions (ScaLAPACK heritage)."""

from __future__ import annotations

from repro.distribution.base import Distribution
from repro.utils.validation import check_positive

__all__ = ["TwoDBlockCyclic", "OneDBlockCyclic"]


class TwoDBlockCyclic(Distribution):
    """Two-dimensional block-cyclic distribution (Fig. 3a).

    Tile ``(m, k)`` is owned by process ``(m mod P) * Q + (k mod Q)``
    on a ``P x Q`` grid.  Column process groups have exactly ``P``
    members; row groups exactly ``Q``.
    """

    def __init__(self, p: int, q: int) -> None:
        check_positive("p", p)
        check_positive("q", q)
        self.p = int(p)
        self.q = int(q)
        self.nproc = self.p * self.q

    def owner(self, m: int, k: int) -> int:
        if k > m or k < 0:
            raise IndexError(f"tile ({m}, {k}) outside lower triangle")
        return (m % self.p) * self.q + (k % self.q)

    def owner_vec(self, m, k):
        import numpy as np

        m = np.asarray(m, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        return (m % self.p) * self.q + (k % self.q)


class OneDBlockCyclic(Distribution):
    """One-dimensional cyclic distribution over all processes.

    Used for the diagonal band in the hybrid and band distributions:
    tile ``(m, k)`` is owned by ``k mod nproc`` (column-cyclic), so
    consecutive panels rotate over all processes.
    """

    def __init__(self, nproc: int) -> None:
        check_positive("nproc", nproc)
        self.nproc = int(nproc)

    def owner(self, m: int, k: int) -> int:
        if k > m or k < 0:
            raise IndexError(f"tile ({m}, {k}) outside lower triangle")
        return k % self.nproc

    def owner_vec(self, m, k):
        import numpy as np

        k = np.asarray(k, dtype=np.int64)
        return k % self.nproc
