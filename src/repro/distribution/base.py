"""Distribution interface and load-analysis helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

import numpy as np

__all__ = ["Distribution", "square_grid", "load_per_process"]


class Distribution(ABC):
    """Maps lower-triangle tile coordinates to an owning process.

    Only the lower triangle ``m >= k`` is addressed (symmetric
    storage).  Implementations must be pure functions of ``(m, k)`` so
    every process can evaluate ownership without communication —
    the property PaRSEC relies on to derive communication implicitly.
    """

    #: total number of processes
    nproc: int

    @abstractmethod
    def owner(self, m: int, k: int) -> int:
        """Owning process of tile ``(m, k)``, in ``[0, nproc)``."""

    def owner_vec(self, m: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner` (subclasses override with modular
        arithmetic; this fallback loops)."""
        m = np.asarray(m)
        k = np.asarray(k)
        return np.fromiter(
            (self.owner(int(mm), int(kk)) for mm, kk in zip(m, k)),
            dtype=np.int64,
            count=len(m),
        )

    def column_group(self, k: int, n_tiles: int) -> set[int]:
        """Processes owning tiles of panel column ``k`` (rows ``>= k``).

        This is the set spanned by the two column broadcasts (POTRF →
        TRSMs and TRSM → GEMMs in a column, Section VII-B).
        """
        return {self.owner(m, k) for m in range(k, n_tiles)}


def square_grid(nproc: int) -> tuple[int, int]:
    """Process grid ``P x Q = nproc`` "as square as possible", P <= Q.

    The paper's rule for the off-band execution grid (Sec. VIII-A).
    """
    if nproc <= 0:
        raise ValueError(f"nproc must be positive, got {nproc}")
    p = int(np.sqrt(nproc))
    while nproc % p != 0:
        p -= 1
    return p, nproc // p


def load_per_process(
    dist: Distribution,
    n_tiles: int,
    weight: Callable[[int, int], float] | None = None,
) -> np.ndarray:
    """Total (weighted) tile load per process over the lower triangle.

    ``weight(m, k)`` defaults to 1 (tile count); pass a flop or rank
    estimate to measure the computational balance the diamond
    distribution targets.
    """
    load = np.zeros(dist.nproc, dtype=np.float64)
    for k in range(n_tiles):
        for m in range(k, n_tiles):
            w = 1.0 if weight is None else float(weight(m, k))
            load[dist.owner(m, k)] += w
    return load
