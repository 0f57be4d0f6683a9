"""Tile-to-process data distributions (paper Fig. 3).

* :class:`TwoDBlockCyclic` — ScaLAPACK 2DBCDD (Fig. 3a)
* :class:`OneDBlockCyclic` — 1D cyclic over all processes
* :class:`HybridDistribution` — Lorapo's 1D+2D hybrid (Fig. 3b)
* :class:`BandDistribution` — diagonal + subdiagonal pinned to the
  POTRF owner to localize the critical-path TRSM (Fig. 3c)
* :class:`DiamondDistribution` — rank-aware diamond-shaped skew of
  2DBCDD for off-band load balance (Fig. 3d)
"""

from repro.distribution.base import Distribution, load_per_process, square_grid
from repro.distribution.block_cyclic import OneDBlockCyclic, TwoDBlockCyclic
from repro.distribution.hybrid import HybridDistribution
from repro.distribution.band import BandDistribution
from repro.distribution.diamond import DiamondDistribution
from repro.distribution.ascii_art import owner_map_ascii

__all__ = [
    "Distribution",
    "square_grid",
    "load_per_process",
    "TwoDBlockCyclic",
    "OneDBlockCyclic",
    "HybridDistribution",
    "BandDistribution",
    "DiamondDistribution",
    "owner_map_ascii",
]
