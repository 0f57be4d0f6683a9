"""HiCMA-PaRSEC — the paper's full framework.

On top of the TLR kernels this configuration enables the two runtime
optimizations of Sections VI and VII:

1. **Dynamic DAG trimming** — Algorithm 1 analyzes the compressed
   matrix and the task graph is enumerated only over symbolically
   non-zero tiles.
2. **Band + rank-aware diamond execution mapping** — data stays in the
   user's original 2DBCDD; execution is remapped so the critical-path
   TRSM runs on the POTRF owner (band, Fig. 3c) and off-band tiles
   follow the diamond-shaped skew (Fig. 3d), breaking owner-computes
   transparently.

The numeric entry point runs the trimmed graph in-process; the
:data:`HICMA_PARSEC` config carries the full setup into the
distributed simulator.  Intermediate configs (`BAND_ONLY`,
`TRIM_ONLY`) support the incremental-optimization figures (Figs. 7
and 13).
"""

from __future__ import annotations

from repro.core.lorapo import FrameworkConfig
from repro.core.tlr_cholesky import FactorizationResult, tlr_cholesky
from repro.distribution import (
    BandDistribution,
    DiamondDistribution,
    Distribution,
    TwoDBlockCyclic,
    square_grid,
)
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.scheduler import Scheduler

__all__ = [
    "hicma_parsec_factorize",
    "HICMA_PARSEC",
    "TRIM_ONLY",
    "BAND_ONLY",
    "BAND_DIAMOND",
]


def _two_d(nproc: int) -> Distribution:
    p, q = square_grid(nproc)
    return TwoDBlockCyclic(p, q)


def _band_over_2d(nproc: int) -> Distribution:
    p, q = square_grid(nproc)
    return BandDistribution(TwoDBlockCyclic(p, q))


def _band_over_diamond(nproc: int) -> Distribution:
    p, q = square_grid(nproc)
    return BandDistribution(DiamondDistribution(p, q))


#: Trimming only (owner-computes on the user's 2DBCDD) — the first
#: incremental step in Figs. 7/13.
TRIM_ONLY = FrameworkConfig(
    name="HiCMA-PaRSEC (trim)",
    trim=True,
    data_distribution=_two_d,
    exec_distribution=None,
)

#: Trimming + band execution mapping (Sec. VII-A).
BAND_ONLY = FrameworkConfig(
    name="HiCMA-PaRSEC (trim+band)",
    trim=True,
    data_distribution=_two_d,
    exec_distribution=_band_over_2d,
)

#: Trimming + band + diamond execution mapping (Sec. VII-B).
BAND_DIAMOND = FrameworkConfig(
    name="HiCMA-PaRSEC (trim+band+diamond)",
    trim=True,
    data_distribution=_two_d,
    exec_distribution=_band_over_diamond,
)

#: The complete framework (alias of BAND_DIAMOND).
HICMA_PARSEC = FrameworkConfig(
    name="HiCMA-PaRSEC",
    trim=True,
    data_distribution=_two_d,
    exec_distribution=_band_over_diamond,
)


def hicma_parsec_factorize(
    a: TLRMatrix,
    scheduler: Scheduler | None = None,
    workers: int | None = None,
    shift_policy=None,
    engine: str | None = None,
) -> FactorizationResult:
    """Numeric HiCMA-PaRSEC factorization: trimmed DAG.

    ``shift_policy`` enables escalating-diagonal-shift degradation for
    borderline-SPD operators (see :func:`tlr_cholesky`); ``engine``
    selects the executor (threads / serial).
    """
    return tlr_cholesky(
        a,
        trim=True,
        scheduler=scheduler,
        workers=workers,
        shift_policy=shift_policy,
        engine=engine,
    )
