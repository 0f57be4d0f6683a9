"""Tile low-rank linear algebra — the HiCMA substrate.

Dense tiles, low-rank ``U Vᵀ`` tiles and null tiles; compression and
recompression; and the four tile kernels of TLR Cholesky
(POTRF / TRSM / SYRK / GEMM) in dense and TLR variants.
"""

from repro.linalg.lowrank import (
    CompressionStats,
    LowRankFactor,
    compress_block,
    derive_tile_seed,
    randomized_compress,
    recompress,
    truncated_svd,
)
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile, TileKind
from repro.linalg.tile_matrix import TLRMatrix
from repro.linalg.matvec import RefinementResult, refine_solve, tlr_matvec
from repro.linalg import flops
from repro.linalg import kernels_dense
from repro.linalg import kernels_tlr

__all__ = [
    "LowRankFactor",
    "truncated_svd",
    "compress_block",
    "recompress",
    "CompressionStats",
    "derive_tile_seed",
    "randomized_compress",
    "Tile",
    "TileKind",
    "DenseTile",
    "LowRankTile",
    "NullTile",
    "TLRMatrix",
    "tlr_matvec",
    "refine_solve",
    "RefinementResult",
    "flops",
    "kernels_dense",
    "kernels_tlr",
]
