"""TLR tile kernels: POTRF / TRSM / SYRK / GEMM over mixed tiles.

Each kernel accepts :class:`~repro.linalg.tile.Tile` operands in any of
the three representations (dense / low-rank / null) and returns a new
tile — this is the "mixture of data structures within a single matrix
operation" that the paper's framework supports (Section III).

Algebra for the low-rank paths (``A = Ua Va^T``, ``B = Ub Vb^T``):

* TRSM  ``A L^-T = Ua (L^-1 Va)^T``            — touches only V.
* SYRK  ``C - A A^T = C - Ua (Va^T Va) Ua^T``   — small k×k core.
* GEMM  ``A B^T = Ua (Va^T Vb) Ub^T``           — fold the core into
  the thinner side, then accumulate into C's factors and recompress.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.linalg.kernels_dense import DiagonalShiftPolicy, potrf_with_shift
from repro.linalg.lowrank import (
    CompressionPolicy,
    LowRankFactor,
    compress_block,
    randomized_recompress,
    recompress,
)
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile

__all__ = [
    "potrf_tile",
    "potrf_tile_shifted",
    "trsm_tile",
    "syrk_tile",
    "gemm_tile",
]


def potrf_tile(a_kk: Tile) -> DenseTile:
    """Cholesky of a diagonal tile (always dense in TLR Cholesky)."""
    if not isinstance(a_kk, DenseTile):
        raise TypeError(
            f"diagonal tiles must be dense for POTRF, got {a_kk.kind.value}"
        )
    try:
        l_kk = sla.cholesky(a_kk.data, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise np.linalg.LinAlgError(str(exc)) from exc
    return DenseTile(l_kk)


def potrf_tile_shifted(
    a_kk: Tile, policy: DiagonalShiftPolicy
) -> tuple[DenseTile, float]:
    """POTRF of a diagonal tile with escalating-shift degradation.

    Returns ``(L_kk, shift)``; ``shift`` is 0.0 on the normal path.
    See :func:`repro.linalg.kernels_dense.potrf_with_shift`.
    """
    if not isinstance(a_kk, DenseTile):
        raise TypeError(
            f"diagonal tiles must be dense for POTRF, got {a_kk.kind.value}"
        )
    l_kk, shift = potrf_with_shift(a_kk.data, policy)
    return DenseTile(l_kk), shift


def trsm_tile(l_kk: DenseTile, a_mk: Tile) -> Tile:
    """``A[m,k] <- A[m,k] @ L[k,k]^-T`` preserving the representation."""
    if not isinstance(l_kk, DenseTile):
        raise TypeError(f"TRSM needs a dense L factor, got {l_kk.kind.value}")
    if isinstance(a_mk, NullTile):
        return a_mk
    if isinstance(a_mk, LowRankTile):
        # (U V^T) L^-T = U (L^-1 V)^T : solve L X = V for the new V.
        # The untouched U factor is *shared* with the operand tile, not
        # copied: tiles are immutable (kernels build new tiles, never
        # mutate arrays in place), so aliasing is safe, and a copy
        # would also normalize the memory order — breaking bitwise
        # reproducibility for arena-backed (possibly F-ordered) views.
        new_v = sla.solve_triangular(
            l_kk.data, a_mk.v, lower=True, trans="N", check_finite=False
        )
        return LowRankTile(LowRankFactor(a_mk.u, new_v))
    new = sla.solve_triangular(
        l_kk.data, a_mk.data.T, lower=True, trans="N", check_finite=False
    ).T
    return DenseTile(np.ascontiguousarray(new))


def syrk_tile(c_mm: DenseTile, a_mk: Tile) -> DenseTile:
    """``C[m,m] <- C[m,m] - A[m,k] A[m,k]^T`` (diagonal stays dense)."""
    if not isinstance(c_mm, DenseTile):
        raise TypeError(f"SYRK target must be dense, got {c_mm.kind.value}")
    if isinstance(a_mk, NullTile):
        return c_mm
    if isinstance(a_mk, LowRankTile):
        w = a_mk.v.T @ a_mk.v  # k x k core
        return DenseTile(c_mm.data - (a_mk.u @ w) @ a_mk.u.T)
    return DenseTile(c_mm.data - a_mk.data @ a_mk.data.T)


def _product_factor(a: Tile, b: Tile) -> LowRankFactor | np.ndarray | None:
    """Representation of ``A @ B.T`` (None if either operand is null).

    When either operand is low-rank the product is low-rank with rank
    ``min(rank(A), rank(B))``; the small core is folded into the
    thinner side so the returned factors carry the minimal rank.
    """
    if isinstance(a, NullTile) or isinstance(b, NullTile):
        return None
    a_lr = isinstance(a, LowRankTile)
    b_lr = isinstance(b, LowRankTile)
    # Untouched factors are shared with the operand tiles, not copied
    # (immutable-tile contract; see trsm_tile).
    if a_lr and b_lr:
        w = a.v.T @ b.v  # ka x kb
        if a.rank <= b.rank:
            return LowRankFactor(a.u, b.u @ w.T)
        return LowRankFactor(a.u @ w, b.u)
    if a_lr:
        # Ua Va^T B^T = Ua (B Va)^T
        return LowRankFactor(a.u, b.data @ a.v)
    if b_lr:
        # A (Ub Vb^T)^T = (A Vb) Ub^T
        return LowRankFactor(a.data @ b.v, b.u)
    return a.data @ b.data.T


def gemm_tile(
    c_mn: Tile,
    a_mk: Tile,
    b_nk: Tile,
    tol: float,
    max_rank: int | None = None,
    policy: CompressionPolicy | None = None,
    seed: int = 0,
) -> Tile:
    """``C[m,n] <- C[m,n] - A[m,k] @ B[n,k]^T`` with recompression.

    This kernel is where *fill-in* happens: a null C becomes non-null
    when both operands are non-null, and where rank growth is rounded
    back by the ``tol`` threshold.  ``max_rank`` caps the stored rank
    (HiCMA's maxrank); beyond it the tile is stored dense.

    ``policy`` selects the rank-rounding method: under a randomized
    policy the accumulated factors are rounded by sampled range-finding
    seeded with ``seed`` — callers derive it from the tile coordinates
    and the elimination step, so every engine draws the same stream for
    the same task and factors stay bitwise identical.
    """
    product = _product_factor(a_mk, b_nk)
    if product is None:
        return c_mn  # nothing to subtract

    shape = c_mn.shape
    randomized = policy is not None and policy.randomized

    if isinstance(product, np.ndarray):
        # Dense product: materialize and recompress the result.
        dense = c_mn.to_dense() - product if not isinstance(c_mn, NullTile) else -product
        if isinstance(c_mn, DenseTile):
            return DenseTile(dense)
        return _compress_or_dense(dense, tol, max_rank, shape, policy)

    if isinstance(c_mn, DenseTile):
        return DenseTile(c_mn.data - product.u @ product.v.T)

    if isinstance(c_mn, NullTile):
        stacked = LowRankFactor(-product.u, product.v)
    else:
        stacked = LowRankFactor(
            np.hstack([c_mn.u, -product.u]),
            np.hstack([c_mn.v, product.v]),
        )

    if stacked.rank >= min(shape):
        # Accumulated rank is no longer "low"; go through the dense path.
        return _compress_or_dense(stacked.to_dense(), tol, max_rank, shape, policy)

    try:
        if randomized:
            rounded = randomized_recompress(
                stacked,
                tol,
                seed=seed,
                sample_block=policy.sample_block,
                oversample=policy.oversample,
                crossover=policy.crossover,
            )
        else:
            rounded = recompress(stacked, tol)
    except np.linalg.LinAlgError:
        # Degradation ladder: if rank rounding misbehaves (e.g. SVD
        # non-convergence), hold the tile dense rather than aborting
        # the factorization — exact arithmetic, just more bytes.
        return DenseTile(stacked.to_dense())
    if rounded is None:
        return NullTile(shape)
    if max_rank is not None and rounded.rank > max_rank:
        return DenseTile(rounded.to_dense())
    return LowRankTile(rounded)


def _compress_or_dense(
    dense: np.ndarray,
    tol: float,
    max_rank: int | None,
    shape: tuple[int, int],
    policy: CompressionPolicy | None = None,
) -> Tile:
    """Compress a materialized block, degrading to dense on failure.

    The randomized policy is deliberately *not* forwarded here: this
    path only fires when a GEMM materializes a dense product or the
    accumulated rank stops being low — both signal a near-full-rank
    block where sampling cannot win, so the exact SVD is the right
    tool regardless of the build method.
    """
    from repro.linalg.tile import as_tile

    del policy  # see docstring: dense-path blocks always go exact

    try:
        return as_tile(compress_block(dense, tol, max_rank=max_rank), shape)
    except np.linalg.LinAlgError:
        return DenseTile(np.ascontiguousarray(dense))
