"""TLR tile kernels: POTRF / TRSM / SYRK / GEMM over mixed tiles.

Each kernel accepts :class:`~repro.linalg.tile.Tile` operands in any of
the three representations (dense / low-rank / null) and returns a new
tile — this is the "mixture of data structures within a single matrix
operation" that the paper's framework supports (Section III).

Algebra for the low-rank paths (``A = Ua Va^T``, ``B = Ub Vb^T``):

* TRSM  ``A L^-T = Ua (L^-1 Va)^T``            — touches only V.
* SYRK  ``C - A A^T = C - Ua (Va^T Va) Ua^T``   — small k×k core.
* GEMM  ``A B^T = Ua (Va^T Vb) Ub^T``           — fold the core into
  the thinner side.

The two update kernels are *accumulating*: they take every panel that
contributes to a target tile, stack the low-rank product factors and
apply them as one dense product.  An off-diagonal target is then
rounded **once**, by the residual-stop range-finder (``_ROUNDING``: it
stops once the explicit residual is within the threshold and truncates
the small core exactly, so its rank can differ from ``gesdd``'s by one;
the build's certified exact-rank ``svd`` is not used here) — never per
panel, and no tile is ever stored with an inflated rank.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.linalg.kernels_dense import DiagonalShiftPolicy, potrf, potrf_with_shift
from repro.linalg.kernels_dense import trsm, trsm_left
from repro.linalg.lowrank import CompressionPolicy, LowRankFactor, compress_block
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile, as_tile

__all__ = [
    "potrf_tile",
    "potrf_tile_shifted",
    "trsm_tile",
    "syrk_update",
    "syrk_tile",
    "gemm_update",
    "gemm_tile",
]

#: How an accumulated update is rounded, whatever method compressed the
#: input tiles: adaptive range-finder, explicit-residual stopping rule,
#: exact truncation of the small core.  Both exact alternatives were
#: measured and lose (DESIGN.md, "One rounding per target tile").
_ROUNDING = CompressionPolicy(method="rand")


def _diagonal(a_kk: Tile) -> np.ndarray:
    if not isinstance(a_kk, DenseTile):
        raise TypeError(
            f"diagonal tiles must be dense for POTRF, got {a_kk.kind.value}"
        )
    return a_kk.data


def potrf_tile(a_kk: Tile) -> DenseTile:
    """Cholesky of a diagonal tile (always dense in TLR Cholesky)."""
    return DenseTile(potrf(_diagonal(a_kk)))


def potrf_tile_shifted(
    a_kk: Tile, policy: DiagonalShiftPolicy
) -> tuple[DenseTile, float]:
    """POTRF of a diagonal tile with escalating-shift degradation.

    Returns ``(L_kk, shift)``; ``shift`` is 0.0 on the normal path.
    See :func:`repro.linalg.kernels_dense.potrf_with_shift`.
    """
    l_kk, shift = potrf_with_shift(_diagonal(a_kk), policy)
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
        # reproducibility for F-ordered factors (a reloaded operator's).
        return LowRankTile(LowRankFactor(a_mk.u, trsm_left(l_kk.data, a_mk.v)))
    return DenseTile(trsm(l_kk.data, a_mk.data))


def syrk_update(c_nn: DenseTile, panels: Iterable[Tile]) -> DenseTile:
    """``C[n,n] <- C[n,n] - sum_k A[n,k] A[n,k]^T`` (diagonal stays dense).

    One product over the panel list:
    ``C -= [U_k (V_k^T V_k)]_k @ [U_k]_k^T``, a dense panel entering as
    ``[A_k] @ [A_k]^T``.  Null panels contribute nothing; with no
    contribution at all the target tile object is returned as is.
    """
    if not isinstance(c_nn, DenseTile):
        raise TypeError(f"SYRK target must be dense, got {c_nn.kind.value}")
    left, right = [], []
    for a in panels:
        if isinstance(a, NullTile):
            continue
        if isinstance(a, LowRankTile):
            left.append(a.u @ (a.v.T @ a.v))  # k x k core folded into U
            right.append(a.u)
        else:
            left.append(a.data)
            right.append(a.data)
    if not left:
        return c_nn
    return DenseTile(
        c_nn.data - np.hstack(left) @ np.hstack(right).T
    )


def syrk_tile(c_mm: DenseTile, a_mk: Tile) -> DenseTile:
    """:func:`syrk_update` with one panel."""
    return syrk_update(c_mm, (a_mk,))


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


def gemm_update(
    c_mn: Tile,
    pairs: Iterable[tuple[Tile, Tile]],
    tol: float,
    max_rank: int | None = None,
    seed: int = 0,
) -> Tile:
    """``C[m,n] <- C[m,n] - sum_k A[m,k] @ B[n,k]^T``, rounded once.

    ``pairs`` lists the operand tiles ``(A[m,k], B[n,k])`` in ascending
    ``k``.  Every non-null pair's product factor is formed; the low-rank
    ones, stacked as ``X @ Y^T``, are applied in one product:
    ``[U_c | X] @ [V_c | -Y]^T`` for a low-rank C, else ``D -= X @ Y^T``
    onto C's dense form (zeros for a null C — *fill-in*); dense products
    subtract directly.  A dense C stays dense and unrounded.  Otherwise
    the result is rounded once: null certificate, then the range-finder
    seeded with ``seed`` (callers derive it from the tile coordinates,
    so every engine draws the same stream for the same tile) and hinted
    with C's rank; ``max_rank`` caps the stored rank (HiCMA's maxrank).
    Pair order is fixed by the caller, so the summation order — hence
    every bit of the result — is the same whichever engine runs the
    task.  When no pair contributes the target tile object is returned
    as is.
    """
    us, vs, dense_products = [], [], []
    for a, b in pairs:
        product = _product_factor(a, b)
        if product is None:
            continue
        if isinstance(product, LowRankFactor):
            us.append(product.u)
            vs.append(product.v)
        else:
            dense_products.append(product)
    if not us and not dense_products:
        return c_mn  # nothing to subtract

    if isinstance(c_mn, LowRankTile):
        right = np.hstack([c_mn.v, *vs])
        right[:, c_mn.rank :] *= -1.0
        acc = np.hstack([c_mn.u, *us]) @ right.T
    else:
        acc = c_mn.to_dense()
        if us:
            acc -= np.hstack(us) @ np.hstack(vs).T
    for product in dense_products:
        acc -= product
    if isinstance(c_mn, DenseTile):
        return DenseTile(acc)
    try:
        rounded = compress_block(
            acc, tol, max_rank=max_rank, policy=_ROUNDING, seed=seed,
            rank_hint=c_mn.rank,
        )
    except np.linalg.LinAlgError:
        # Degradation ladder: if rank rounding misbehaves (e.g. SVD
        # non-convergence), hold the tile dense rather than aborting
        # the factorization — exact arithmetic, just more bytes.
        return DenseTile(acc)
    return as_tile(rounded, acc.shape)


def gemm_tile(
    c_mn: Tile,
    a_mk: Tile,
    b_nk: Tile,
    tol: float,
    max_rank: int | None = None,
    seed: int = 0,
) -> Tile:
    """:func:`gemm_update` with one pair."""
    return gemm_update(c_mn, ((a_mk, b_nk),), tol, max_rank=max_rank, seed=seed)
