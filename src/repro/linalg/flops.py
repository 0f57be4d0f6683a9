"""Floating-point operation counts for dense and TLR tile kernels.

The task graph (``core/trimming.py``) records each task's flops, which
the engines sum.  The performance model has one consumer of the model
counts, :class:`~repro.machine.costmodel.CostModel`: it turns them into
the task seconds the simulator and the analytic model compose (Figs.
4-14).  The TLR counts take a scalar rank or an array of ranks and
return the same shape.  Dense counts follow the standard LAPACK
accounting; TLR counts follow the HiCMA kernel decompositions (see
kernels_tlr.py for the algebra).

Two GEMM accountings coexist because two things are counted:
:func:`gemm_tlr_flops` prices the *modelled* HiCMA kernel — one
``(m, n, k)`` update with its own QR+SVD rounding, the task of the
paper's right-looking PTG that the simulator replays — while
:func:`gemm_accumulated_flops` counts what this repo's numeric kernel
executes: all of a tile's updates in one dense product, rounded once
by the range-finder.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "potrf_flops",
    "trsm_dense_flops",
    "trsm_tlr_flops",
    "syrk_dense_flops",
    "syrk_tlr_flops",
    "gemm_dense_flops",
    "gemm_tlr_flops",
    "gemm_accumulated_flops",
    "compression_flops",
    "randomized_compression_flops",
]


def potrf_flops(b: int) -> float:
    """Cholesky of a ``b x b`` block: ``b^3/3 + b^2/2 + b/6``."""
    return b**3 / 3.0 + b**2 / 2.0 + b / 6.0


def trsm_dense_flops(b: int, ncols: int | None = None) -> float:
    """Triangular solve with ``ncols`` right-hand sides (default b)."""
    n = b if ncols is None else ncols
    return float(b * b * n)


def trsm_tlr_flops(b: int, k):
    """TLR TRSM touches only the ``b x k`` V factor."""
    return float(b * b) * k


def syrk_dense_flops(b: int) -> float:
    """Dense SYRK ``C - A A^T``: ``b^2 (b + 1)``."""
    return float(b * b * (b + 1))


def syrk_tlr_flops(b: int, k):
    """TLR SYRK ``C - U (V^T V) U^T``.

    ``V^T V`` costs ``2 b k^2``; ``U W`` costs ``2 b k^2``;
    ``(U W) U^T`` costs ``2 b^2 k``.
    """
    return 4.0 * b * k**2 + 2.0 * b * b * k


def gemm_dense_flops(b: int) -> float:
    """Dense GEMM ``C - A B^T`` on ``b x b`` tiles: ``2 b^3``."""
    return 2.0 * float(b) ** 3


def gemm_tlr_flops(b: int, ka, kb, kc):
    """Modelled HiCMA TLR GEMM: one update, QR+SVD recompression.

    Product factors: ``W = Va^T Vb`` (``2 b ka kb``) plus folding W into
    the thinner side (``2 b ka kb``).  The accumulated factor pair has
    rank ``K = kc + min(ka, kb)``; rounding costs two economy QRs
    (``~2 b K^2`` each, keeping the dominant term), one small SVD
    (``~22 K^3``) and two factor rebuilds (``~2 b K k_new`` each, with
    ``k_new ~ kc``).  A null operand (``ka`` or ``kb`` 0) costs 0.
    """
    big_k = kc + np.minimum(ka, kb)
    total = (
        4.0 * b * ka * kb
        + 4.0 * b * big_k**2
        + 22.0 * big_k**3
        + 4.0 * b * big_k * np.maximum(kc, 1)
    )
    return np.where((ka == 0) | (kb == 0), 0.0, total)[()]  # 0-d -> scalar


def gemm_accumulated_flops(
    b: int, pairs: Sequence[tuple[int, int]], kc: int
) -> float:
    """Left-looking update of one ``b x b`` tile, rounded once
    (``linalg.kernels_tlr.gemm_update``).

    ``pairs`` holds the operand ranks ``(ka, kb)`` of every
    contributing panel.  Each non-null pair costs its product factor
    (``4 b ka kb``: the ``Va^T Vb`` core and folding it into the
    thinner side) and its share of the one dense application
    ``D -= X Y^T`` (``2 b^2 min(ka, kb)``); two dense operands are a
    dense GEMM.  The accumulated tile is then rounded once to rank
    ``kc`` by the range-finder
    (:func:`randomized_compression_flops`), unless it is stored dense
    (``kc >= b``) or nothing contributed.
    """
    total = 0.0
    for ka, kb in pairs:
        if ka == 0 or kb == 0:
            continue
        if ka >= b and kb >= b:
            total += gemm_dense_flops(b)
        else:
            total += 4.0 * b * ka * kb + 2.0 * b * b * min(ka, kb)
    if total == 0.0 or kc >= b:
        return total
    return total + randomized_compression_flops(b, kc)


def compression_flops(b: int, rank: int | None = None) -> float:
    """Compression of one dense ``b x b`` tile.

    With ``rank`` given: rank-revealing QR compression to rank ``k``
    (partial GEQP3 with trailing updates and re-orthogonalization,
    ``~24 b^2 k`` — the HiCMA-class production path).  Without it: a
    full SVD, ``~22 b^3`` (the naive path).  Used for the
    time-breakdown experiment (Fig. 11), where matrix compression
    dominates once the factorization is optimized.
    """
    if rank is None:
        return 22.0 * float(b) ** 3
    return 24.0 * float(b) ** 2 * max(rank, 1)


def randomized_compression_flops(
    b: int, rank: int, oversample: int = 8
) -> float:
    """Adaptive randomized compression of one ``b x b`` tile to rank
    ``k`` (``linalg.lowrank.randomized_compress``).

    With ``p = k + oversample`` sampled columns: the sample product
    ``A omega`` (``2 b^2 p``), the panels' ``Q_j^T A`` (``2 b^2 p``,
    which are also the rows of the core) and the residual downdate
    ``Q_j (Q_j^T A)`` (``2 b^2 p``), panel QRs (``~4 b p^2``), the
    core's small SVD (``~22 b p^2``) and the U rebuild (``2 b p k``).
    Dominant term ``O(b^2 p)`` — linear in the detected rank, versus
    the SVD's ``O(b^3)``.
    """
    p = max(rank, 1) + max(oversample, 0)
    b = float(b)
    return 6.0 * b * b * p + 26.0 * b * p * p + 2.0 * b * p * max(rank, 1)
