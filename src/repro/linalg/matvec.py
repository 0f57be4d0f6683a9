"""Symmetric TLR matrix-vector products and iterative refinement.

``y = A x`` with the compressed operator costs ``O(sum_tiles 2 b k)``
instead of ``O(n^2)`` — each low-rank tile applies as two skinny
GEMVs, null tiles are skipped, and the symmetric part reuses each
stored tile for its mirrored block.

Iterative refinement wraps the TLR Cholesky solve: because the factor
carries the compression error (~accuracy threshold), a few residual
correction sweeps recover solution accuracy down to the operator's
own compression level — the standard companion to approximate direct
solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.tile import LowRankTile, NullTile
from repro.linalg.tile_matrix import TLRMatrix
from repro.utils.validation import as_real

__all__ = ["tlr_matvec", "refine_solve", "RefinementResult"]


def tlr_matvec(a: TLRMatrix, x: np.ndarray) -> np.ndarray:
    """``y = A x`` for the symmetric TLR operator (1D or 2D ``x``).

    Uses only the stored lower triangle: each off-diagonal tile
    contributes both ``A[m,k] x_k`` to ``y_m`` and ``A[m,k]^T x_m``
    to ``y_k``.
    """
    x = as_real("x", x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] != a.n:
        raise ValueError(f"x has {x.shape[0]} rows, matrix order is {a.n}")
    y = np.zeros_like(x)
    b = a.tile_size
    for (m, k), tile in a:
        if isinstance(tile, NullTile):
            continue
        mlo, mhi = m * b, min((m + 1) * b, a.n)
        klo, khi = k * b, min((k + 1) * b, a.n)
        if isinstance(tile, LowRankTile):
            y[mlo:mhi] += tile.u @ (tile.v.T @ x[klo:khi])
            if m != k:
                y[klo:khi] += tile.v @ (tile.u.T @ x[mlo:mhi])
        else:
            data = tile.data
            y[mlo:mhi] += data @ x[klo:khi]
            if m != k:
                y[klo:khi] += data.T @ x[mlo:mhi]
    return y[:, 0] if squeeze else y


@dataclass
class RefinementResult:
    """Solution plus the residual history of the refinement sweeps."""

    x: np.ndarray
    #: relative residual ||b - A x|| / ||b|| after each sweep
    #: (entry 0 is the unrefined direct solve)
    residuals: list[float]
    converged: bool


def refine_solve(
    a: TLRMatrix,
    factor: TLRMatrix,
    b_rhs: np.ndarray,
    max_sweeps: int = 5,
    rtol: float | None = None,
) -> RefinementResult:
    """Solve ``A x = b`` by TLR-Cholesky + iterative refinement.

    Parameters
    ----------
    a:
        The *unfactorized* compressed operator (used for residuals).
    factor:
        The TLR Cholesky factor of ``a`` (from
        :func:`repro.core.tlr_cholesky`).
    b_rhs:
        Right-hand side, 1D or 2D.
    max_sweeps:
        Maximum refinement iterations.
    rtol:
        Stop once the relative residual falls below this (default:
        10x the operator's compression accuracy).
    """
    from repro.core.solver import solve_cholesky

    if rtol is None:
        rtol = 10.0 * a.accuracy
    b_arr = as_real("rhs", b_rhs)
    norm_b = float(np.linalg.norm(b_arr))
    if norm_b == 0.0:
        return RefinementResult(np.zeros_like(b_arr), [0.0], True)

    x = solve_cholesky(factor, b_arr)
    residuals = []
    for _ in range(max_sweeps + 1):
        r = b_arr - tlr_matvec(a, x)
        rel = float(np.linalg.norm(r)) / norm_b
        residuals.append(rel)
        if rel <= rtol:
            return RefinementResult(x, residuals, True)
        if len(residuals) > max_sweeps:
            break
        x = x + solve_cholesky(factor, r)
    return RefinementResult(x, residuals, False)
