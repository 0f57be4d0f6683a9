"""Triangular solves with the TLR Cholesky factor.

Forward/backward substitution by tile rows, exploiting each tile's
representation: a low-rank tile applies ``U (V^T x)`` (two skinny
GEMVs) instead of a dense ``b x b`` product, and null tiles are
skipped entirely — the solve inherits the operator's data sparsity.
Null-tile skipping uses the factor's cached per-column structure
(:meth:`TLRMatrix.lower_column_structure`), so repeated solves against
one factor — the serving hot path — avoid re-scanning all NT² tile
slots on every call.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from repro.config import DTYPE
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile
from repro.linalg.tile_matrix import TLRMatrix

__all__ = ["solve_lower", "solve_lower_transpose", "solve_cholesky", "logdet"]


def _as_matrix(l: TLRMatrix, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """A private ``(n, k)`` copy of ``b`` for the substitutions to
    overwrite, and whether the caller passed a vector."""
    b = np.asarray(b, dtype=DTYPE)
    if b.ndim not in (1, 2):
        raise ValueError(f"rhs must be 1D or 2D, got shape {b.shape}")
    if b.shape[0] != l.n:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix order is {l.n}")
    if b.ndim == 1:
        return b[:, None].copy(), True
    return b.copy(), False


def _apply(tile: Tile, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``tile @ x`` (or ``tile.T @ x``) using the cheap representation."""
    if isinstance(tile, NullTile):
        rows = tile.shape[1] if transpose else tile.shape[0]
        return np.zeros((rows, x.shape[1]), dtype=DTYPE)
    if isinstance(tile, LowRankTile):
        if transpose:
            return tile.v @ (tile.u.T @ x)
        return tile.u @ (tile.v.T @ x)
    data = tile.data
    return (data.T if transpose else data) @ x


def _forward(l: TLRMatrix, y: np.ndarray) -> None:
    """Overwrite ``y`` with the solution of ``L y = y``."""
    bs = l.tile_size
    structure = l.lower_column_structure()
    for k in range(l.n_tiles):
        lo, hi = k * bs, min((k + 1) * bs, l.n)
        diag = l.tile(k, k)
        if not isinstance(diag, DenseTile):
            raise TypeError("diagonal factor tiles must be dense")
        y[lo:hi] = sla.solve_triangular(
            diag.data, y[lo:hi], lower=True, check_finite=False
        )
        for m in structure[k]:
            tile = l.tile(m, k)
            mlo, mhi = m * bs, min((m + 1) * bs, l.n)
            y[mlo:mhi] -= _apply(tile, y[lo:hi])


def _backward(l: TLRMatrix, x: np.ndarray) -> None:
    """Overwrite ``x`` with the solution of ``L^T x = x``."""
    bs = l.tile_size
    structure = l.lower_column_structure()
    for k in range(l.n_tiles - 1, -1, -1):
        lo, hi = k * bs, min((k + 1) * bs, l.n)
        for m in structure[k]:
            tile = l.tile(m, k)
            mlo, mhi = m * bs, min((m + 1) * bs, l.n)
            x[lo:hi] -= _apply(tile, x[mlo:mhi], transpose=True)
        diag = l.tile(k, k)
        x[lo:hi] = sla.solve_triangular(
            diag.data, x[lo:hi], lower=True, trans="T", check_finite=False
        )


def solve_lower(l: TLRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` with the TLR lower factor (forward subst.)."""
    y, squeeze = _as_matrix(l, b)
    _forward(l, y)
    return y[:, 0] if squeeze else y


def solve_lower_transpose(l: TLRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L^T x = b`` with the TLR lower factor (backward subst.)."""
    x, squeeze = _as_matrix(l, b)
    _backward(l, x)
    return x[:, 0] if squeeze else x


def solve_cholesky(l: TLRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the in-place TLR factor of ``A``.

    One private copy of ``b``: the backward substitution overwrites the
    forward pass's buffer, bitwise the same as
    ``solve_lower_transpose(l, solve_lower(l, b))``.
    """
    x, squeeze = _as_matrix(l, b)
    _forward(l, x)
    _backward(l, x)
    return x[:, 0] if squeeze else x


def logdet(l: TLRMatrix) -> float:
    """``log det(A) = 2 * sum_k log diag(L[k,k])`` from the TLR factor.

    Reads only the dense diagonal factor tiles — the quantity needed
    by the Gaussian log-likelihood in the spatial-statistics
    applications HiCMA originally targeted.
    """
    total = 0.0
    for k in range(l.n_tiles):
        diag = l.tile(k, k)
        if not isinstance(diag, DenseTile):
            raise TypeError("diagonal factor tiles must be dense")
        d = np.diag(diag.data)
        if np.any(d <= 0.0):
            raise ValueError("factor diagonal must be positive (is this a factor?)")
        total += float(np.log(d).sum())
    return 2.0 * total
