"""Triangular solves with the TLR Cholesky factor.

Forward/backward substitution by tile index on the factor's packed form
(:meth:`TLRMatrix.packed`, built at a factor's first solve): tile row
``m``'s stored tiles side by side in one row panel ``U_m``, tile column
``k``'s in one column panel ``V_k``, a coefficient buffer ``T`` between
them.  A step is one product with each panel and one BLAS solve on the
diagonal tile (``dtrsv`` for one column, ``dtrsm`` for several), however
many tiles the row and column hold; null tiles are in no panel (the
operator's data sparsity carries over).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dtrsm, dtrsv

from repro.config import DTYPE
from repro.linalg.tile_matrix import TLRMatrix
from repro.utils.validation import as_real

__all__ = ["solve_lower", "solve_cholesky", "logdet"]


def _workspace(l: TLRMatrix, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """A private F-ordered ``(n, k)`` fp64 copy of ``b`` for the
    substitutions to overwrite, and whether the caller passed a vector."""
    b = as_real("rhs", b)
    if b.ndim not in (1, 2):
        raise ValueError(f"rhs must be 1D or 2D, got shape {b.shape}")
    if b.shape[0] != l.n:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix order is {l.n}")
    x = np.array(b[:, None] if b.ndim == 1 else b, dtype=DTYPE, order="F")
    return x, b.ndim == 1


def _trsm(triangle: tuple, xk: np.ndarray, transpose: int) -> None:
    """``xk <- L_kk^-1 xk`` (``L_kk^-T`` if ``transpose``), in place: ``dtrsv``
    on a one-column block (a vector and its ``(n, 1)`` form alike), else ``dtrsm``."""
    a, lower, trans = triangle
    if xk.shape[1] == 1:
        xk = xk[:, 0]
        out = dtrsv(a, xk, lower=lower, trans=trans ^ transpose, overwrite_x=1)
    else:
        out = dtrsm(1.0, a, xk, lower=lower, trans_a=trans ^ transpose, overwrite_b=1)
    if out is not xk:  # a strided block: BLAS ran on a copy
        xk[...] = out


def _forward(l: TLRMatrix, x: np.ndarray) -> None:
    """Overwrite the F-ordered ``x`` with the solution of ``L y = x``."""
    diag, u, v, row, idx, dense, size, _ = l.packed()
    t = np.empty((size, x.shape[1]), dtype=DTYPE, order="F")
    bs = l.tile_size
    for k in range(l.n_tiles):
        xk = x[k * bs : (k + 1) * bs]
        if u[k] is not None:
            xk -= u[k] @ t[row[k]]
        _trsm(diag[k], xk, 0)
        if v[k] is not None:
            t[idx[k]] = v[k].T @ xk
        for rows in dense[k]:
            t[rows] = xk


def _backward(l: TLRMatrix, x: np.ndarray) -> None:
    """Overwrite the F-ordered ``x`` with the solution of ``L^T y = x``."""
    diag, u, v, row, idx, dense, size, _ = l.packed()
    t = np.empty((size, x.shape[1]), dtype=DTYPE, order="F")
    bs = l.tile_size
    for k in range(l.n_tiles - 1, -1, -1):
        xk = x[k * bs : (k + 1) * bs]
        if v[k] is not None:
            xk -= v[k] @ t[idx[k]]
        for rows in dense[k]:
            xk -= t[rows]
        _trsm(diag[k], xk, 1)
        if u[k] is not None:
            t[row[k]] = u[k].T @ xk


def _solve_columns(l: TLRMatrix, columns: list[np.ndarray]) -> np.ndarray:
    """``solve_cholesky(l, np.stack(columns, axis=1))``, bitwise, with
    the vectors written once, straight into the working buffer (the
    service's coalesced batch; its columns are contiguous)."""
    x = np.empty((l.n, len(columns)), dtype=DTYPE, order="F")
    for j, column in enumerate(columns):
        x[:, j] = column
    _forward(l, x)
    _backward(l, x)
    return x


def solve_lower(l: TLRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` with the TLR lower factor (forward subst.)."""
    y, squeeze = _workspace(l, b)
    _forward(l, y)
    return y[:, 0] if squeeze else y


def solve_cholesky(l: TLRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the in-place TLR factor of ``A``.

    One private copy of ``b``: the backward substitution overwrites the
    forward pass's buffer.
    """
    x, squeeze = _workspace(l, b)
    _forward(l, x)
    _backward(l, x)
    return x[:, 0] if squeeze else x


def logdet(l: TLRMatrix) -> float:
    """``log det(A) = 2 * sum_k log diag(L[k,k])`` from the TLR factor.

    Reads only the dense diagonal factor tiles — the quantity needed
    by the Gaussian log-likelihood in the spatial-statistics
    applications HiCMA originally targeted.
    """
    half = l.packed().half_logdet
    if half is None:
        raise ValueError("factor diagonal must be positive (is this a factor?)")
    return 2.0 * half
