"""Dense tile kernels: POTRF, TRSM, SYRK, GEMM.

These are the four kernels of tile Cholesky (Section IV-B) in their
dense form, applied to raw ndarrays.  The TLR variants in
:mod:`repro.linalg.kernels_tlr` dispatch to these when operands are
dense tiles.

Conventions (lower-triangular Cholesky, right-looking):

* ``potrf``:  ``A[k,k] = L[k,k] @ L[k,k].T``
* ``trsm``:   ``A[m,k] <- A[m,k] @ L[k,k]^-T``
* ``syrk``:   ``A[m,m] <- A[m,m] - A[m,k] @ A[m,k].T``
* ``gemm``:   ``A[m,n] <- A[m,n] - A[m,k] @ A[n,k].T``
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

__all__ = [
    "potrf",
    "potrf_with_shift",
    "DiagonalShiftPolicy",
    "trsm",
    "trsm_left",
    "syrk",
    "gemm",
]


@dataclass(frozen=True)
class DiagonalShiftPolicy:
    """Escalating diagonal regularization for borderline-SPD blocks.

    When POTRF fails, retry on ``A + shift * I`` with
    ``shift = initial_relative * mean(|diag(A)|)``, multiplying by
    ``growth`` up to ``max_attempts`` times.  This is the graceful-
    degradation move of adaptive TLR frameworks: a slightly indefinite
    diagonal block (compression error ate the positive definiteness)
    is regularized and reported instead of aborting the whole
    factorization.
    """

    max_attempts: int = 3
    initial_relative: float = 1.0e-12
    growth: float = 1.0e3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.initial_relative <= 0.0 or self.growth <= 1.0:
            raise ValueError(
                "initial_relative must be positive and growth > 1, got "
                f"{self.initial_relative} / {self.growth}"
            )


def potrf(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD block (a new F-ordered array),
    straight from LAPACK: at b = 50 scipy's wrapper costs as much.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the block is not numerically positive definite (e.g. the
        accuracy threshold was too loose for this operator).
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square block, got shape {a.shape}")
    l, info = dpotrf(a, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return l


def potrf_with_shift(
    a: np.ndarray, policy: DiagonalShiftPolicy
) -> tuple[np.ndarray, float]:
    """POTRF with escalating diagonal shift on loss of definiteness.

    Returns ``(L, shift)`` where ``shift`` is 0.0 when the unshifted
    factorization succeeded.  Raises ``LinAlgError`` only after every
    shift attempt in the policy is exhausted.
    """
    try:
        return potrf(a), 0.0
    except np.linalg.LinAlgError:
        pass
    diag_scale = float(np.mean(np.abs(np.diag(a)))) or 1.0
    shift = policy.initial_relative * diag_scale
    eye = np.eye(a.shape[0], dtype=a.dtype)
    for _ in range(policy.max_attempts):
        try:
            return potrf(a + shift * eye), shift
        except np.linalg.LinAlgError:
            shift *= policy.growth
    raise np.linalg.LinAlgError(
        f"POTRF not positive definite after {policy.max_attempts} "
        f"diagonal shifts (last shift {shift / policy.growth:.3e})"
    )


def _check_triangular(l_kk: np.ndarray, n: int) -> None:
    """``solve_triangular``'s checks: ``n x n`` and not singular."""
    if l_kk.shape != (n, n):
        raise ValueError(f"triangular factor {l_kk.shape} does not match {n} unknowns")
    if not l_kk.diagonal().all():
        raise np.linalg.LinAlgError("singular matrix: zero on the factor's diagonal")


def trsm(l_kk: np.ndarray, a_mk: np.ndarray) -> np.ndarray:
    """Right triangular solve ``A[m,k] @ L[k,k]^-T`` (new, F-ordered)."""
    _check_triangular(l_kk, a_mk.shape[1])
    return dtrsm(1.0, l_kk, a_mk, side=1, lower=1, trans_a=1)


def trsm_left(l_kk: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Left triangular solve ``L[k,k]^-1 B`` (a new F-ordered array):
    the V update of a low-rank TRSM."""
    _check_triangular(l_kk, b.shape[0])
    return dtrsm(1.0, l_kk, b, lower=1)


def syrk(c_mm: np.ndarray, a_mk: np.ndarray) -> np.ndarray:
    """Symmetric rank-b update ``C - A @ A.T`` (returns a new array)."""
    return c_mm - a_mk @ a_mk.T


def gemm(c_mn: np.ndarray, a_mk: np.ndarray, b_nk: np.ndarray) -> np.ndarray:
    """General update ``C - A @ B.T`` (returns a new array)."""
    return c_mn - a_mk @ b_nk.T
