"""Per-tile mixed-precision storage policy.

The fixed-accuracy compression threshold already accepts a truncation
error of ``eps`` per tile (HiCMA convention), so any *storage*
perturbation safely below that threshold is numerically free.  Casting
a low-rank factor pair to fp32 perturbs the reconstructed tile by at
most ``~eps_fp32 * ||tile||_2``; a tile whose spectral norm satisfies

    ``||tile||_2 * eps_fp32 <= margin * eps``

can therefore be stored in single precision at half the bytes without
moving the solve residual.  Diagonal tiles, band tiles (``|m - k| <=
band_width``) and dense tiles always stay fp64: they carry the
near-field mass and feed POTRF directly, where conditioning matters.

Compute precision is untouched — kernels promote fp32 factors to fp64
on contact with fp64 operands, and the promotion is deterministic, so
the bitwise-reproducibility contract across execution engines holds
for mixed-precision operators exactly as it does for fp64 ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import (
    DTYPE,
    MIXED_PRECISION_BAND,
    MIXED_PRECISION_MARGIN,
    STORAGE_DTYPE_SINGLE,
    storage_precision_from_env,
)
from repro.linalg.lowrank import LowRankFactor

__all__ = [
    "StoragePolicy",
    "resolve_storage",
    "downcast_factor",
    "factor_significance",
]

#: unit roundoff of the reduced-precision storage dtype
_EPS_SINGLE = float(np.finfo(STORAGE_DTYPE_SINGLE).eps)

_MODES = ("fp64", "mixed")


@dataclass(frozen=True)
class StoragePolicy:
    """Which dtype each stored tile gets (``fp64`` or ``mixed``).

    ``band_width`` tiles either side of the diagonal always stay fp64;
    off-band low-rank tiles are downcast to fp32 only when their
    significance (spectral norm) passes the margin test above.
    """

    mode: str = "fp64"
    band_width: int = MIXED_PRECISION_BAND
    margin: float = MIXED_PRECISION_MARGIN

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(
                f"storage mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.band_width < 0:
            raise ValueError(
                f"band_width must be >= 0, got {self.band_width}"
            )
        if self.margin <= 0.0:
            raise ValueError(f"margin must be positive, got {self.margin}")

    @property
    def mixed(self) -> bool:
        return self.mode == "mixed"

    def off_band(self, m: int, k: int) -> bool:
        return abs(m - k) > self.band_width

    def storage_dtype(
        self, m: int, k: int, significance: float, accuracy: float
    ) -> np.dtype:
        """Storage dtype for tile ``(m, k)`` with spectral norm
        ``significance`` under compression threshold ``accuracy``."""
        if not self.mixed or not self.off_band(m, k):
            return np.dtype(DTYPE)
        if significance * _EPS_SINGLE <= self.margin * accuracy:
            return np.dtype(STORAGE_DTYPE_SINGLE)
        return np.dtype(DTYPE)


def resolve_storage(value: StoragePolicy | str | None) -> StoragePolicy:
    """Coerce a policy spec: an explicit policy or mode name wins, then
    ``$REPRO_STORAGE_PRECISION``, then the fp64 default."""
    if isinstance(value, StoragePolicy):
        return value
    if value is None:
        value = storage_precision_from_env()
    return StoragePolicy(mode=str(value))


def factor_significance(factor: LowRankFactor) -> float:
    """Spectral norm of a compression-produced factor, for free.

    Both the SVD and the randomized compressors return ``u = U_k s_k``
    with orthonormal ``U_k`` columns ordered by singular value, so the
    first column's 2-norm *is* ``sigma_1 = ||tile||_2``.
    """
    return float(np.linalg.norm(np.asarray(factor.u[:, 0], dtype=DTYPE)))


def downcast_factor(factor: LowRankFactor, dtype) -> LowRankFactor:
    """The same factor with both arrays stored as ``dtype``."""
    dtype = np.dtype(dtype)
    if factor.u.dtype == dtype and factor.v.dtype == dtype:
        return factor
    return LowRankFactor(
        np.ascontiguousarray(factor.u, dtype=dtype),
        np.ascontiguousarray(factor.v, dtype=dtype),
    )
