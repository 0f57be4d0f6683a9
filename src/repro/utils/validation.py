"""Argument-validation helpers shared across the library."""

from __future__ import annotations

import numpy as np

from repro.config import DTYPE

__all__ = ["as_points", "as_real", "check_positive"]


def as_real(name: str, x) -> np.ndarray:
    """``x`` as an fp64 array; a complex ``x`` raises ``TypeError`` (the
    plain cast would keep its real part, with only a warning)."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise TypeError(f"{name} has complex dtype {x.dtype}; the operator is real")
    return x.astype(DTYPE, copy=False)


def as_points(name: str, x) -> np.ndarray:
    """``x`` as an fp64 ``(n, 3)`` array of finite coordinates."""
    x = as_real(name, x)
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {x.shape}")
    if bad := np.count_nonzero(~np.isfinite(x)):
        raise ValueError(f"{name} has {bad} non-finite coordinate(s)")
    return x


def check_positive(name: str, value: float | int) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
