"""Matern covariance kernels — the sibling HiCMA application.

The diamond distribution is motivated by "general 3D covariance
matrix problems" (Sec. VII-B), and the HiCMA line of work the paper
builds on (refs. [8]-[10], [13]) targets geospatial statistics with
Matern covariances.  This module supplies those kernels so the same
TLR pipeline serves that application (see
``repro.apps.spatial_statistics``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.rbf import RadialBasisFunction

__all__ = ["MaternKernel"]


@dataclass(frozen=True)
class MaternKernel(RadialBasisFunction):
    """Matern covariance with smoothness ``nu`` (variance 1).

    ``phi(r) = 2^(1-nu)/Gamma(nu) * (sqrt(2 nu) r)^nu *
    K_nu(sqrt(2 nu) r)`` — the standard parameterization — with the
    length scale applied through :meth:`scaled` like every other
    kernel here.  Closed forms are used for nu = 1/2, 3/2, 5/2.
    """

    nu: float = 0.5
    positive_definite = True
    decreasing = True

    def of_squared(self, s: np.ndarray) -> np.ndarray:
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        r = np.sqrt(s, out=s)
        if self.nu == 0.5:
            return np.exp(np.negative(r, out=r), out=r)
        if self.nu == 1.5:
            c = np.sqrt(3.0) * r
            return (1.0 + c) * np.exp(-c)
        if self.nu == 2.5:
            c = np.sqrt(5.0) * r
            return (1.0 + c + c * c / 3.0) * np.exp(-c)
        from scipy.special import gamma, kv

        zero = r == 0.0
        arg = np.sqrt(2.0 * self.nu) * np.where(zero, 1.0, r)
        coef = 2.0 ** (1.0 - self.nu) / gamma(self.nu)
        out = coef * arg**self.nu * kv(self.nu, arg)
        out = np.where(zero, 1.0, out)
        return out
