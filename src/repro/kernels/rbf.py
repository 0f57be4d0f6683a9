"""Radial basis functions (Section IV-C).

The paper focuses on the *globally supported* Gaussian RBF
``phi(r) = exp(-r^2)`` scaled by a shape parameter ``delta``:
``phi_delta(r) = phi(r / delta)``.  Global support makes the operator
formally dense; the shape parameter controls correlation strength and
thus the compressed operator's density (Fig. 1, Fig. 4).

The multiquadric and inverse multiquadric kernels (global support)
are the service's other operator choices (``service/spec.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialBasisFunction",
    "GaussianRBF",
    "MultiquadricRBF",
    "InverseMultiquadricRBF",
]


class RadialBasisFunction(ABC):
    """A scalar radial kernel ``phi(r)`` with a shape parameter."""

    #: True if phi is positive definite, i.e. the pure RBF matrix is SPD
    #: and Cholesky applies without polynomial augmentation.
    positive_definite: bool = False

    #: True if phi is non-negative and non-increasing on ``[0, inf)``,
    #: so ``|phi(r)| <= phi(d)`` for every ``r >= d``: a lower bound on
    #: the distance between two point sets bounds every kernel entry
    #: between them (``RBFMatrixGenerator.tile_norm_bound``).
    decreasing: bool = False

    @abstractmethod
    def of_squared(self, s: np.ndarray) -> np.ndarray:
        """``phi(sqrt(s))`` on squared distances ``s >= 0`` (a float64
        array), in place: ``s`` is overwritten unless the form allocates."""

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Evaluate ``phi`` elementwise on non-negative distances."""
        r = np.array(r, dtype=np.float64)
        return self.of_squared(np.square(r, out=r))

    def scaled(self, r: np.ndarray, delta: float) -> np.ndarray:
        """The scaled kernel ``phi_delta(r) = phi(r / delta)``."""
        if delta <= 0.0:
            raise ValueError(f"shape parameter must be positive, got {delta}")
        return self(np.asarray(r, dtype=np.float64) / delta)


@dataclass(frozen=True)
class GaussianRBF(RadialBasisFunction):
    """Gaussian kernel ``exp(-r^2)`` — the paper's kernel."""

    positive_definite = True
    decreasing = True

    def of_squared(self, s: np.ndarray) -> np.ndarray:
        return np.exp(np.negative(s, out=s), out=s)


@dataclass(frozen=True)
class MultiquadricRBF(RadialBasisFunction):
    """Multiquadric ``sqrt(1 + r^2)`` (conditionally positive definite)."""

    positive_definite = False

    def of_squared(self, s: np.ndarray) -> np.ndarray:
        return np.sqrt(np.add(s, 1.0, out=s), out=s)


@dataclass(frozen=True)
class InverseMultiquadricRBF(RadialBasisFunction):
    """Inverse multiquadric ``1 / sqrt(1 + r^2)`` (positive definite)."""

    positive_definite = True
    decreasing = True

    def of_squared(self, s: np.ndarray) -> np.ndarray:
        return np.divide(1.0, np.sqrt(np.add(s, 1.0, out=s), out=s), out=s)
