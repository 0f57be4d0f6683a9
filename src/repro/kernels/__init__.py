"""Matrix-entry kernels: radial basis functions, Matern covariances,
and tile-wise operator generation."""

from repro.kernels.covariance import MaternKernel
from repro.kernels.matgen import RBFMatrixGenerator
from repro.kernels.rbf import (
    GaussianRBF,
    InverseMultiquadricRBF,
    MultiquadricRBF,
    RadialBasisFunction,
)

__all__ = [
    "RadialBasisFunction",
    "GaussianRBF",
    "MultiquadricRBF",
    "InverseMultiquadricRBF",
    "RBFMatrixGenerator",
    "MaternKernel",
]
