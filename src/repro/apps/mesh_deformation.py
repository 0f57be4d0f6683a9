"""3D unstructured mesh deformation via Gaussian RBF interpolation.

The end-to-end application of Section IV-C: given displacements of the
boundary nodes of moving 3D bodies, interpolate a smooth displacement
field to the interior volume nodes by

    d(x) = sum_i alpha_i * phi(||x - x_bi|| / delta)

where the coefficients ``alpha`` solve the (formally dense, SPD) RBF
system ``A alpha = d_b``.  The solve is the expensive phase and runs
through the full TLR pipeline: Hilbert reordering → tile-wise
generation → compression → (trimmed) TLR Cholesky → triangular solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.config import DEFAULT_ACCURACY, DTYPE
from repro.core.solver import solve_cholesky
from repro.core.tlr_cholesky import FactorizationResult, tlr_cholesky
from repro.geometry.pointclouds import min_spacing
from repro.kernels.matgen import RBFMatrixGenerator
from repro.kernels.rbf import GaussianRBF, RadialBasisFunction
from repro.linalg.tile_matrix import TLRMatrix
from repro.utils.hilbert import hilbert_order
from repro.utils.validation import as_points, as_real

__all__ = ["RBFMeshDeformation", "MeshDeformationResult"]


@dataclass
class MeshDeformationResult:
    """Outcome of one mesh-deformation solve."""

    #: displacements at the queried volume nodes, shape (nv, 3)
    volume_displacements: np.ndarray
    #: RBF coefficients (in solver ordering), shape (nb, 3)
    coefficients: np.ndarray
    #: interpolation residual at the boundary: max |d(x_b) - d_b|
    boundary_error: float
    #: seconds spent per phase
    timings: dict[str, float]


class RBFMeshDeformation:
    """Mesh-deformation solver over the HiCMA-PaRSEC TLR pipeline.

    Parameters
    ----------
    boundary_points:
        ``(nb, 3)`` coordinates of the boundary (surface) nodes.
    shape_parameter:
        Gaussian shape parameter ``delta``; defaults to the paper's
        rule of half the minimum point spacing (Sec. IV-C).
    accuracy:
        TLR compression threshold (paper default 1e-4).
    tile_size:
        Tile edge ``b``; defaults to ``O(sqrt(nb))`` per the paper's
        tuning strategy (Sec. VIII-C).
    nugget:
        Diagonal regularization; defaults to ``100 * accuracy``, which
        keeps the operator numerically SPD under truncation while
        perturbing displacements well below typical mesh tolerances.
    trim:
        Enable DAG trimming (Section VI).
    reorder:
        Apply Hilbert reordering internally (disable only if the
        points are already space-filling-curve ordered).
    """

    def __init__(
        self,
        boundary_points: np.ndarray,
        shape_parameter: float | None = None,
        accuracy: float = DEFAULT_ACCURACY,
        tile_size: int | None = None,
        kernel: RadialBasisFunction | None = None,
        nugget: float | None = None,
        trim: bool = True,
        reorder: bool = True,
    ) -> None:
        pts = as_points("boundary_points", boundary_points)
        if len(pts) < 4:
            raise ValueError("need at least 4 boundary points")
        self._perm = hilbert_order(pts) if reorder else np.arange(len(pts))
        self._inv_perm = np.argsort(self._perm)
        self.points = pts[self._perm]

        if shape_parameter is None:
            shape_parameter = 0.5 * min_spacing(pts)  # Sec. IV-C
        if tile_size is None:
            tile_size = max(32, int(np.sqrt(len(pts)) * 2))
        self.accuracy = float(accuracy)
        self.trim = bool(trim)
        self.generator = RBFMatrixGenerator(
            points=self.points,
            shape_parameter=float(shape_parameter),
            tile_size=int(tile_size),
            kernel=kernel if kernel is not None else GaussianRBF(),
            nugget=100.0 * accuracy if nugget is None else float(nugget),
        )
        self._factor: TLRMatrix | None = None
        self.timings: dict[str, float] = {}

    # ------------------------------------------------------------------

    @property
    def n_boundary(self) -> int:
        return len(self.points)

    @property
    def shape_parameter(self) -> float:
        return self.generator.shape_parameter

    def factorize(self) -> FactorizationResult:
        """Generate, compress and factorize the RBF operator."""
        t0 = time.perf_counter()
        a = TLRMatrix.from_generator(self.generator, self.accuracy)
        t1 = time.perf_counter()
        self.timings["generation+compression"] = t1 - t0
        self.timings["initial_density"] = a.density()
        result = tlr_cholesky(a, trim=self.trim)
        self.timings["factorization"] = time.perf_counter() - t1
        self._factor = result.factor
        return result

    def solve_coefficients(self, boundary_displacements: np.ndarray) -> np.ndarray:
        """Solve ``A alpha = d_b`` for the RBF coefficients.

        ``boundary_displacements`` is ``(nb, 3)`` in the *original*
        point order; the returned coefficients are in solver order
        (used by :meth:`interpolate`).
        """
        d = as_real("boundary_displacements", boundary_displacements)
        if d.shape != (self.n_boundary, 3):
            raise ValueError(
                f"displacements must have shape ({self.n_boundary}, 3), "
                f"got {d.shape}"
            )
        if self._factor is None:
            self.factorize()
        t0 = time.perf_counter()
        alpha = solve_cholesky(self._factor, d[self._perm])
        self.timings["solve"] = time.perf_counter() - t0
        return alpha

    def interpolate(
        self,
        volume_points: np.ndarray,
        coefficients: np.ndarray,
        chunk: int = 2048,
    ) -> np.ndarray:
        """Evaluate the RBF field at volume nodes (chunked GEMM + GEMV)."""
        v = as_points("volume_points", volume_points)
        out = np.empty((len(v), 3), dtype=DTYPE)
        for lo in range(0, len(v), chunk):
            rows = self.generator.kernel_rows(v[lo : lo + chunk])
            out[lo : lo + chunk] = rows @ coefficients
        return out

    def deform(
        self,
        volume_points: np.ndarray,
        boundary_displacements: np.ndarray,
    ) -> MeshDeformationResult:
        """End-to-end: solve for coefficients and displace the volume.

        Returns the volume displacements plus the boundary
        interpolation error (how well the field reproduces the
        prescribed boundary motion — bounded by the compression
        accuracy and nugget).
        """
        alpha = self.solve_coefficients(boundary_displacements)
        t0 = time.perf_counter()
        vol = self.interpolate(volume_points, alpha)
        self.timings["interpolation"] = time.perf_counter() - t0
        at_boundary = self.interpolate(self.points, alpha)
        d_sorted = as_real("boundary_displacements", boundary_displacements)[self._perm]
        err = float(np.max(np.abs(at_boundary - d_sorted)))
        return MeshDeformationResult(
            volume_displacements=vol,
            coefficients=alpha,
            boundary_error=err,
            timings=dict(self.timings),
        )
