"""Tile-wise generation of the RBF matrix operator.

The paper never materializes the full dense matrix at once: tiles are
generated on demand (per task) and compressed immediately.  The
generator here mirrors that: ``tile(i, j)`` produces the ``b x b``
dense block of pairwise kernel evaluations between two point ranges.

Tiles come from coordinates prepared once, ``y = (x - centroid) / delta``:
one ``k = 5`` GEMM of rows ``[y_a, |y_a|^2, 1]`` by ``[-2 y_b, 1, |y_b|^2]``
gives the scaled squared distances, and the kernel is applied in place.
Centring confines the cancellation to the cloud's extent, wherever it
sits.  Upper tiles are their lower twins transposed and diagonal tiles
mirror their lower triangle, so ``tile(i, j) == tile(j, i).T`` bitwise.

An SPD safeguard: Gaussian RBF matrices are symmetric positive
definite in exact arithmetic, but for large shape parameters they are
numerically near-singular.  Like practical RBF solvers we add a small
diagonal regularization (``nugget``), expressed relative to the unit
diagonal, which does not perturb the interpolation beyond the TLR
accuracy threshold when chosen well below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.config import DTYPE
from repro.kernels.rbf import GaussianRBF, RadialBasisFunction
from repro.utils.validation import as_points, check_positive

__all__ = ["RBFMatrixGenerator"]

#: rounding head-room of :meth:`RBFMatrixGenerator.tile_norm_bound`:
#: relative on the sphere lengths (a few eps each), and per unit of
#: ``q_a + q_b`` on a computed ``s`` (a 5-term dot product, within
#: ``(2 gamma_5 + gamma_3)(q_a + q_b) ~ 6.5 eps (q_a + q_b)`` of exact;
#: DESIGN.md, level 0); then relative on the kernel value
_LENGTH_SLACK = 16.0 * np.finfo(DTYPE).eps
_VALUE_SLACK = 1.0e-9


@dataclass
class RBFMatrixGenerator:
    """Lazily generates tiles of ``A[i, j] = phi((||x_i - x_j||)/delta)``.

    Parameters
    ----------
    points:
        ``(n, 3)`` boundary-node coordinates (already reordered, e.g.
        along the Hilbert curve).
    shape_parameter:
        The Gaussian shape parameter ``delta`` (Sec. IV-C).
    tile_size:
        Tile edge ``b``; the last tile in each dimension may be short.
    kernel:
        The radial kernel (defaults to the paper's Gaussian).
    nugget:
        Relative diagonal regularization added to diagonal tiles.
    """

    points: np.ndarray
    shape_parameter: float
    tile_size: int
    kernel: RadialBasisFunction = field(default_factory=GaussianRBF)
    nugget: float = 1.0e-8

    def __post_init__(self) -> None:
        self.points = np.ascontiguousarray(as_points("points", self.points))
        check_positive("shape_parameter", self.shape_parameter)
        check_positive("tile_size", self.tile_size)
        if self.nugget < 0.0:
            raise ValueError(f"nugget must be >= 0, got {self.nugget}")
        self._centroid = self.points.mean(axis=0)
        self._left = self._lift(self.points)
        y, q = self._left[:, :3], self._left[:, 3]
        self._right = np.column_stack((-2.0 * y, np.ones(self.n), q)).T.copy()

    @property
    def n(self) -> int:
        """Matrix order (number of boundary nodes)."""
        return len(self.points)

    @property
    def n_tiles(self) -> int:
        """Number of tile rows/columns ``NT = ceil(n / b)``."""
        return -(-self.n // self.tile_size)

    def tile_range(self, i: int) -> tuple[int, int]:
        """Half-open row range ``[lo, hi)`` covered by tile index ``i``."""
        if not 0 <= i < self.n_tiles:
            raise IndexError(f"tile index {i} out of range [0, {self.n_tiles})")
        lo = i * self.tile_size
        return lo, min(lo + self.tile_size, self.n)

    def _lift(self, x: np.ndarray) -> np.ndarray:
        """Rows ``[y, |y|^2, 1]`` of ``y = (x - centroid) / delta``."""
        y = (x - self._centroid) / self.shape_parameter
        return np.column_stack((y, np.einsum("ij,ij->i", y, y), np.ones(len(y))))

    def _phi(self, s: np.ndarray) -> np.ndarray:
        """The kernel on scaled squared distances, in place (rounding
        below zero clamped)."""
        return self.kernel.of_squared(np.maximum(s, 0.0, out=s))

    def _block(self, rows: slice, cols: slice) -> np.ndarray:
        """Kernel block of ``rows`` below ``cols``, or of one range with
        it: mirrored exactly, zero self-distance, nugget added."""
        s = self._left[rows] @ self._right[:, cols]
        if rows != cols:
            return self._phi(s)
        np.copyto(s, s.T, where=np.tri(len(s), k=-1, dtype=bool).T)
        np.fill_diagonal(s, 0.0)
        a = self._phi(s)
        a[np.diag_indices_from(a)] += self.nugget
        return a

    def tile(self, i: int, j: int) -> np.ndarray:
        """Dense ``b x b`` tile ``A[i*b:(i+1)*b, j*b:(j+1)*b]``."""
        if i < j:
            return self.tile(j, i).T.copy()
        return self._block(slice(*self.tile_range(i)), slice(*self.tile_range(j)))

    def kernel_rows(self, x: np.ndarray) -> np.ndarray:
        """``phi(||x_a - x_b|| / delta)`` between arbitrary points ``x``
        and the generator's points, through the tiles' GEMM (no nugget)."""
        return self._phi(self._lift(np.asarray(x, dtype=DTYPE)) @ self._right)

    @cached_property
    def _tile_spheres(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per tile, in the prepared coordinates: bounding-sphere centre
        and radius, and the largest squared norm (one ``O(n)`` pass, on
        first use)."""
        nt = self.n_tiles
        centers = np.empty((nt, 3), dtype=DTYPE)
        radii = np.empty(nt, dtype=DTYPE)
        sqnorms = np.empty(nt, dtype=DTYPE)
        for i in range(nt):
            rows = self._left[slice(*self.tile_range(i))]  # [y, |y|^2, 1]
            y = rows[:, :3]
            centers[i] = 0.5 * (y.min(axis=0) + y.max(axis=0))
            radii[i] = np.sqrt(((y - centers[i]) ** 2).sum(axis=1).max())
            sqnorms[i] = rows[:, 3].max()
        return centers, radii, sqnorms

    def tile_norm_bound(self, i: int, j: int) -> float:
        """Upper bound on ``||tile(i, j)||_F`` from geometry alone.

        Every pair of points across the two tiles is at least
        ``d_min = ||c_i - c_j|| - r_i - r_j`` apart (bounding spheres),
        so for a kernel that declares ``decreasing`` every entry is at
        most ``phi(d_min / delta)`` and the Frobenius norm at most
        ``sqrt(rows * cols)`` times that — the geometric admissibility
        test, with no kernel value evaluated.  The bound is rounded
        upwards so that it also dominates the norm of the tile as
        :meth:`tile` *computes* it.  ``inf`` for kernels that make no
        such promise.
        """
        if not self.kernel.decreasing:
            return math.inf
        (lo_i, hi_i), (lo_j, hi_j) = self.tile_range(i), self.tile_range(j)
        centers, radii, sqnorms = self._tile_spheres
        apart = float(np.linalg.norm(centers[i] - centers[j]))
        reach = float(radii[i] + radii[j])
        gap = apart * (1.0 - _LENGTH_SLACK) - reach * (1.0 + _LENGTH_SLACK)
        s = max(gap, 0.0) ** 2 - _LENGTH_SLACK * float(sqnorms[i] + sqnorms[j])
        peak = float(self._phi(np.array(s)))
        if i == j:
            peak += self.nugget
        size = (hi_i - lo_i) * (hi_j - lo_j)
        return math.sqrt(size) * peak * (1.0 + _VALUE_SLACK)

    def dense(self) -> np.ndarray:
        """The full dense operator (laptop-scale validation only)."""
        return self._block(slice(0, self.n), slice(0, self.n))
