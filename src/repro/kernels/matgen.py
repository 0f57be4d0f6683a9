"""Tile-wise generation of the RBF matrix operator.

The paper never materializes the full dense matrix at once: tiles are
generated on demand (per task) and compressed immediately.  The
generator here mirrors that: ``tile(i, j)`` produces the ``b x b``
dense block of pairwise kernel evaluations between two point ranges.

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
from repro.utils.validation import check_positive

__all__ = ["RBFMatrixGenerator", "dense_rbf_matrix"]

#: rounding head-room of :meth:`RBFMatrixGenerator.tile_norm_bound`:
#: relative slack on every computed length (sphere distances, and the
#: cancellation in ``_pairwise_distances``, which scales with the
#: squared point norms), and on the kernel value itself
_LENGTH_SLACK = 64.0 * np.finfo(DTYPE).eps
_VALUE_SLACK = 1.0e-9


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix between point sets ``a`` and ``b``.

    Uses the expanded-square formulation (one GEMM) rather than
    broadcasting the full ``(m, n, 3)`` difference tensor.
    """
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    sq = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


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
        self.points = np.ascontiguousarray(self.points, dtype=DTYPE)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError(
                f"points must have shape (n, 3), got {self.points.shape}"
            )
        check_positive("shape_parameter", self.shape_parameter)
        check_positive("tile_size", self.tile_size)
        if self.nugget < 0.0:
            raise ValueError(f"nugget must be >= 0, got {self.nugget}")

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

    def tile(self, i: int, j: int) -> np.ndarray:
        """Dense ``b x b`` tile ``A[i*b:(i+1)*b, j*b:(j+1)*b]``."""
        ri = slice(*self.tile_range(i))
        rj = slice(*self.tile_range(j))
        dist = _pairwise_distances(self.points[ri], self.points[rj])
        block = self.kernel.scaled(dist, self.shape_parameter)
        if i == j and self.nugget > 0.0:
            block[np.diag_indices_from(block)] += self.nugget
        return np.ascontiguousarray(block, dtype=DTYPE)

    @cached_property
    def _tile_spheres(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per tile: bounding-sphere centre and radius, and the largest
        squared point norm (one ``O(n)`` pass, on first use)."""
        nt = self.n_tiles
        centers = np.empty((nt, 3), dtype=DTYPE)
        radii = np.empty(nt, dtype=DTYPE)
        sqnorms = np.empty(nt, dtype=DTYPE)
        for i in range(nt):
            pts = self.points[slice(*self.tile_range(i))]
            centers[i] = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
            radii[i] = np.sqrt(((pts - centers[i]) ** 2).sum(axis=1).max())
            sqnorms[i] = (pts * pts).sum(axis=1).max()
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
        sq = max(gap, 0.0) ** 2 - _LENGTH_SLACK * float(sqnorms[i] + sqnorms[j])
        d_min = math.sqrt(max(sq, 0.0))
        peak = float(self.kernel.scaled(d_min, self.shape_parameter))
        if i == j:
            peak += self.nugget
        size = (hi_i - lo_i) * (hi_j - lo_j)
        return math.sqrt(size) * peak * (1.0 + _VALUE_SLACK)

    def dense(self) -> np.ndarray:
        """The full dense operator (laptop-scale validation only)."""
        dist = _pairwise_distances(self.points, self.points)
        a = self.kernel.scaled(dist, self.shape_parameter)
        if self.nugget > 0.0:
            a[np.diag_indices_from(a)] += self.nugget
        return np.ascontiguousarray(a, dtype=DTYPE)


def dense_rbf_matrix(
    points: np.ndarray,
    shape_parameter: float,
    kernel: RadialBasisFunction | None = None,
    nugget: float = 1.0e-8,
) -> np.ndarray:
    """Convenience wrapper: the full dense RBF operator."""
    gen = RBFMatrixGenerator(
        points=np.asarray(points),
        shape_parameter=shape_parameter,
        tile_size=max(1, len(points)),
        kernel=kernel if kernel is not None else GaussianRBF(),
        nugget=nugget,
    )
    return gen.dense()
