"""Basic 3D point-cloud generators.

These supply the boundary-node sets whose pairwise Gaussian RBF
evaluations form the SPD matrix operator of Section IV-C.  All
generators return ``(n, 3)`` float64 arrays.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import as_points, check_positive

__all__ = ["fibonacci_sphere", "regular_grid", "random_cloud", "min_spacing"]

#: ``min_spacing``'s sort direction: no lattice plane is normal to it
_DIRECTION = np.array([1.0, 2.0**0.5, 3.0**0.5])


def fibonacci_sphere(
    n: int, radius: float = 1.0, center: np.ndarray | None = None
) -> np.ndarray:
    """Nearly-uniform points on a sphere via the Fibonacci lattice.

    This is the workhorse for synthetic virus capsids: it gives an
    unstructured but quasi-uniform surface sampling akin to a surface
    mesh extracted from a triangulated molecular envelope.
    """
    check_positive("n", n)
    check_positive("radius", radius)
    i = np.arange(n, dtype=np.float64)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    theta = 2.0 * np.pi * i / golden
    z = 1.0 - (2.0 * i + 1.0) / n
    r_xy = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = radius * np.column_stack([r_xy * np.cos(theta), r_xy * np.sin(theta), z])
    if center is not None:
        pts += np.asarray(center, dtype=np.float64)
    return pts


def regular_grid(n_per_dim: int, extent: float = 1.0) -> np.ndarray:
    """Points of a regular ``n³`` grid filling ``[0, extent]³``."""
    check_positive("n_per_dim", n_per_dim)
    check_positive("extent", extent)
    axis = np.linspace(0.0, extent, n_per_dim)
    xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])


def random_cloud(
    n: int, extent: float = 1.0, seed: int | None = None
) -> np.ndarray:
    """Uniform random points in ``[0, extent]³``."""
    check_positive("n", n)
    check_positive("extent", extent)
    rng = np.random.default_rng(seed)
    return extent * rng.random((n, 3))


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise distances, rounded as ``cKDTree`` rounds them."""
    d = a - b
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])


def _adjacent_ranks(c: np.ndarray) -> np.ndarray:
    """Cell coordinates from 1 with gaps cut to 2 (neighbours stay 1 apart)."""
    u, inv = np.unique(c, return_inverse=True)
    return np.cumsum(np.concatenate(([1], np.minimum(np.diff(u), 2))))[inv]


def min_spacing(points: np.ndarray) -> float:
    """Minimum pairwise distance, bitwise the minimum that
    ``scipy.spatial.cKDTree(points).query(points, k=2)`` returns.

    The paper's shape-parameter rule (Sec. IV-C) scales the Gaussian
    RBF by half this distance.  A bound ``h`` (each point to its next
    three along a fixed generic direction) sets cells of side ``h`` plus
    ``2**-48`` of the extent, a margin that covers the binning's
    rounding: every closer pair shares a cell or sits in one of its 13
    half-neighbours, five index ranges per point once sorted by cell.
    Cells are ranked per axis and per column, never multiplied out.
    """
    points = as_points("points", points)
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points")
    q = points[np.argsort(points @ _DIRECTION)]
    h = min(_distances(q[:-k], q[k:]).min() for k in range(1, min(4, n)))
    if h == 0.0:
        raise ValueError("point cloud contains duplicate points")
    lo = points.min(axis=0)
    side = h + float((points.max(axis=0) - lo).max()) * 2.0**-48
    cells = np.floor((points - lo) / side).astype(np.int64)
    cx, cy, cz = (_adjacent_ranks(c) for c in cells.T)
    ry, rz = cy.max() + 2, cz.max() + 2
    cols, col = np.unique(cx * ry + cy, return_inverse=True)
    key = col * rz + cz
    order = np.argsort(key)
    points, key, col, cz = points[order], key[order], col[order], cz[order]
    # the columns at (x, y + 1) and (x + 1, y - 1 .. y + 1); -1 if empty
    step = cols + np.array([[1], [ry - 1], [ry], [ry + 1]])
    ci = np.minimum(np.searchsorted(cols, step), len(cols) - 1)
    base = np.where(cols[ci] == step, ci, -1)[:, col] * rz + cz
    # partners of point i: the rest of its cell and the cell above, then
    # the cells at z - 1 .. z + 1 in each of those columns
    first = np.vstack((np.arange(1, n + 1), np.searchsorted(key, base - 1)))
    end = np.vstack((np.searchsorted(key, key + 1, "right"),
                     np.searchsorted(key, base + 1, "right")))
    for start, cnt in zip(first, end - first):
        i = np.repeat(np.arange(n), cnt)
        j = np.arange(len(i)) + np.repeat(start - np.cumsum(cnt) + cnt, cnt)
        h = np.min(_distances(points[i], points[j]), initial=h)
    return float(h)
