"""Mesh-quality metrics for deformed volume meshes.

The RBF approach is valued because it "produces high-quality
unstructured adaptive meshes" (Sec. IV-C): a good displacement field
deforms volume cells smoothly without inverting or collapsing them.
This module quantifies that: the volume mesh is tetrahedralized
(Delaunay), and cell volumes are compared before and after applying a
displacement field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import as_points, as_real

__all__ = ["tetrahedralize", "cell_volumes", "quality_report", "QualityReport"]


def tetrahedralize(points: np.ndarray) -> np.ndarray:
    """Delaunay tetrahedra of a 3D point cloud: ``(m, 4)`` indices."""
    points = as_points("points", points)
    if len(points) < 4:
        raise ValueError("need at least 4 points to tetrahedralize")
    from scipy.spatial import Delaunay

    return Delaunay(points).simplices


def cell_volumes(points: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Signed volumes of tetrahedral cells (vectorized determinant)."""
    points = np.asarray(points, dtype=np.float64)
    simplices = np.asarray(simplices)
    if simplices.ndim != 2 or simplices.shape[1] != 4:
        raise ValueError(f"simplices must have shape (m, 4), got {simplices.shape}")
    a = points[simplices[:, 0]]
    edges = points[simplices[:, 1:]] - a[:, None, :]  # (m, 3, 3)
    return np.linalg.det(edges) / 6.0


@dataclass(frozen=True)
class QualityReport:
    """Before/after deformation quality summary."""

    n_cells: int
    #: cells whose orientation flipped (volume changed sign) — a
    #: folded mesh; must be 0 for a usable deformation
    n_inverted: int
    #: min and max of |V_after| / |V_before|
    min_volume_ratio: float
    max_volume_ratio: float

    @property
    def valid(self) -> bool:
        return self.n_inverted == 0 and self.min_volume_ratio > 0.0


def quality_report(
    points: np.ndarray,
    displacements: np.ndarray,
    simplices: np.ndarray | None = None,
) -> QualityReport:
    """Quality of the mesh after applying ``displacements``.

    The tessellation is built on the *undeformed* points (or supplied
    explicitly) and re-evaluated on the deformed coordinates —
    detecting inversion and extreme compression/expansion of cells.
    """
    points = as_points("points", points)
    d = as_real("displacements", displacements)
    if d.shape != points.shape:
        raise ValueError(
            f"displacements shape {d.shape} != points shape {points.shape}"
        )
    if simplices is None:
        simplices = tetrahedralize(points)
    v0 = cell_volumes(points, simplices)
    v1 = cell_volumes(points + d, simplices)
    # ignore degenerate (near-zero) cells of the reference tessellation
    keep = np.abs(v0) > 1e-12 * np.abs(v0).max()
    v0, v1 = v0[keep], v1[keep]
    inverted = int(np.count_nonzero(np.sign(v1) != np.sign(v0)))
    ratio = np.abs(v1) / np.abs(v0)
    return QualityReport(
        n_cells=int(len(v0)),
        n_inverted=inverted,
        min_volume_ratio=float(ratio.min()),
        max_volume_ratio=float(ratio.max()),
    )
