"""Boundary-displacement scenarios for mesh-deformation experiments.

Each generator maps boundary node coordinates to prescribed
displacements ``d_b`` — the right-hand sides of the RBF interpolation
system (Section IV-C).  They model the motions CFD moving-body
simulations impose: rigid rotation and radial inflation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import as_points

__all__ = ["rigid_rotation", "radial_expansion"]


def rigid_rotation(
    points: np.ndarray,
    angle: float,
    axis: np.ndarray = (0.0, 0.0, 1.0),
    center: np.ndarray | None = None,
) -> np.ndarray:
    """Displacements of a rigid rotation by ``angle`` radians.

    Rodrigues' formula about ``axis`` through ``center`` (defaults to
    the centroid).
    """
    points = as_points("points", points)
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("rotation axis must be non-zero")
    axis = axis / norm
    c = points.mean(axis=0) if center is None else np.asarray(center, float)
    rel = points - c
    cos, sin = np.cos(angle), np.sin(angle)
    rotated = (
        rel * cos
        + np.cross(axis, rel) * sin
        + np.outer(rel @ axis, axis) * (1.0 - cos)
    )
    return rotated - rel


def radial_expansion(
    points: np.ndarray, factor: float, center: np.ndarray | None = None
) -> np.ndarray:
    """Radial inflation: each point moves away from ``center`` so that
    distances scale by ``1 + factor``."""
    points = as_points("points", points)
    c = points.mean(axis=0) if center is None else np.asarray(center, float)
    return factor * (points - c)
