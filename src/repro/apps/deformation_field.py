"""Boundary-displacement scenarios for mesh-deformation experiments.

Each generator maps boundary node coordinates to prescribed
displacements ``d_b`` — the right-hand sides of the RBF interpolation
system (Section IV-C).  They model the motions CFD moving-body
simulations impose: rigid motion, bending of a flexible body, and
radial inflation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import as_points

__all__ = ["rigid_rotation", "translation", "bending", "radial_expansion"]


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


def translation(points: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Uniform translation by ``vector``."""
    points = as_points("points", points)
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (3,):
        raise ValueError(f"vector must have shape (3,), got {vector.shape}")
    return np.broadcast_to(vector, points.shape).copy()


def bending(
    points: np.ndarray, amplitude: float, axis: int = 0, out_axis: int = 2
) -> np.ndarray:
    """Quadratic bending: displacement along ``out_axis`` grows with
    the squared (normalized) coordinate along ``axis`` — a cantilever-
    like deflection."""
    points = as_points("points", points)
    if axis == out_axis:
        raise ValueError("bending axis and output axis must differ")
    x = points[:, axis]
    span = x.max() - x.min()
    xi = (x - x.min()) / span if span > 0 else np.zeros_like(x)
    d = np.zeros_like(points)
    d[:, out_axis] = amplitude * xi**2
    return d


def radial_expansion(
    points: np.ndarray, factor: float, center: np.ndarray | None = None
) -> np.ndarray:
    """Radial inflation: each point moves away from ``center`` so that
    distances scale by ``1 + factor``."""
    points = as_points("points", points)
    c = points.mean(axis=0) if center is None else np.asarray(center, float)
    return factor * (points - c)
