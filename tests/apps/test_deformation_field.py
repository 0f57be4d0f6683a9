"""Tests for boundary displacement scenarios."""

import numpy as np
import pytest

from repro.apps.deformation_field import radial_expansion, rigid_rotation
from repro.geometry import fibonacci_sphere


@pytest.fixture()
def sphere():
    return fibonacci_sphere(200, radius=1.0)


class TestRigidRotation:
    def test_preserves_distances(self, sphere):
        d = rigid_rotation(sphere, angle=0.3)
        moved = sphere + d
        c = sphere.mean(axis=0)
        assert np.allclose(
            np.linalg.norm(moved - c, axis=1),
            np.linalg.norm(sphere - c, axis=1),
            atol=1e-12,
        )

    def test_zero_angle_no_motion(self, sphere):
        assert np.allclose(rigid_rotation(sphere, 0.0), 0.0)

    def test_known_90_degrees(self):
        pts = np.array([[1.0, 0.0, 0.0]])
        d = rigid_rotation(pts, np.pi / 2, axis=[0, 0, 1], center=[0, 0, 0])
        assert np.allclose(pts + d, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_axis_points_fixed(self):
        pts = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -1.0]])
        d = rigid_rotation(pts, 1.0, axis=[0, 0, 1], center=[0, 0, 0])
        assert np.allclose(d, 0.0, atol=1e-12)

    def test_zero_axis_rejected(self, sphere):
        with pytest.raises(ValueError):
            rigid_rotation(sphere, 1.0, axis=[0, 0, 0])


class TestOthers:
    def test_radial_expansion_scales(self, sphere):
        d = radial_expansion(sphere, factor=0.1)
        moved = sphere + d
        c = sphere.mean(axis=0)
        assert np.allclose(
            np.linalg.norm(moved - c, axis=1),
            1.1 * np.linalg.norm(sphere - c, axis=1),
            atol=1e-10,
        )
