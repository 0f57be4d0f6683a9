"""Tests for mesh-quality metrics."""

import numpy as np
import pytest

from repro.apps.deformation_field import rigid_rotation
from repro.apps.mesh_quality import cell_volumes, quality_report, tetrahedralize
from repro.geometry import random_cloud


@pytest.fixture(scope="module")
def cloud():
    return random_cloud(300, extent=1.0, seed=9)


class TestTetrahedralize:
    def test_simplices_shape(self, cloud):
        s = tetrahedralize(cloud)
        assert s.ndim == 2 and s.shape[1] == 4
        assert s.max() < len(cloud)

    def test_rejects_too_few(self):
        with pytest.raises(ValueError):
            tetrahedralize(np.zeros((3, 3)))


class TestCellVolumes:
    def test_unit_tet(self):
        pts = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
        )
        v = cell_volumes(pts, np.array([[0, 1, 2, 3]]))
        assert abs(v[0]) == pytest.approx(1.0 / 6.0)

    def test_total_volume_of_convex_hull(self, cloud):
        s = tetrahedralize(cloud)
        total = np.abs(cell_volumes(cloud, s)).sum()
        # convex hull of a dense cube sample is nearly the cube
        assert 0.8 < total <= 1.0001


class TestQualityReport:
    def test_translation_is_perfect(self, cloud):
        d = np.tile([0.3, -0.1, 0.2], (len(cloud), 1))
        rep = quality_report(cloud, d)
        assert rep.valid
        assert rep.n_inverted == 0
        assert rep.min_volume_ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.max_volume_ratio == pytest.approx(1.0, abs=1e-9)

    def test_rigid_rotation_preserves_volumes(self, cloud):
        d = rigid_rotation(cloud, angle=0.7)
        rep = quality_report(cloud, d)
        assert rep.valid
        assert rep.min_volume_ratio == pytest.approx(1.0, abs=1e-6)

    def test_folding_detected(self, cloud):
        """Reflecting half the domain through a plane folds cells."""
        d = np.zeros_like(cloud)
        sel = cloud[:, 0] > 0.5
        d[sel, 0] = 2 * (0.5 - cloud[sel, 0])  # mirror across x=0.5
        rep = quality_report(cloud, d)
        assert rep.n_inverted > 0
        assert not rep.valid

    def test_shape_mismatch_rejected(self, cloud):
        with pytest.raises(ValueError):
            quality_report(cloud, np.zeros((5, 3)))

    def test_complex_displacements_rejected(self, cloud):
        """Their imaginary part used to be dropped with only a warning."""
        with pytest.raises(TypeError, match="displacements has complex dtype"):
            quality_report(cloud, (1 + 1j) * np.zeros(cloud.shape))

    def test_rbf_deformation_produces_valid_mesh(self):
        """End-to-end: an RBF-interpolated small rotation must not
        fold the volume mesh — the application-level guarantee."""
        from repro.apps.mesh_deformation import RBFMeshDeformation
        from repro.geometry import synthetic_virus

        boundary = synthetic_virus(n_points=600, seed=1)
        vol = random_cloud(400, extent=0.4, seed=2) - 0.2
        vol = vol[np.linalg.norm(vol, axis=1) > 0.08]
        solver = RBFMeshDeformation(boundary, accuracy=1e-6, tile_size=150)
        d_b = rigid_rotation(boundary, angle=0.05)
        res = solver.deform(vol, d_b)
        rep = quality_report(vol, res.volume_displacements)
        assert rep.n_inverted == 0
