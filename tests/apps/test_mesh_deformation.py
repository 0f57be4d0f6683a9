"""Tests for the end-to-end RBF mesh-deformation application."""

import numpy as np
import pytest

from repro.apps.deformation_field import rigid_rotation
from repro.apps.mesh_deformation import RBFMeshDeformation
from repro.geometry import fibonacci_sphere, synthetic_virus
from repro.kernels import RBFMatrixGenerator


@pytest.fixture(scope="module")
def boundary():
    return synthetic_virus(n_points=900, seed=0)


@pytest.fixture(scope="module")
def solver(boundary):
    s = RBFMeshDeformation(boundary, accuracy=1e-6, tile_size=128)
    s.factorize()
    return s


class TestConstruction:
    def test_defaults(self, boundary):
        s = RBFMeshDeformation(boundary)
        assert s.n_boundary == len(boundary)
        assert s.shape_parameter > 0
        assert s.generator.tile_size >= 32

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            RBFMeshDeformation(np.zeros((10, 2)))
        with pytest.raises(ValueError):
            RBFMeshDeformation(np.zeros((2, 3)))


class TestDeformation:
    def test_boundary_interpolation_accuracy(self, solver, boundary):
        """The field must reproduce prescribed boundary displacements
        to roughly the compression accuracy (the paper's premise that
        1e-4 'is sufficient to satisfy the displacement accuracy')."""
        d_b = rigid_rotation(boundary, angle=0.05)
        res = solver.deform(boundary[:50], d_b)
        assert res.boundary_error < 1e-3

    def test_translation_reproduced_near_boundary(self, solver, boundary):
        d_b = np.tile([1e-3, 0.0, 0.0], (len(boundary), 1))  # a translation
        res = solver.deform(boundary[:20] * 1.001, d_b)
        # points a hair off the surface move almost exactly with it
        assert np.allclose(res.volume_displacements[:, 0], 1e-3, atol=2e-4)
        assert np.allclose(res.volume_displacements[:, 1:], 0.0, atol=2e-4)

    def test_far_field_decays(self, solver, boundary):
        """Gaussian RBF: displacement decays away from the boundary."""
        d_b = rigid_rotation(boundary, angle=0.05)
        far = np.array([[10.0, 10.0, 10.0]])
        res = solver.deform(far, d_b)
        assert np.abs(res.volume_displacements).max() < 1e-6

    def test_matches_dense_rbf_solution(self, boundary):
        """TLR pipeline vs a plain dense solve of the same system."""
        s = RBFMeshDeformation(boundary, accuracy=1e-8, tile_size=128, nugget=1e-6)
        d_b = rigid_rotation(boundary, angle=0.02)
        alpha_tlr = s.solve_coefficients(d_b)
        a = RBFMatrixGenerator(s.points, s.shape_parameter, 128, nugget=1e-6).dense()
        alpha_ref = np.linalg.solve(a, d_b[s._perm])
        # compare the resulting fields at probe points, not raw
        # coefficients (the system is ill-conditioned)
        probes = boundary[::90] * 1.02
        f_tlr = s.interpolate(probes, alpha_tlr)
        f_ref = s.interpolate(probes, alpha_ref)
        assert np.allclose(f_tlr, f_ref, atol=1e-5)

    def test_timings_recorded(self, solver, boundary):
        d_b = np.tile([1e-3, 0.0, 0.0], (len(boundary), 1))
        res = solver.deform(boundary[:10], d_b)
        for key in ("factorization", "solve", "interpolation"):
            assert key in res.timings

    def test_wrong_displacement_shape_raises(self, solver):
        with pytest.raises(ValueError):
            solver.solve_coefficients(np.zeros((3, 3)))

    def test_trim_and_notrim_agree(self, boundary):
        d_b = rigid_rotation(boundary, angle=0.03)
        kw = dict(accuracy=1e-7, tile_size=128)
        a = RBFMeshDeformation(boundary, trim=True, **kw).deform(boundary[:5], d_b)
        b = RBFMeshDeformation(boundary, trim=False, **kw).deform(boundary[:5], d_b)
        assert np.allclose(
            a.volume_displacements, b.volume_displacements, atol=1e-10
        )


class TestComplexInputs:
    """A complex input used to be solved or evaluated as its real part,
    with only a ComplexWarning: each entry point refuses it by dtype."""

    def test_solve_coefficients(self, solver):
        d = (1 + 1j) * np.ones((solver.n_boundary, 3))
        with pytest.raises(TypeError, match="boundary_displacements has complex dtype"):
            solver.solve_coefficients(d)

    def test_interpolate(self, solver):
        alpha = solver.solve_coefficients(np.ones((solver.n_boundary, 3)))
        with pytest.raises(TypeError, match="volume_points has complex dtype"):
            solver.interpolate((1 + 1j) * np.ones((4, 3)), alpha)

    def test_deform(self, solver):
        d = (1 + 1j) * np.ones((solver.n_boundary, 3))
        with pytest.raises(TypeError, match="complex dtype"):
            solver.deform(np.zeros((4, 3)), d)
