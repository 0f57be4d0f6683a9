"""Tests for point-cloud generators and the virus workload."""

import numpy as np
import pytest

from repro.geometry.pointclouds import (
    fibonacci_sphere,
    min_spacing,
    random_cloud,
    regular_grid,
)
from repro.geometry.population import virus_population
from repro.geometry.virus import synthetic_virus


class TestFibonacciSphere:
    def test_points_on_sphere(self):
        pts = fibonacci_sphere(500, radius=2.0)
        r = np.linalg.norm(pts, axis=1)
        assert np.allclose(r, 2.0, atol=1e-12)

    def test_centering(self):
        pts = fibonacci_sphere(100, radius=1.0, center=[5.0, 5.0, 5.0])
        assert np.allclose(pts.mean(axis=0), [5, 5, 5], atol=0.1)

    def test_quasi_uniform(self):
        """Nearest-neighbour distances should be tightly clustered."""
        pts = fibonacci_sphere(1000)
        from scipy.spatial import cKDTree

        d, _ = cKDTree(pts).query(pts, k=2)
        nn = d[:, 1]
        assert nn.max() / nn.min() < 4.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            fibonacci_sphere(0)
        with pytest.raises(ValueError):
            fibonacci_sphere(10, radius=-1.0)


class TestGrids:
    def test_regular_grid_shape(self):
        pts = regular_grid(4, extent=2.0)
        assert pts.shape == (64, 3)
        assert pts.min() == 0.0
        assert pts.max() == 2.0

    def test_random_cloud_bounds(self):
        pts = random_cloud(100, extent=3.0, seed=0)
        assert pts.shape == (100, 3)
        assert pts.min() >= 0.0
        assert pts.max() <= 3.0

    def test_random_cloud_deterministic(self):
        assert np.array_equal(random_cloud(10, seed=5), random_cloud(10, seed=5))


class TestMinSpacing:
    def test_known_spacing(self):
        pts = regular_grid(3, extent=2.0)  # spacing 1.0
        assert min_spacing(pts) == pytest.approx(1.0)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            min_spacing(np.zeros((2, 3)))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            min_spacing(np.zeros((1, 3)))

    def test_complex_points_are_a_type_error(self):
        """The cast used to keep the real part's spacing, with a warning."""
        pts = regular_grid(3) * (1 + 1j)
        with pytest.raises(TypeError, match="complex dtype"):
            min_spacing(pts)

    def test_non_finite_point_is_a_value_error(self):
        pts = regular_grid(3)
        pts[5, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            min_spacing(pts)


class TestSyntheticVirus:
    def test_point_count_exact(self):
        pts = synthetic_virus(n_points=1000, seed=0)
        assert pts.shape == (1000, 3)

    def test_diameter(self):
        pts = synthetic_virus(n_points=2000, diameter=0.1, seed=0)
        r = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
        # capsid radius 0.05; spikes extend ~30% beyond
        assert r.max() <= 0.05 * 1.5
        assert r.max() > 0.05  # spikes protrude

    def test_no_spikes(self):
        pts = synthetic_virus(n_points=500, n_spikes=0, seed=0)
        r = np.linalg.norm(pts, axis=1)
        assert np.allclose(r, 0.05, atol=1e-12)

    def test_centering(self):
        c = np.array([1.0, 2.0, 3.0])
        pts = synthetic_virus(n_points=500, center=c, seed=0)
        assert np.linalg.norm(pts.mean(axis=0) - c) < 0.05


class TestVirusPopulation:
    def test_total_points(self):
        pts = virus_population(3, points_per_virus=200, seed=0)
        assert pts.shape == (600, 3)

    def test_inside_cube(self):
        pts = virus_population(5, points_per_virus=100, cube_edge=1.7, seed=0)
        assert pts.min() >= 0.0
        assert pts.max() <= 1.7

    def test_virions_do_not_overlap(self):
        pts = virus_population(4, points_per_virus=300, seed=2, reorder=False)
        centers = pts.reshape(4, 300, 3).mean(axis=1)
        for i in range(4):
            for j in range(i):
                assert np.linalg.norm(centers[i] - centers[j]) > 0.1

    def test_hilbert_reorder_improves_locality(self):
        kw = dict(points_per_virus=300, cube_edge=1.7, seed=3)
        ordered = virus_population(4, reorder=True, **kw)
        raw = virus_population(4, reorder=False, **kw)
        d_o = np.linalg.norm(np.diff(ordered, axis=0), axis=1).mean()
        d_r = np.linalg.norm(np.diff(raw, axis=0), axis=1).mean()
        assert d_o < d_r

    def test_too_many_viruses_raises(self):
        with pytest.raises((RuntimeError, ValueError)):
            virus_population(
                4, points_per_virus=10, cube_edge=0.15, seed=0
            )

    def test_deterministic(self):
        a = virus_population(2, points_per_virus=100, seed=7)
        b = virus_population(2, points_per_virus=100, seed=7)
        assert np.array_equal(a, b)
