"""Tests for tile-wise RBF matrix generation."""

import numpy as np
import pytest

from repro.kernels.covariance import MaternKernel
from repro.kernels.matgen import RBFMatrixGenerator
from repro.kernels.rbf import (
    GaussianRBF,
    InverseMultiquadricRBF,
    MultiquadricRBF,
)


KERNELS = [GaussianRBF(), MultiquadricRBF(), InverseMultiquadricRBF(), MaternKernel()]


@pytest.fixture()
def gen(rng):
    pts = rng.random((130, 3))
    return RBFMatrixGenerator(pts, shape_parameter=0.3, tile_size=50, nugget=1e-8)


class TestRBFMatrixGenerator:
    def test_tile_grid_geometry(self, gen):
        assert gen.n == 130
        assert gen.n_tiles == 3
        assert gen.tile_range(0) == (0, 50)
        assert gen.tile_range(2) == (100, 130)  # short last tile

    def test_tiles_assemble_to_dense(self, gen):
        dense = gen.dense()
        b = gen.tile_size
        for i in range(gen.n_tiles):
            for j in range(gen.n_tiles):
                tile = gen.tile(i, j)
                lo_i, hi_i = gen.tile_range(i)
                lo_j, hi_j = gen.tile_range(j)
                assert np.allclose(tile, dense[lo_i:hi_i, lo_j:hi_j])

    def test_symmetry(self, gen):
        """Exact, by construction: an upper tile is its lower twin
        transposed and a diagonal tile mirrors its lower triangle."""
        assert gen.tile_range(2) == (100, 130)  # ragged last tile
        for i in range(gen.n_tiles):
            for j in range(gen.n_tiles):
                assert np.array_equal(gen.tile(i, j), gen.tile(j, i).T), (i, j)

    def test_unit_diagonal_plus_nugget(self, gen):
        diag = np.diag(gen.tile(0, 0))
        assert np.allclose(diag, 1.0 + 1e-8)

    def test_nugget_only_on_diagonal_tiles(self, rng):
        pts = rng.random((60, 3))
        g0 = RBFMatrixGenerator(pts, 0.3, 30, nugget=0.0)
        g1 = RBFMatrixGenerator(pts, 0.3, 30, nugget=0.5)
        assert np.allclose(g0.tile(1, 0), g1.tile(1, 0))
        assert not np.allclose(g0.tile(1, 1), g1.tile(1, 1))

    def test_spd_with_nugget(self, rng):
        pts = rng.random((80, 3))
        g = RBFMatrixGenerator(pts, 0.5, 40, nugget=1e-8)
        np.linalg.cholesky(g.dense())  # must not raise

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("shift", [0.0, 1.0e2, 1.0e4])
    def test_entries_match_kernel_formula(self, rng, kernel, shift):
        """Every entry is phi(||x - y|| / delta) from coordinate
        differences to 1e-12 relative, wherever the cloud sits: the
        expanded square cancels only against the centred norms."""
        pts = rng.random((70, 3)) + shift
        g = RBFMatrixGenerator(pts, 0.25, 30, kernel=kernel, nugget=0.0)
        exact = kernel(np.linalg.norm(pts[:, None] - pts[None, :], axis=2) / 0.25)
        for i in range(g.n_tiles):
            for j in range(g.n_tiles):
                (lo_i, hi_i), (lo_j, hi_j) = g.tile_range(i), g.tile_range(j)
                ref = exact[lo_i:hi_i, lo_j:hi_j]
                big = ref > 1e-300
                err = np.abs(g.tile(i, j) - ref)[big] / ref[big]
                assert err.max() <= 1e-12, (i, j)

    def test_out_of_range_tile_raises(self, gen):
        with pytest.raises(IndexError):
            gen.tile(3, 0)
        with pytest.raises(IndexError):
            gen.tile_range(-1)

    def test_rejects_bad_inputs(self, rng):
        pts = rng.random((10, 3))
        with pytest.raises(ValueError):
            RBFMatrixGenerator(pts, shape_parameter=0.0, tile_size=5)
        with pytest.raises(ValueError):
            RBFMatrixGenerator(pts, shape_parameter=0.1, tile_size=0)
        with pytest.raises(ValueError):
            RBFMatrixGenerator(pts, 0.1, 5, nugget=-1.0)
        with pytest.raises(ValueError):
            RBFMatrixGenerator(rng.random((10, 2)), 0.1, 5)

    def test_rejects_complex_and_non_finite_points(self, rng):
        """A complex cloud used to lose its imaginary part with only a
        ComplexWarning, and a NaN point built NaN tiles."""
        pts = rng.random((10, 3))
        with pytest.raises(TypeError, match="complex dtype"):
            RBFMatrixGenerator(pts * (1 + 1j), 0.1, 5)
        pts[2, 1] = np.nan
        with pytest.raises(ValueError, match="1 non-finite"):
            RBFMatrixGenerator(pts, 0.1, 5)


DECREASING_KERNELS = [
    GaussianRBF(),
    InverseMultiquadricRBF(),
    MaternKernel(nu=0.5),
    MaternKernel(nu=1.5),
    MaternKernel(nu=2.5),
    MaternKernel(nu=0.8),  # the Bessel-function branch
]


def clustered_cloud(rng, n=130, clusters=4):
    """Tight clusters in generation order, so whole tiles sit far apart
    and others straddle two clusters."""
    centres = 3.0 * rng.random((clusters, 3))
    return centres[np.arange(n) * clusters // n] + 0.1 * rng.random((n, 3))


def rigid_motion(rng, shift):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r)), shift * rng.uniform(-1.0, 1.0, 3)


class TestTileNormBound:
    """``tile_norm_bound`` dominates the tile's norm without generating it."""

    @pytest.mark.parametrize("kernel", DECREASING_KERNELS, ids=repr)
    @pytest.mark.parametrize("shift", [0.0, 10.0, 1.0e4])
    def test_dominates_every_tile(self, rng, kernel, shift):
        assert kernel.decreasing
        q, t = rigid_motion(rng, shift)
        pts = clustered_cloud(rng) @ q.T + t
        for delta in (0.05, 0.5):
            g = RBFMatrixGenerator(pts, delta, tile_size=50, kernel=kernel, nugget=1e-3)
            assert g.tile_range(2) == (100, 130)  # ragged last tile
            for i in range(g.n_tiles):
                for j in range(g.n_tiles):
                    bound = g.tile_norm_bound(i, j)
                    assert bound >= np.linalg.norm(g.tile(i, j)), (i, j, delta)
                    assert bound == g.tile_norm_bound(j, i)

    def test_certifies_well_separated_tiles(self, rng):
        pts = clustered_cloud(rng, n=100, clusters=2)
        g = RBFMatrixGenerator(pts, 0.05, tile_size=50, nugget=0.0)
        gap = np.linalg.norm(pts[:50, None] - pts[None, 50:], axis=2).min()
        assert gap > 0.5  # two clusters, one per tile
        assert g.tile_norm_bound(1, 0) < 1e-12
        assert g.tile_norm_bound(0, 0) >= 50.0  # diagonal: phi(0) = 1

    def test_bound_is_tight_for_single_point_tiles(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.3, 0.4, 0.0]])
        g = RBFMatrixGenerator(pts, 1.0, tile_size=1, nugget=0.0)
        exact = np.exp(-0.25)
        assert exact <= g.tile_norm_bound(1, 0) <= exact * (1.0 + 1e-8)

    def test_rounded_up_past_the_cancellation_in_tile(self, rng):
        """Single-point tiles make the spheres exact, so only rounding
        separates bound and entry — and far from the origin ``tile``'s
        expanded-square distances lose digits the bound must cover."""
        for _ in range(300):
            shift = 10.0 ** rng.uniform(0.0, 5.0)
            pts = shift * rng.uniform(-1.0, 1.0, 3) + rng.random((2, 3))
            g = RBFMatrixGenerator(pts, 0.3, tile_size=1, nugget=0.0)
            assert g.tile_norm_bound(1, 0) >= abs(g.tile(1, 0)[0, 0])

    @pytest.mark.parametrize("kernel", [MultiquadricRBF()])
    def test_inf_for_kernels_that_do_not_decay(self, rng, kernel):
        assert not kernel.decreasing
        g = RBFMatrixGenerator(clustered_cloud(rng), 0.5, tile_size=50, kernel=kernel)
        assert g.tile_norm_bound(2, 0) == np.inf

    def test_out_of_range_tile_raises(self, gen):
        with pytest.raises(IndexError):
            gen.tile_norm_bound(3, 0)

