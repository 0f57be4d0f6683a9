"""Tests for the Gaussian log-likelihood application."""

import numpy as np
import pytest

from repro.apps.spatial_statistics import GaussianLogLikelihood
from repro.kernels.covariance import MaternKernel


@pytest.fixture(scope="module")
def sites(rng):
    return np.random.default_rng(11).random((400, 3))


class TestLogLikelihood:
    def test_matches_dense_reference(self, sites):
        """TLR likelihood == dense numpy likelihood within tolerance."""
        ell = 0.3
        nugget = 1e-2
        gl = GaussianLogLikelihood(
            sites, nu=0.5, accuracy=1e-10, tile_size=100, nugget=nugget
        )
        rng = np.random.default_rng(0)
        z = rng.standard_normal(len(sites))
        res = gl.evaluate(z, ell)

        d = np.linalg.norm(sites[:, None] - sites[None, :], axis=2)
        sigma = MaternKernel(nu=0.5).scaled(d, ell) + nugget * np.eye(len(sites))
        sign, ld = np.linalg.slogdet(sigma)
        quad = z @ np.linalg.solve(sigma, z)
        ref = -0.5 * (quad + ld + len(sites) * np.log(2 * np.pi))
        assert res.log_likelihood == pytest.approx(ref, rel=1e-6)
        assert res.logdet == pytest.approx(ld, rel=1e-6)
        assert res.quadratic_form == pytest.approx(quad, rel=1e-6)

    def test_likelihood_peaks_near_true_length_scale(self, sites):
        """Sampling z from Sigma(ell*) and scanning ell: the
        likelihood should prefer scales near ell* over far ones."""
        ell_true = 0.25
        d = np.linalg.norm(sites[:, None] - sites[None, :], axis=2)
        sigma = MaternKernel(nu=0.5).scaled(d, ell_true) + 1e-2 * np.eye(
            len(sites)
        )
        rng = np.random.default_rng(5)
        z = np.linalg.cholesky(sigma) @ rng.standard_normal(len(sites))
        gl = GaussianLogLikelihood(
            sites, nu=0.5, accuracy=1e-10, tile_size=100, nugget=1e-2
        )
        lls = {ell: gl.evaluate(z, ell).log_likelihood
               for ell in (0.05, 0.25, 1.5)}
        assert lls[0.25] > lls[0.05]
        assert lls[0.25] > lls[1.5]

    def test_input_validation(self, sites):
        gl = GaussianLogLikelihood(sites, tile_size=100)
        with pytest.raises(ValueError):
            gl.evaluate(np.zeros(3), 0.3)
        with pytest.raises(ValueError):
            gl.evaluate(np.zeros(len(sites)), -1.0)
        with pytest.raises(ValueError):
            GaussianLogLikelihood(np.zeros((4, 2)))

    def test_matern_smoothness_variants(self, sites):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(len(sites))
        for nu in (0.5, 1.5):
            gl = GaussianLogLikelihood(
                sites, nu=nu, accuracy=1e-8, tile_size=100, nugget=1e-2
            )
            res = gl.evaluate(z, 0.2)
            assert np.isfinite(res.log_likelihood)


def test_complex_observations_are_a_type_error(sites):
    """``evaluate`` used to take the real part of a complex ``z``."""
    gl = GaussianLogLikelihood(sites, nu=0.5, tile_size=100)
    with pytest.raises(TypeError, match="z has complex dtype"):
        gl.evaluate((1 + 1j) * np.ones(len(sites)), 0.3)
