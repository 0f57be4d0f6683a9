"""Tests for radial basis functions."""

import numpy as np
import pytest

from repro.kernels.rbf import (
    GaussianRBF,
    InverseMultiquadricRBF,
    MultiquadricRBF,
)

ALL_KERNELS = [
    GaussianRBF(),
    MultiquadricRBF(),
    InverseMultiquadricRBF(),
]


class TestGaussian:
    def test_values(self):
        phi = GaussianRBF()
        assert phi(np.array(0.0)) == 1.0
        assert phi(np.array(1.0)) == pytest.approx(np.exp(-1.0))

    def test_scaled_matches_paper_definition(self):
        """phi_delta(r) = phi(r / delta) (Sec. IV-C)."""
        phi = GaussianRBF()
        r = np.linspace(0, 1, 11)
        delta = 0.3
        assert np.allclose(phi.scaled(r, delta), np.exp(-((r / delta) ** 2)))

    def test_positive_definite_matrix(self, rng):
        """The Gaussian kernel matrix of distinct points is SPD."""
        pts = rng.random((40, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        a = GaussianRBF().scaled(d, 0.5)
        assert np.linalg.eigvalsh(a).min() > 0

    def test_monotone_decreasing(self):
        phi = GaussianRBF()
        r = np.linspace(0, 5, 50)
        v = phi(r)
        assert np.all(np.diff(v) < 0)


class TestOtherKernels:
    def test_multiquadric_values(self):
        phi = MultiquadricRBF()
        assert phi(np.array(0.0)) == 1.0
        assert phi(np.array(1.0)) == pytest.approx(np.sqrt(2.0))

    def test_inverse_multiquadric_values(self):
        phi = InverseMultiquadricRBF()
        assert phi(np.array(0.0)) == 1.0
        assert phi(np.array(1.0)) == pytest.approx(1.0 / np.sqrt(2.0))

    @pytest.mark.parametrize("kern", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_scaled_rejects_bad_delta(self, kern):
        with pytest.raises(ValueError):
            kern.scaled(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            kern.scaled(np.array([1.0]), -1.0)

    @pytest.mark.parametrize("kern", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_finite_on_range(self, kern):
        v = kern(np.linspace(0, 10, 101))
        assert np.all(np.isfinite(v))
