"""Tests for Matern covariance kernels."""

import numpy as np
import pytest

from repro.kernels.covariance import MaternKernel


class TestMaternClosedForms:
    def test_exponential(self):
        k = MaternKernel(nu=0.5)
        r = np.linspace(0, 3, 7)
        assert np.allclose(k(r), np.exp(-r))

    def test_three_half(self):
        k = MaternKernel(nu=1.5)
        r = np.array([0.0, 1.0])
        c = np.sqrt(3.0)
        assert k(r)[0] == 1.0
        assert k(r)[1] == pytest.approx((1 + c) * np.exp(-c))

    def test_five_half(self):
        k = MaternKernel(nu=2.5)
        c = np.sqrt(5.0)
        assert k(np.array([1.0]))[0] == pytest.approx(
            (1 + c + c * c / 3) * np.exp(-c)
        )

    def test_general_nu_matches_half_integer(self):
        """The Bessel form must agree with the closed forms."""
        r = np.linspace(0.01, 4, 40)
        for nu in (0.5, 1.5):
            closed = MaternKernel(nu=nu)
            # force the Bessel path with a nearby nu
            bessel = MaternKernel(nu=nu + 1e-12)
            assert np.allclose(bessel(r), closed(r), atol=1e-6)

    def test_unit_variance_at_zero(self):
        for nu in (0.5, 1.5, 2.5, 0.8):
            assert MaternKernel(nu=nu)(np.array([0.0]))[0] == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        r = np.linspace(0, 5, 100)
        for nu in (0.5, 1.5, 2.5):
            v = MaternKernel(nu=nu)(r)
            assert np.all(np.diff(v) <= 1e-12)

    def test_spd_covariance_matrix(self, rng):
        pts = rng.random((60, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        for nu in (0.5, 1.5, 2.5):
            c = MaternKernel(nu=nu).scaled(d, 0.3)
            assert np.linalg.eigvalsh(c).min() > -1e-10

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            MaternKernel(nu=0.0)(np.array([1.0]))

    def test_smoothness_ordering(self):
        """Higher nu -> smoother (flatter near 0)."""
        r = np.array([0.1])
        v = [MaternKernel(nu=nu)(r)[0] for nu in (0.5, 1.5, 2.5)]
        assert v[0] < v[1] < v[2]
