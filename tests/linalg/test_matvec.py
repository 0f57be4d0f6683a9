"""Tests for TLR matvec and iterative refinement."""

import numpy as np
import pytest

from repro.core.tlr_cholesky import tlr_cholesky
from repro.linalg.matvec import refine_solve, tlr_matvec
from repro.linalg.tile_matrix import TLRMatrix


#: fp64 tiles agree with the dense product to roundoff
MATVEC_ATOL = 1e-10


class TestTLRMatvec:
    def test_matches_dense(self, sparse_tlr, rng):
        x = rng.standard_normal(sparse_tlr.n)
        y = tlr_matvec(sparse_tlr, x)
        assert np.allclose(
            y, sparse_tlr.to_dense() @ x, atol=MATVEC_ATOL
        )

    def test_multi_rhs(self, sparse_tlr, rng):
        x = rng.standard_normal((sparse_tlr.n, 3))
        y = tlr_matvec(sparse_tlr, x)
        assert y.shape == x.shape
        assert np.allclose(
            y, sparse_tlr.to_dense() @ x, atol=MATVEC_ATOL
        )

    def test_identity_like(self, spd_matrix):
        t = TLRMatrix.from_dense(spd_matrix, 32, accuracy=1e-12)
        x = np.ones(spd_matrix.shape[0])
        assert np.allclose(tlr_matvec(t, x), spd_matrix @ x, atol=1e-9)

    def test_wrong_size_raises(self, sparse_tlr):
        with pytest.raises(ValueError):
            tlr_matvec(sparse_tlr, np.ones(sparse_tlr.n + 1))

    def test_complex_x_is_a_type_error(self, sparse_tlr):
        with pytest.raises(TypeError, match="complex dtype complex128"):
            tlr_matvec(sparse_tlr, np.ones(sparse_tlr.n) * 1j)


class TestRefineSolve:
    def test_refinement_reduces_residual(self, sparse_tlr, rng):
        a = sparse_tlr.copy()
        factor = tlr_cholesky(sparse_tlr.copy()).factor
        b = rng.standard_normal(a.n)
        res = refine_solve(a, factor, b, max_sweeps=4, rtol=1e-12)
        # residuals decrease (until stagnation at the compression level)
        assert res.residuals[-1] <= res.residuals[0]
        assert len(res.residuals) >= 2

    def test_converges_to_tolerance(self, sparse_tlr, rng):
        a = sparse_tlr.copy()
        factor = tlr_cholesky(sparse_tlr.copy()).factor
        b = rng.standard_normal(a.n)
        res = refine_solve(a, factor, b, max_sweeps=6, rtol=1e-8)
        assert res.converged
        assert res.residuals[-1] <= 1e-8

    def test_zero_rhs(self, sparse_tlr):
        a = sparse_tlr.copy()
        factor = tlr_cholesky(sparse_tlr.copy()).factor
        res = refine_solve(a, factor, np.zeros(a.n))
        assert res.converged
        assert np.allclose(res.x, 0.0)

    def test_complex_rhs_is_a_type_error(self, sparse_tlr):
        a = sparse_tlr.copy()
        with pytest.raises(TypeError, match="complex dtype complex128"):
            refine_solve(a, a, np.full(a.n, 1 + 1j))

    def test_multi_rhs_refinement(self, sparse_tlr, rng):
        a = sparse_tlr.copy()
        factor = tlr_cholesky(sparse_tlr.copy()).factor
        b = rng.standard_normal((a.n, 2))
        res = refine_solve(a, factor, b, max_sweeps=4, rtol=1e-8)
        assert res.x.shape == b.shape
        assert res.converged
