"""Tests for TLR triangular solves."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core.solver import solve_cholesky, solve_lower, solve_lower_transpose
from repro.core.tlr_cholesky import tlr_cholesky
from repro.linalg.tile_matrix import TLRMatrix


@pytest.fixture(scope="module")
def factored(request):
    """A factored well-conditioned SPD TLR matrix + dense reference."""
    rng = np.random.default_rng(7)
    n = 160
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.linspace(1.0, 5.0, n)) @ q.T
    t = TLRMatrix.from_dense(a, tile_size=48, accuracy=1e-12)
    result = tlr_cholesky(t)
    return result.factor, a


class TestSolveLower:
    def test_forward_substitution(self, factored):
        l, a = factored
        l_ref = np.linalg.cholesky(a)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(a.shape[0])
        y = solve_lower(l, b)
        assert np.allclose(y, sla.solve_triangular(l_ref, b, lower=True), atol=1e-7)

    def test_backward_substitution(self, factored):
        l, a = factored
        l_ref = np.linalg.cholesky(a)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(a.shape[0])
        x = solve_lower_transpose(l, b)
        ref = sla.solve_triangular(l_ref, b, lower=True, trans="T")
        assert np.allclose(x, ref, atol=1e-7)

    def test_multiple_rhs(self, factored):
        l, a = factored
        rng = np.random.default_rng(2)
        b = rng.standard_normal((a.shape[0], 3))
        x = solve_cholesky(l, b)
        assert x.shape == b.shape
        assert np.allclose(a @ x, b, atol=1e-6)

    def test_full_solve(self, factored):
        l, a = factored
        rng = np.random.default_rng(3)
        x_true = rng.standard_normal(a.shape[0])
        b = a @ x_true
        x = solve_cholesky(l, b)
        assert np.allclose(x, x_true, atol=1e-6)

    def test_rhs_not_mutated(self, factored):
        l, _ = factored
        b = np.ones(l.n)
        b0 = b.copy()
        solve_cholesky(l, b)
        assert np.array_equal(b, b0)

    def test_wrong_size_raises(self, factored):
        l, _ = factored
        with pytest.raises(ValueError):
            solve_lower(l, np.ones(l.n + 1))
        with pytest.raises(ValueError):
            solve_lower_transpose(l, np.ones(l.n - 1))
        with pytest.raises(ValueError):
            solve_cholesky(l, np.ones((l.n, 2, 2)))

    def test_sparse_factor_with_null_tiles(self, sparse_tlr, sparse_dense_ref):
        """Solve through a factor that contains null tiles."""
        result = tlr_cholesky(sparse_tlr.copy())
        rng = np.random.default_rng(4)
        b = rng.standard_normal(sparse_tlr.n)
        x = solve_cholesky(result.factor, b)
        # residual bounded by compression accuracy * conditioning
        rel = np.linalg.norm(sparse_dense_ref @ x - b) / np.linalg.norm(b)
        assert rel < 1e-2


class TestRHSBatchingSemantics:
    """The serving batcher's correctness contract: a blocked multi-RHS
    solve must agree with column-by-column single-RHS solves, and 1-D
    vs 2-D inputs must take the same numerical path."""

    def test_blocked_matches_columnwise(self, factored):
        l, _ = factored
        rng = np.random.default_rng(10)
        block = rng.standard_normal((l.n, 5))
        x_blocked = solve_cholesky(l, block)
        for j in range(block.shape[1]):
            x_single = solve_cholesky(l, block[:, j])
            assert np.allclose(x_blocked[:, j], x_single, rtol=1e-12, atol=1e-13)

    def test_blocked_matches_columnwise_forward(self, factored):
        l, _ = factored
        rng = np.random.default_rng(11)
        block = rng.standard_normal((l.n, 4))
        y_blocked = solve_lower(l, block)
        for j in range(block.shape[1]):
            assert np.allclose(
                y_blocked[:, j], solve_lower(l, block[:, j]),
                rtol=1e-12, atol=1e-13,
            )

    def test_1d_and_2d_single_column_identical(self, factored):
        """A 1-D rhs and the same rhs as an (n, 1) column go through
        the identical squeeze path in ``_as_matrix`` — bitwise equal."""
        l, _ = factored
        rng = np.random.default_rng(12)
        b = rng.standard_normal(l.n)
        for solve in (solve_lower, solve_lower_transpose, solve_cholesky):
            x1 = solve(l, b)
            x2 = solve(l, b[:, None])
            assert x1.ndim == 1 and x2.shape == (l.n, 1)
            assert np.array_equal(x1, x2[:, 0])

    def test_one_copy_solve_is_bitwise_the_two_pass_composition(self, factored):
        """``solve_cholesky`` runs the backward pass in the forward
        pass's buffer; the two public passes (one private copy each)
        are the reference.  The caller's rhs is never written."""
        l, _ = factored
        rng = np.random.default_rng(14)
        for shape in ((l.n,), (l.n, 1), (l.n, 5)):
            b = rng.standard_normal(shape)
            kept = b.copy()
            x = solve_cholesky(l, b)
            assert np.array_equal(x, solve_lower_transpose(l, solve_lower(l, b)))
            assert np.array_equal(b, kept) and not np.shares_memory(x, b)

    def test_blocked_sparse_factor_with_null_tiles(self, sparse_tlr):
        """Multi-RHS agreement holds on a factor containing null tiles
        (the structure-cache fast path)."""
        result = tlr_cholesky(sparse_tlr.copy())
        rng = np.random.default_rng(13)
        block = rng.standard_normal((sparse_tlr.n, 3))
        x_blocked = solve_cholesky(result.factor, block)
        for j in range(block.shape[1]):
            x_single = solve_cholesky(result.factor, block[:, j])
            # the sparse operator is ill-conditioned (solutions ~1e4),
            # so GEMM-vs-GEMV summation order shows up at ~1e-11 rel.
            diff = np.linalg.norm(x_blocked[:, j] - x_single)
            assert diff <= 1e-9 * np.linalg.norm(x_single)
