"""Integration tests with uneven tiling (matrix order not divisible
by the tile size — the short last tile every real run hits)."""

import numpy as np
import pytest

from repro.core import solve_cholesky, tlr_cholesky
from repro.linalg.matvec import tlr_matvec
from repro.linalg.tile_matrix import TLRMatrix


@pytest.fixture(scope="module")
def uneven_spd():
    rng = np.random.default_rng(0)
    n = 137  # tiles of 50 -> 50 + 50 + 37
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.linspace(1.0, 8.0, n)) @ q.T


class TestUnevenCholesky:
    def test_factorization(self, uneven_spd):
        t = TLRMatrix.from_dense(uneven_spd, 50, accuracy=1e-12)
        assert t.tile(2, 2).shape == (37, 37)
        assert t.tile(2, 0).shape == (37, 50)
        r = tlr_cholesky(t)
        assert r.residual(uneven_spd) < 1e-12

    def test_solve(self, uneven_spd):
        t = TLRMatrix.from_dense(uneven_spd, 50, accuracy=1e-12)
        r = tlr_cholesky(t)
        x = solve_cholesky(r.factor, uneven_spd @ np.ones(len(uneven_spd)))
        assert np.allclose(x, 1.0, atol=1e-10)

    def test_matvec(self, uneven_spd):
        t = TLRMatrix.from_dense(uneven_spd, 50, accuracy=1e-12)
        x = np.arange(len(uneven_spd), dtype=float)
        assert np.allclose(tlr_matvec(t, x), uneven_spd @ x, atol=1e-8)

    def test_trim_and_untrimmed_agree(self, uneven_spd):
        a1 = tlr_cholesky(
            TLRMatrix.from_dense(uneven_spd, 50, accuracy=1e-12), trim=True
        )
        a2 = tlr_cholesky(
            TLRMatrix.from_dense(uneven_spd, 50, accuracy=1e-12), trim=False
        )
        assert np.allclose(
            a1.factor.to_dense(symmetrize=False),
            a2.factor.to_dense(symmetrize=False),
            atol=1e-12,
        )


    def test_tiny_last_tile(self):
        """Extreme case: last tile is a single row/column."""
        rng = np.random.default_rng(1)
        n = 49  # tiles of 16 -> 16+16+16+1
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.linspace(1.0, 4.0, n)) @ q.T
        t = TLRMatrix.from_dense(a, 16, accuracy=1e-12)
        assert t.tile(3, 3).shape == (1, 1)
        r = tlr_cholesky(t)
        assert r.residual(a) < 1e-12
