"""Tests for low-rank factors, compression and recompression."""

import numpy as np
import pytest

from repro.linalg import lowrank
from repro.linalg.kernels_tlr import gemm_update
from repro.linalg.lowrank import (
    LowRankFactor,
    compress_block,
    recompress,
    truncated_svd,
)
from repro.linalg.tile import DenseTile, LowRankTile


def low_rank_block(rng, m, n, k, scale=1.0):
    """An exactly rank-k block with singular values ~ scale."""
    return scale * (rng.standard_normal((m, k)) @ rng.standard_normal((k, n)))


class TestLowRankFactor:
    def test_reconstruction(self, rng):
        u = rng.standard_normal((8, 3))
        v = rng.standard_normal((6, 3))
        f = LowRankFactor(u, v)
        assert f.rank == 3
        assert f.shape == (8, 6)
        assert np.allclose(f.to_dense(), u @ v.T)

    def test_nbytes(self, rng):
        f = LowRankFactor(np.zeros((10, 2)), np.zeros((10, 2)))
        assert f.nbytes == 2 * 10 * 2 * 8

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ValueError):
            LowRankFactor(np.zeros((4, 2)), np.zeros((4, 3)))

    def test_rejects_rank_zero(self):
        with pytest.raises(ValueError):
            LowRankFactor(np.zeros((4, 0)), np.zeros((4, 0)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            LowRankFactor(np.zeros(4), np.zeros(4))

    def test_stores_fp64_copying_only_other_dtypes(self, rng):
        """Like a dense tile: fp32 input is converted (memory order
        kept), fp64 input is the same object, not a copy."""
        u = np.asfortranarray(rng.standard_normal((6, 2)))
        v = rng.standard_normal((5, 2))
        f = LowRankFactor(u, v)
        assert f.u is u and f.v is v
        g = LowRankFactor(u.astype(np.float32), v.astype(np.float32))
        assert g.u.dtype == g.v.dtype == np.float64
        assert g.u.flags.f_contiguous and g.v.flags.c_contiguous
        assert np.array_equal(g.u, u.astype(np.float32))


class TestTruncatedSVD:
    def test_recovers_exact_rank(self, rng):
        block = low_rank_block(rng, 30, 30, 4)
        f = truncated_svd(block, tol=1e-10)
        assert f.rank == 4
        assert np.allclose(f.to_dense(), block, atol=1e-9)

    def test_error_bounded_by_tolerance(self, rng):
        block = rng.standard_normal((40, 40))
        tol = 1e-1
        f = truncated_svd(block, tol=tol)
        # spectral-norm error of SVD truncation <= first dropped sigma <= tol
        err = np.linalg.norm(block - f.to_dense(), ord=2)
        assert err <= tol + 1e-12

    def test_null_below_threshold(self, rng):
        block = 1e-8 * rng.standard_normal((20, 20))
        assert truncated_svd(block, tol=1e-4) is None

    def test_relative_mode(self, rng):
        block = low_rank_block(rng, 25, 25, 3, scale=1e-6)
        # absolute tol 1e-4 kills it ...
        assert truncated_svd(block, tol=1e-4) is None
        # ... relative keeps the structure
        f = truncated_svd(block, tol=1e-4, relative=True)
        assert f is not None and f.rank == 3

    def test_rectangular(self, rng):
        block = low_rank_block(rng, 35, 20, 5)
        f = truncated_svd(block, tol=1e-10)
        assert f.shape == (35, 20)
        assert f.rank == 5

    def test_rejects_nonpositive_tol(self, rng):
        with pytest.raises(ValueError):
            truncated_svd(rng.standard_normal((4, 4)), tol=0.0)


class TestCompressBlock:
    def test_dense_fallback_for_high_rank(self, rng):
        block = rng.standard_normal((30, 30))  # full rank
        out = compress_block(block, tol=1e-12, max_rank=5)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, block)

    def test_low_rank_within_budget(self, rng):
        block = low_rank_block(rng, 30, 30, 3)
        out = compress_block(block, tol=1e-10, max_rank=10)
        assert isinstance(out, LowRankFactor)
        assert out.rank == 3

    def test_null(self, rng):
        assert compress_block(np.zeros((10, 10)), tol=1e-4) is None

    @pytest.mark.parametrize("policy", [None, {"method": "rand"}])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", [50, 100, 200])
    def test_non_finite_block_raises_before_lapack(
        self, rng, monkeypatch, side, bad, policy
    ):
        # one outcome at every tile size, whether or not it is sampled
        block = low_rank_block(rng, side, side, 3)
        block[side // 3, side // 2] = bad
        monkeypatch.setattr(lowrank, "_GESDD", pytest.fail)
        monkeypatch.setattr(lowrank, "_GEQRF", pytest.fail)
        with pytest.raises(np.linalg.LinAlgError, match="non-finite Frobenius norm"):
            compress_block(block, tol=1e-8, max_rank=side // 2, **(policy or {}))

    def test_non_finite_update_is_held_dense(self, rng):
        c = LowRankTile(
            LowRankFactor(rng.standard_normal((40, 2)), rng.standard_normal((40, 2)))
        )
        a = DenseTile(rng.standard_normal((40, 40)))
        b = DenseTile(rng.standard_normal((40, 40)))
        a.data[3, 5] = np.inf
        out = gemm_update(c, [(a, b)], tol=1e-8)
        assert isinstance(out, DenseTile) and not np.isfinite(out.data).all()


class TestRecompress:
    def test_rounds_inflated_rank(self, rng):
        """Stacking duplicated factors doubles the stored rank but not
        the numerical rank; rounding must recover it."""
        base = truncated_svd(low_rank_block(rng, 30, 30, 4), tol=1e-12)
        stacked = LowRankFactor(
            np.hstack([base.u, base.u]), np.hstack([0.5 * base.v, 0.5 * base.v])
        )
        rounded = recompress(stacked, tol=1e-10)
        assert rounded.rank == 4
        assert np.allclose(rounded.to_dense(), base.to_dense(), atol=1e-8)

    def test_cancellation_to_null(self, rng):
        base = truncated_svd(low_rank_block(rng, 20, 20, 3), tol=1e-12)
        cancel = LowRankFactor(
            np.hstack([base.u, -base.u]), np.hstack([base.v, base.v])
        )
        assert recompress(cancel, tol=1e-8) is None

    def test_matches_dense_recompression(self, rng):
        a = truncated_svd(low_rank_block(rng, 25, 25, 3), tol=1e-12)
        b = truncated_svd(low_rank_block(rng, 25, 25, 2), tol=1e-12)
        stacked = LowRankFactor(np.hstack([a.u, b.u]), np.hstack([a.v, b.v]))
        rounded = recompress(stacked, tol=1e-9)
        direct = truncated_svd(a.to_dense() + b.to_dense(), tol=1e-9)
        assert rounded.rank == direct.rank
        assert np.allclose(rounded.to_dense(), direct.to_dense(), atol=1e-7)

    def test_rank0_returned_untouched(self):
        """Duck-typed rank-0 factors (LowRankFactor itself forbids
        them) short-circuit: nothing to round."""

        class EmptyFactor:
            rank = 0
            shape = (8, 8)

        f = EmptyFactor()
        assert recompress(f, tol=1e-8) is f

    def test_high_rank_takes_dense_path(self, rng):
        """Combined rank >= half the tile dimension routes through one
        dense SVD; the truncation rule (and thus the result) is the
        same as the economy QR pipeline's."""
        m = 24
        # rank 16 of 24: well past the half-dimension crossover
        a = truncated_svd(low_rank_block(rng, m, m, 9), tol=1e-12)
        b = truncated_svd(low_rank_block(rng, m, m, 7), tol=1e-12)
        stacked = LowRankFactor(np.hstack([a.u, b.u]), np.hstack([a.v, b.v]))
        assert stacked.rank >= m // 2
        rounded = recompress(stacked, tol=1e-9)
        direct = truncated_svd(stacked.to_dense(), tol=1e-9)
        assert rounded.rank == direct.rank
        assert np.allclose(rounded.to_dense(), direct.to_dense(), atol=1e-7)

    def test_high_rank_cancellation_to_null(self, rng):
        base = truncated_svd(low_rank_block(rng, 12, 12, 6), tol=1e-12)
        cancel = LowRankFactor(
            np.hstack([base.u, -base.u]), np.hstack([base.v, base.v])
        )
        assert cancel.rank >= 6  # dense-path regime on a 12x12 tile
        assert recompress(cancel, tol=1e-8) is None
