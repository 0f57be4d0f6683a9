"""Tests for dense and TLR tile kernels: the four Cholesky kernels
must be algebraically equivalent across all tile-representation
combinations (the paper's mixture of data structures)."""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.linalg import kernels_dense as kd
from repro.linalg.kernels_dense import DiagonalShiftPolicy
from repro.linalg.kernels_tlr import (
    gemm_tile,
    gemm_update,
    potrf_tile,
    potrf_tile_shifted,
    syrk_tile,
    syrk_update,
    trsm_tile,
)
from repro.linalg.lowrank import LowRankFactor, truncated_svd
from repro.linalg.tile import DenseTile, LowRankTile, NullTile


def lr_tile(rng, n, k, scale=1.0):
    block = scale * rng.standard_normal((n, k)) @ rng.standard_normal((k, n))
    return LowRankTile(truncated_svd(block, tol=1e-12))


def spd_tile(rng, n):
    a = rng.standard_normal((n, n))
    return DenseTile(a @ a.T + n * np.eye(n))


class TestDenseKernels:
    def test_potrf(self, rng):
        a = spd_tile(rng, 16).data
        l = kd.potrf(a)
        assert np.allclose(np.tril(l) @ np.tril(l).T, a)

    def test_potrf_raises_on_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            kd.potrf(-np.eye(4))

    def test_trsm(self, rng):
        l = kd.potrf(spd_tile(rng, 12).data)
        a = rng.standard_normal((12, 12))
        out = kd.trsm(l, a)
        assert np.allclose(out @ l.T, a)

    def test_syrk(self, rng):
        c = rng.standard_normal((10, 10))
        a = rng.standard_normal((10, 10))
        assert np.allclose(kd.syrk(c, a), c - a @ a.T)

    def test_gemm(self, rng):
        c = rng.standard_normal((10, 10))
        a = rng.standard_normal((10, 10))
        b = rng.standard_normal((10, 10))
        assert np.allclose(kd.gemm(c, a, b), c - a @ b.T)


class TestPotrfTile:
    def test_dense(self, rng):
        a = spd_tile(rng, 16)
        l = potrf_tile(a)
        assert isinstance(l, DenseTile)
        assert np.allclose(np.tril(l.data) @ np.tril(l.data).T, a.data)

    def test_rejects_non_dense(self, rng):
        with pytest.raises(TypeError):
            potrf_tile(lr_tile(rng, 8, 2))
        with pytest.raises(TypeError):
            potrf_tile(NullTile((8, 8)))

    def test_non_spd_raises_without_policy_and_shifts_with_one(self):
        a = DenseTile(np.diag([1.0, 1.0, -1e-10]))
        with pytest.raises(np.linalg.LinAlgError):
            potrf_tile(a)
        policy = DiagonalShiftPolicy(max_attempts=5, initial_relative=1e-12, growth=10.0)
        l, shift = potrf_tile_shifted(a, policy)
        assert shift > 0.0
        assert np.allclose(l.data @ l.data.T, a.data + shift * np.eye(3), atol=1e-12)


class TestTrsmTile:
    @pytest.fixture()
    def l_kk(self, rng):
        return potrf_tile(spd_tile(rng, 16))

    def test_null_passthrough(self, l_kk):
        t = NullTile((16, 16))
        assert trsm_tile(l_kk, t) is t

    def test_low_rank(self, rng, l_kk):
        a = lr_tile(rng, 16, 3)
        out = trsm_tile(l_kk, a)
        assert isinstance(out, LowRankTile)
        assert out.rank == 3  # TRSM never changes the rank
        ref = kd.trsm(l_kk.data, a.to_dense())
        assert np.allclose(out.to_dense(), ref)

    def test_dense(self, rng, l_kk):
        a = DenseTile(rng.standard_normal((16, 16)))
        out = trsm_tile(l_kk, a)
        assert isinstance(out, DenseTile)
        assert np.allclose(out.data, kd.trsm(l_kk.data, a.data))

    def test_does_not_mutate_operand(self, rng, l_kk):
        a = lr_tile(rng, 16, 2)
        before = a.to_dense()
        trsm_tile(l_kk, a)
        assert np.array_equal(a.to_dense(), before)


class TestSyrkTile:
    def test_null_noop(self, rng):
        c = spd_tile(rng, 12)
        assert syrk_tile(c, NullTile((12, 12))) is c

    def test_low_rank(self, rng):
        c = spd_tile(rng, 12)
        a = lr_tile(rng, 12, 3)
        out = syrk_tile(c, a)
        ref = kd.syrk(c.data, a.to_dense())
        assert np.allclose(out.data, ref)

    def test_dense(self, rng):
        c = spd_tile(rng, 12)
        a = DenseTile(rng.standard_normal((12, 12)))
        out = syrk_tile(c, a)
        assert np.allclose(out.data, kd.syrk(c.data, a.data))

    def test_rejects_non_dense_target(self, rng):
        with pytest.raises(TypeError):
            syrk_tile(lr_tile(rng, 8, 2), lr_tile(rng, 8, 2))


class TestGemmTile:
    """All 3x3x3 = 27 combinations of (C, A, B) representations must
    produce C - A B^T up to the recompression tolerance."""

    N = 16
    TOL = 1e-9

    def _tiles(self, rng, kind, k=3):
        if kind == "null":
            return NullTile((self.N, self.N))
        if kind == "lr":
            return lr_tile(rng, self.N, k)
        return DenseTile(rng.standard_normal((self.N, self.N)))

    @pytest.mark.parametrize("ck", ["null", "lr", "dense"])
    @pytest.mark.parametrize("ak", ["null", "lr", "dense"])
    @pytest.mark.parametrize("bk", ["null", "lr", "dense"])
    def test_all_combinations(self, rng, ck, ak, bk):
        c = self._tiles(rng, ck)
        a = self._tiles(rng, ak)
        b = self._tiles(rng, bk)
        ref = c.to_dense() - a.to_dense() @ b.to_dense().T
        out = gemm_tile(c, a, b, tol=self.TOL, max_rank=self.N)
        assert np.allclose(out.to_dense(), ref, atol=1e-6), (ck, ak, bk)

    def test_null_operand_returns_same_object(self, rng):
        c = self._tiles(rng, "lr")
        out = gemm_tile(c, NullTile((self.N, self.N)), self._tiles(rng, "lr"),
                        tol=self.TOL)
        assert out is c

    def test_fill_in(self, rng):
        """null C with non-null operands becomes non-null (fill-in)."""
        out = gemm_tile(
            NullTile((self.N, self.N)),
            self._tiles(rng, "lr"),
            self._tiles(rng, "lr"),
            tol=self.TOL,
        )
        assert not out.is_null

    def test_rank_growth_is_rounded(self, rng):
        """Repeated accumulation must not inflate the stored rank
        beyond the numerical rank."""
        c = self._tiles(rng, "lr", k=2)
        a = self._tiles(rng, "lr", k=2)
        b = self._tiles(rng, "lr", k=2)
        out = gemm_tile(c, a, b, tol=1e-8)
        # numerical rank of the sum is at most 2 + 2
        assert out.rank <= 4

    def test_cancellation_produces_null(self, rng):
        a = self._tiles(rng, "lr", k=2)
        b = self._tiles(rng, "lr", k=2)
        prod = a.to_dense() @ b.to_dense().T
        c = DenseTile(prod)
        out = gemm_tile(c, a, b, tol=1e-6, max_rank=8)
        # C - A B^T == 0: dense path keeps a DenseTile of zeros
        assert np.allclose(out.to_dense(), 0.0, atol=1e-8)

    def test_max_rank_densifies(self, rng):
        """If the rounded rank exceeds max_rank, the tile goes dense."""
        c = self._tiles(rng, "lr", k=6)
        a = self._tiles(rng, "lr", k=6)
        b = self._tiles(rng, "lr", k=6)
        out = gemm_tile(c, a, b, tol=1e-14, max_rank=2)
        assert isinstance(out, DenseTile)

    def test_operands_not_mutated(self, rng):
        c, a, b = (self._tiles(rng, "lr") for _ in range(3))
        ca, aa, bb = c.to_dense(), a.to_dense(), b.to_dense()
        gemm_tile(c, a, b, tol=self.TOL)
        assert np.array_equal(c.to_dense(), ca)
        assert np.array_equal(a.to_dense(), aa)
        assert np.array_equal(b.to_dense(), bb)


def rect_lr(rng, rows, cols, k, scale=1.0):
    """A rank-k ``rows x cols`` low-rank tile."""
    block = scale * rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
    return LowRankTile(truncated_svd(block, tol=1e-12))


def same_tile(x, y):
    if type(x) is not type(y):
        return False
    if isinstance(x, NullTile):
        return x.shape == y.shape
    if isinstance(x, DenseTile):
        return x.data.tobytes() == y.data.tobytes()
    return x.u.tobytes() == y.u.tobytes() and x.v.tobytes() == y.v.tobytes()


class TestGemmUpdate:
    """The accumulating off-diagonal kernel: every panel of a target
    tile in one product, rounded once."""

    TOL = 1e-8
    #: an uneven edge tile: target rows x cols, panels b wide
    ROWS, COLS, B = 23, 32, 32

    def _pairs(self, rng):
        """Low-rank, dense and null operands in one panel list; ``A_k``
        is ROWS x B, ``B_k`` is COLS x B."""
        a = [
            rect_lr(rng, self.ROWS, self.B, 3),
            DenseTile(rng.standard_normal((self.ROWS, self.B))),
            NullTile((self.ROWS, self.B)),
            rect_lr(rng, self.ROWS, self.B, 5),
            DenseTile(rng.standard_normal((self.ROWS, self.B))),
            rect_lr(rng, self.ROWS, self.B, 2),
        ]
        b = [
            rect_lr(rng, self.COLS, self.B, 4),
            rect_lr(rng, self.COLS, self.B, 2),
            rect_lr(rng, self.COLS, self.B, 2),
            DenseTile(rng.standard_normal((self.COLS, self.B))),
            DenseTile(rng.standard_normal((self.COLS, self.B))),
            NullTile((self.COLS, self.B)),
        ]
        return list(zip(a, b))

    def _target(self, rng, kind):
        if kind == "null":
            return NullTile((self.ROWS, self.COLS))
        if kind == "lr":
            return rect_lr(rng, self.ROWS, self.COLS, 4)
        return DenseTile(rng.standard_normal((self.ROWS, self.COLS)))

    @staticmethod
    def _reference(c, pairs):
        return c.to_dense() - sum(a.to_dense() @ b.to_dense().T for a, b in pairs)

    @pytest.mark.parametrize("ck", ["null", "lr", "dense"])
    def test_matches_dense_reference(self, rng, ck):
        c = self._target(rng, ck)
        pairs = self._pairs(rng)
        out = gemm_update(c, pairs, tol=self.TOL, max_rank=self.ROWS)
        assert out.shape == (self.ROWS, self.COLS)
        assert out.to_dense().dtype == np.float64
        err = np.linalg.norm(out.to_dense() - self._reference(c, pairs))
        assert err <= 2 * self.TOL

    def test_empty_list_and_null_operands_return_the_target(self, rng):
        c = rect_lr(rng, self.ROWS, self.COLS, 4)
        assert gemm_update(c, [], tol=self.TOL) is c
        nulls = [
            (NullTile((self.ROWS, self.B)), rect_lr(rng, self.COLS, self.B, 2)),
            (rect_lr(rng, self.ROWS, self.B, 2), NullTile((self.COLS, self.B))),
        ]
        assert gemm_update(c, nulls, tol=self.TOL) is c

    def test_null_target_fills_in(self, rng):
        pairs = [(rect_lr(rng, self.ROWS, self.B, 3), rect_lr(rng, self.COLS, self.B, 3))]
        out = gemm_update(NullTile((self.ROWS, self.COLS)), pairs, tol=self.TOL)
        assert isinstance(out, LowRankTile) and out.rank == 3

    def test_dense_target_stays_dense_and_unrounded(self, rng):
        c = DenseTile(rng.standard_normal((self.ROWS, self.COLS)))
        pairs = [(rect_lr(rng, self.ROWS, self.B, 1), rect_lr(rng, self.COLS, self.B, 1))]
        out = gemm_update(c, pairs, tol=1.0)  # a tolerance that would null it
        assert isinstance(out, DenseTile)
        assert np.allclose(out.data, self._reference(c, pairs), atol=1e-12)

    def test_accumulated_rank_is_rounded_once(self, rng):
        """Five rank-2 updates of a rank-2 tile from one 4-dimensional
        row space: stored rank is the numerical rank, not 2 + 5 * 2."""
        basis = rng.standard_normal((self.ROWS, 4))
        lr = lambda: LowRankTile(  # noqa: E731
            LowRankFactor(basis @ rng.standard_normal((4, 2)), rng.standard_normal((self.B, 2)))
        )
        c = LowRankTile(
            LowRankFactor(basis @ rng.standard_normal((4, 2)), rng.standard_normal((self.COLS, 2)))
        )
        pairs = [(lr(), rect_lr(rng, self.COLS, self.B, 2)) for _ in range(5)]
        out = gemm_update(c, pairs, tol=self.TOL)
        assert out.rank == 4

    def test_over_max_rank_result_is_dense(self, rng):
        c = rect_lr(rng, self.ROWS, self.COLS, 4)
        pairs = [(rect_lr(rng, self.ROWS, self.B, 5), rect_lr(rng, self.COLS, self.B, 5))]
        out = gemm_update(c, pairs, tol=1e-12, max_rank=3)
        assert isinstance(out, DenseTile)
        assert np.allclose(out.data, self._reference(c, pairs), atol=1e-10)

    def test_seed_selects_the_sample_stream(self, rng):
        c = rect_lr(rng, self.ROWS, self.COLS, 4)
        # low rank throughout, so the range-finder (not the direct SVD
        # past the crossover) produces the result
        pairs = [(rect_lr(rng, self.ROWS, self.B, 2), rect_lr(rng, self.COLS, self.B, 3))]
        one = gemm_update(c, pairs, tol=self.TOL, seed=1)
        assert same_tile(one, gemm_update(c, pairs, tol=self.TOL, seed=1))
        assert not same_tile(one, gemm_update(c, pairs, tol=self.TOL, seed=2))

    @pytest.mark.parametrize("ck", ["null", "lr", "dense"])
    def test_gemm_tile_is_the_one_pair_call(self, rng, ck):
        c = self._target(rng, ck)
        a, b = rect_lr(rng, self.ROWS, self.B, 3), rect_lr(rng, self.COLS, self.B, 2)
        assert same_tile(
            gemm_tile(c, a, b, tol=self.TOL, max_rank=9, seed=7),
            gemm_update(c, [(a, b)], tol=self.TOL, max_rank=9, seed=7),
        )


class TestSyrkUpdate:
    N, B = 19, 24

    def _panels(self, rng):
        return [
            rect_lr(rng, self.N, self.B, 3),
            NullTile((self.N, self.B)),
            DenseTile(rng.standard_normal((self.N, self.B))),
            rect_lr(rng, self.N, self.B, 2),
        ]

    def test_matches_dense_reference(self, rng):
        c = spd_tile(rng, self.N)
        panels = self._panels(rng)
        ref = c.data - sum(p.to_dense() @ p.to_dense().T for p in panels)
        out = syrk_update(c, panels)
        assert isinstance(out, DenseTile) and out.data.dtype == np.float64
        assert np.allclose(out.data, ref, atol=1e-11)

    def test_no_contribution_returns_the_target(self, rng):
        c = spd_tile(rng, self.N)
        assert syrk_update(c, []) is c
        assert syrk_update(c, [NullTile((self.N, self.B))] * 2) is c

    def test_syrk_tile_is_the_one_panel_call(self, rng):
        c = spd_tile(rng, self.N)
        for a in self._panels(rng):
            assert same_tile(syrk_tile(c, a), syrk_update(c, [a]))

    def test_rejects_non_dense_target(self, rng):
        with pytest.raises(TypeError):
            syrk_update(lr_tile(rng, 8, 2), [lr_tile(rng, 8, 2)])


def _image(*arrays):
    """Every byte, the layout and the dtype of each array."""
    return [(a.dtype.str, a.shape, a.strides, a.tobytes(order="A")) for a in arrays]


def _close(x, ref):
    return np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


class TestHandleKernels:
    """POTRF and TRSM call LAPACK/BLAS directly: they agree with
    ``scipy.linalg`` to 1e-13 relative on every layout and storage a
    factorization meets, and leave every operand array byte-identical
    (tiles are immutable; the checksum ledger and the checkpoint hold
    references to them)."""

    B, RAGGED = 24, 17

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [B, RAGGED])
    def test_potrf(self, rng, order, n):
        a = np.array(spd_tile(rng, n).data, order=order)
        before = _image(a)
        l = potrf_tile(DenseTile(a)).data
        assert _image(a) == before
        assert _close(l, sla.cholesky(a, lower=True))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows,cols", [(B, B), (B, RAGGED), (RAGGED, B)])
    @pytest.mark.parametrize("kind", ["dense", "lowrank", "rank1"])
    def test_trsm(self, rng, order, rows, cols, kind):
        l = np.array(potrf_tile(spd_tile(rng, cols)).data, order=order)
        if kind == "dense":
            a = DenseTile(np.array(rng.standard_normal((rows, cols)), order=order))
            operands = (l, a.data)
        else:
            t = rect_lr(rng, rows, cols, 1 if kind == "rank1" else 4)
            u, v = np.array(t.u, order=order), np.array(t.v, order=order)
            a = LowRankTile(LowRankFactor(u, v))
            operands = (l, u, v)
        before = _image(*operands)
        out = trsm_tile(DenseTile(l), a)
        assert _image(*operands) == before
        if kind == "dense":
            assert isinstance(out, DenseTile)
            assert _close(out.data, sla.solve_triangular(l, a.data.T, lower=True).T)
        else:
            assert out.u is a.u  # shared with the operand, not copied
            assert out.v.dtype == np.float64
            assert _close(out.v, sla.solve_triangular(l, a.v, lower=True))

    def test_refuses_a_singular_or_mismatched_factor(self, rng):
        a = DenseTile(rng.standard_normal((4, 4)))
        with pytest.raises(np.linalg.LinAlgError):
            trsm_tile(DenseTile(np.diag([1.0, 0.0, 1.0, 1.0])), a)
        with pytest.raises(ValueError):
            trsm_tile(DenseTile(np.eye(3)), a)
        with pytest.raises(ValueError):
            potrf_tile(DenseTile(np.ones((3, 4))))
