"""Tests for TLR triangular solves."""

import sys
import threading

import numpy as np
import pytest
import scipy.linalg as sla

from repro.core import solver
from repro.core.solver import logdet, solve_cholesky, solve_lower
from repro.core.tlr_cholesky import tlr_cholesky
from repro.linalg.integrity import matrix_checksums
from repro.linalg.lowrank import LowRankFactor
from repro.linalg.tile import DenseTile, LowRankTile
from repro.linalg.tile_matrix import TLRMatrix


def backward_pass(l, y):
    """``L^T x = y`` by the backward substitution alone, in a private copy."""
    x, squeeze = solver._workspace(l, y)
    solver._backward(l, x)
    return x[:, 0] if squeeze else x


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
        x = backward_pass(l, b)
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
            solve_cholesky(l, np.ones(l.n - 1))
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
        for solve in (solve_lower, solve_cholesky):
            x1 = solve(l, b)
            x2 = solve(l, b[:, None])
            assert x1.ndim == 1 and x2.shape == (l.n, 1)
            assert np.array_equal(x1, x2[:, 0])

    def test_one_copy_solve_is_bitwise_the_two_pass_composition(self, factored):
        """``solve_cholesky`` runs the backward pass in the forward
        pass's buffer; the two passes with one private copy each are
        the reference.  The caller's rhs is never written."""
        l, _ = factored
        rng = np.random.default_rng(14)
        for shape in ((l.n,), (l.n, 1), (l.n, 5)):
            b = rng.standard_normal(shape)
            kept = b.copy()
            x = solve_cholesky(l, b)
            assert np.array_equal(x, backward_pass(l, solve_lower(l, b)))
            assert np.array_equal(b, kept) and not np.shares_memory(x, b)

    def test_a_lone_column_goes_through_dtrsv(self, factored, monkeypatch):
        """One column (a vector, an ``(n, 1)`` block, or the service's
        coalesced batch of one) solves each diagonal tile with level-2
        ``dtrsv``, all bitwise alike; several columns keep ``dtrsm``."""
        l, _ = factored
        rng = np.random.default_rng(15)
        b, block = rng.standard_normal(l.n), rng.standard_normal((l.n, 3))
        expected = {
            solve: (solve(l, b), solve(l, block))
            for solve in (solve_lower, solve_cholesky)
        }

        def unused(*args, **kwargs):
            raise AssertionError("wrong BLAS routine for this column count")

        with monkeypatch.context() as m:
            m.setattr(solver, "dtrsm", unused)
            for solve, (x1, _) in expected.items():
                assert np.array_equal(solve(l, b), x1)
                assert np.array_equal(solve(l, b[:, None])[:, 0], x1)
            x = solver._solve_columns(l, [b])
            assert np.array_equal(x[:, 0], expected[solve_cholesky][0])
        with monkeypatch.context() as m:
            m.setattr(solver, "dtrsv", unused)
            for solve, (_, x3) in expected.items():
                assert np.array_equal(solve(l, block), x3)

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
            # so the block's GEMM + TRSM summation order against the
            # lone column's GEMV + TRSV shows up at ~1e-11 rel.
            diff = np.linalg.norm(x_blocked[:, j] - x_single)
            assert diff <= 1e-9 * np.linalg.norm(x_single)


@pytest.fixture()
def mixed_factor(sparse_tlr):
    """A fresh factor holding null, low-rank and dense off-diagonal
    tiles (one low-rank tile swapped for its dense form)."""
    l = tlr_cholesky(sparse_tlr.copy()).factor
    m, k = next(idx for idx, t in l if isinstance(t, LowRankTile))
    l.set_tile(m, k, DenseTile(l.tile(m, k).to_dense()))
    return l


def _panel_of(block, panels):
    return any(p is not None and np.shares_memory(block, p) for p in panels)


class TestPackedStorage:
    """The first solve packs the factor's tiles into panels, and the
    panels become the storage: nothing is resident twice, no digest
    moves, and whatever replaces a tile drops them."""

    def test_first_solve_moves_the_storage_into_the_panels(self, mixed_factor):
        l = mixed_factor
        nbytes, sums = l.memory_bytes(), matrix_checksums(l)
        dense = l.to_dense(symmetrize=False)
        b = np.random.default_rng(20).standard_normal(l.n)
        x = solve_cholesky(l, b)
        assert l.memory_bytes() == nbytes and matrix_checksums(l) == sums
        packed = l.packed()
        kinds = set()
        for (m, k), t in l:
            if m == k or t.is_null:
                continue
            kinds.add(type(t))
            if isinstance(t, DenseTile):
                assert _panel_of(t.data, packed.u)
            elif t.u.dtype == np.float64:
                assert _panel_of(t.u, packed.u) and _panel_of(t.v, packed.v)
                assert t.u.flags.f_contiguous and t.v.flags.f_contiguous
        assert kinds == {DenseTile, LowRankTile}
        ref = sla.solve_triangular(
            dense, sla.solve_triangular(dense, b, lower=True), lower=True, trans="T"
        )
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_set_tile_after_a_solve_drops_the_panels(self, mixed_factor):
        l = mixed_factor
        b = np.random.default_rng(21).standard_normal(l.n)
        before = solve_lower(l, b)
        m, k = next(idx for idx, t in l if idx[0] != idx[1] and not t.is_null)
        l.set_tile(m, k, DenseTile(np.full(l.tile(m, k).shape, 0.25)))
        after = solve_lower(l, b)
        dense = l.to_dense(symmetrize=False)
        assert not np.allclose(after, before)
        assert np.allclose(after, sla.solve_triangular(dense, b, lower=True), rtol=1e-10)

    def test_copy_of_a_solved_factor_packs_on_its_own(self, mixed_factor):
        l = mixed_factor
        b = np.random.default_rng(22).standard_normal((l.n, 2))
        x = solve_cholesky(l, b)
        packed, tiles = l.packed(), dict(iter(l))
        twin = l.copy()
        assert np.array_equal(solve_cholesky(twin, b), x)
        assert twin.packed() is not packed and l.packed() is packed
        assert all(l.tile(*idx) is t for idx, t in tiles.items())
        assert matrix_checksums(twin) == matrix_checksums(l)
        assert np.array_equal(solve_cholesky(l, b), x)

    def test_threads_racing_into_the_first_solve_pack_once(self, mixed_factor):
        """Two service lanes (here four, more than the cores, on a
        shortened switch interval) hitting one unsolved factor."""
        l = mixed_factor
        b = np.random.default_rng(23).standard_normal(l.n)
        barrier, out = threading.Barrier(4, timeout=30), [None] * 4

        def run(i):
            barrier.wait()
            out[i] = (solve_cholesky(l, b), l.packed())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(p is l.packed() for _, p in out)
        assert all(np.array_equal(x, out[0][0]) for x, _ in out)
        assert np.array_equal(out[0][0], solve_cholesky(l.copy(), b))


class TestInputEdges:
    def test_no_columns(self, factored):
        l, _ = factored
        for solve in (solve_lower, solve_cholesky):
            assert solve(l, np.empty((l.n, 0))).shape == (l.n, 0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda b: np.asfortranarray(b),
            lambda b: np.repeat(b, 2, axis=1)[:, ::2],
            lambda b: np.repeat(b, 2, axis=0)[::2],
            lambda b: b[:, 0],
            lambda b: np.repeat(b, 2, axis=0)[::2, 0],
        ],
        ids=["fortran", "strided-columns", "strided-rows", "vector", "strided-vector"],
    )
    def test_memory_layout_of_the_rhs_does_not_matter(self, factored, make):
        l, _ = factored
        block = np.random.default_rng(30).standard_normal((l.n, 3))
        b = make(block)
        kept = b.copy()
        expected = solve_cholesky(l, np.ascontiguousarray(b))
        x = solve_cholesky(l, b)
        assert x.shape == b.shape and np.array_equal(x, expected)
        assert np.array_equal(b, kept) and not np.shares_memory(x, b)

    def test_integer_rhs(self, factored):
        l, _ = factored
        b = np.arange(l.n * 2).reshape(l.n, 2) % 7
        x = solve_cholesky(l, b)
        assert x.dtype == np.float64 and b.dtype.kind == "i"
        assert np.array_equal(x, solve_cholesky(l, b.astype(float)))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_complex_rhs_is_a_type_error(self, factored, dtype):
        """A cast would solve the real part and only warn: refused, by dtype."""
        l, _ = factored
        for solve in (solve_lower, solve_cholesky):
            for shape in ((l.n,), (l.n, 2)):
                b = np.ones(shape, dtype=dtype) * (1 + 2j)
                with pytest.raises(TypeError, match=f"complex dtype {np.dtype(dtype)}"):
                    solve(l, b)

    def test_non_dense_diagonal_is_a_type_error(self):
        t = TLRMatrix.from_dense(np.eye(8), tile_size=4, accuracy=1e-12)
        t._tiles[(1, 1)] = LowRankTile(LowRankFactor(np.eye(4), np.eye(4)))
        for call in (lambda: solve_cholesky(t, np.ones(8)), lambda: logdet(t)):
            with pytest.raises(TypeError, match="diagonal factor tiles must be dense"):
                call()

    def test_logdet_positivity_is_checked_once_and_kept(self):
        t = TLRMatrix.from_dense(np.eye(8), tile_size=4, accuracy=1e-12)
        t.set_tile(1, 1, DenseTile(-np.eye(4)))
        for _ in range(2):
            with pytest.raises(ValueError, match="factor diagonal must be positive"):
                logdet(t)
        # a solve does not care about the sign
        assert np.array_equal(solve_lower(t, np.ones(8)), [1, 1, 1, 1, -1, -1, -1, -1])
