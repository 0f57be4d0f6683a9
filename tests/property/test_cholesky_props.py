"""Property-based tests for the full TLR Cholesky pipeline on random
SPD operators: factorization residual and solve accuracy must track
the compression tolerance; trimming must be semantically invisible."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.solver import solve_cholesky
from repro.core.tlr_cholesky import tlr_cholesky
from repro.geometry import min_spacing, virus_population
from repro.kernels import RBFMatrixGenerator
from repro.linalg.tile_matrix import TLRMatrix


@st.composite
def spd_problems(draw):
    n = draw(st.sampled_from([48, 64, 96]))
    tile = draw(st.sampled_from([16, 24, 32]))
    seed = draw(st.integers(0, 2**16))
    cond = draw(st.floats(2.0, 100.0))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.linspace(1.0, cond, n)
    a = (q * eig) @ q.T
    a = (a + a.T) / 2
    return a, tile, seed


class TestCholeskyProperties:
    @given(problem=spd_problems(), acc=st.sampled_from([1e-6, 1e-9, 1e-12]))
    @settings(max_examples=25, deadline=None)
    def test_residual_tracks_accuracy(self, problem, acc):
        a, tile, _ = problem
        t = TLRMatrix.from_dense(a, tile, accuracy=acc)
        res = tlr_cholesky(t)
        nt = t.n_tiles
        # truncation error accumulates over O(NT) updates per tile
        budget = max(acc * nt * 50, 1e-13) / np.linalg.norm(a)
        assert res.residual(a) < max(budget, acc)

    @given(problem=spd_problems())
    @settings(max_examples=20, deadline=None)
    def test_trim_invariance(self, problem):
        a, tile, _ = problem
        acc = 1e-10
        t1 = tlr_cholesky(TLRMatrix.from_dense(a, tile, accuracy=acc), trim=True)
        t2 = tlr_cholesky(TLRMatrix.from_dense(a, tile, accuracy=acc), trim=False)
        assert np.allclose(
            t1.factor.to_dense(symmetrize=False),
            t2.factor.to_dense(symmetrize=False),
            atol=1e-9,
        )

    @given(problem=spd_problems())
    @settings(max_examples=20, deadline=None)
    def test_solve_recovers_solution(self, problem):
        a, tile, seed = problem
        t = TLRMatrix.from_dense(a, tile, accuracy=1e-12)
        res = tlr_cholesky(t)
        rng = np.random.default_rng(seed + 1)
        x_true = rng.standard_normal(a.shape[0])
        x = solve_cholesky(res.factor, a @ x_true)
        assert np.allclose(x, x_true, atol=1e-6)

    @given(
        seed=st.integers(0, 2**16),
        shape_mult=st.sampled_from([100.0, 200.0, 400.0]),
        acc=st.sampled_from([1e-6, 1e-8]),
    )
    @settings(max_examples=15, deadline=None)
    def test_every_tile_meets_the_accuracy(self, seed, shape_mult, acc):
        """Per-tile backward error on a density-1 operator (every tile
        low-rank, every target accumulates up to NT - 1 updates and is
        rounded once): ``||(A - L L^T)_mn||_F <= 3 * accuracy`` for
        every tile, not just in the global norm."""
        b = 50
        pts = virus_population(2, points_per_virus=200, seed=seed)
        gen = RBFMatrixGenerator(
            pts, 0.5 * min_spacing(pts) * shape_mult, tile_size=b, nugget=100 * acc
        )
        t = TLRMatrix.from_generator(gen, acc)
        assume(t.density() == 1.0)
        nt = t.n_tiles
        assert nt >= 8
        a = t.to_dense()
        low = np.tril(tlr_cholesky(t).factor.to_dense(symmetrize=False))
        err = a - low @ low.T
        worst = max(
            np.linalg.norm(err[m * b : (m + 1) * b, n * b : (n + 1) * b])
            for n in range(nt)
            for m in range(n, nt)
        )
        assert worst <= 3 * acc
