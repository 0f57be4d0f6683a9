"""Property-based tests: the svd policy's certified range-finder keeps
gesdd's rank exactly.

On tiles of short side ``_CERTIFY_MIN_SIDE`` or more, ``compress_block``
under the default svd policy samples a basis and stops only on a proof
(interlacing + Weyl in quadrature, ``sigma_{k+1}^2 <= s_{k+1}^2 +
||R||^2``) that the truncated SVD of the full block keeps the same
rank.  Whatever the spectrum, its outcome — null, rank ``k`` or dense —
must equal the full gesdd's, with the truncated SVD's error bound,
bitwise repeatably (the sample is one fixed test matrix, so the seed
does not matter).
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tlr_cholesky
from repro.geometry import min_spacing, virus_population
from repro.kernels import RBFMatrixGenerator
from repro.linalg import TLRMatrix, lowrank
from repro.linalg.integrity import matrix_checksums
from repro.linalg.lowrank import (
    CompressionStats,
    LowRankFactor,
    compress_block,
    truncated_svd,
)

TOL = 1e-6
SIDES = st.integers(lowrank._CERTIFY_MIN_SIDE, lowrank._CERTIFY_MIN_SIDE + 70)
SEEDS = st.integers(0, 2**64 - 1)


def with_spectrum(m, n, sigma, data_seed):
    """``U diag(sigma) V^T`` with random orthonormal ``U``, ``V``."""
    rng = np.random.default_rng(data_seed)
    r = len(sigma)
    u = np.linalg.qr(rng.standard_normal((m, r)))[0]
    v = np.linalg.qr(rng.standard_normal((n, r)))[0]
    return (u * np.asarray(sigma, dtype=float)) @ v.T


def outcome(result):
    if result is None:
        return "null"
    if isinstance(result, LowRankFactor):
        return result.rank
    return "dense"


def reference(block, tol, max_rank, relative=False):
    """Null / rank / dense as the full gesdd decides it."""
    s = sla.svd(block, compute_uv=False)
    k = int(np.count_nonzero(s > (tol * s[0] if relative else tol)))
    if k == 0:
        return "null"
    return "dense" if max_rank is not None and k > max_rank else k


def check_exact(block, tol, max_rank, seed, relative=False):
    stats = CompressionStats()
    out = compress_block(
        block, tol, max_rank=max_rank, relative=relative, seed=seed, stats=stats
    )
    assert outcome(out) == reference(block, tol, max_rank, relative)
    if isinstance(out, LowRankFactor):
        cutoff = tol * sla.svdvals(block)[0] if relative else tol
        assert np.linalg.norm(block - out.to_dense(), 2) <= cutoff * (1 + 1e-10)
    again = compress_block(block, tol, max_rank=max_rank, relative=relative, seed=seed)
    assert outcome(again) == outcome(out)
    if isinstance(out, LowRankFactor):
        assert out.u.tobytes() == again.u.tobytes()
        assert out.v.tobytes() == again.v.tobytes()
    return out, stats


class TestExactRank:
    @given(
        m=SIDES,
        n=SIDES,
        ratio=st.floats(0.3, 0.9),
        data_seed=st.integers(0, 2**16),
        seed=SEEDS,
    )
    @settings(max_examples=25, deadline=None)
    def test_geometric_decay(self, m, n, ratio, data_seed, seed):
        sigma = ratio ** np.arange(min(m, n))
        _, stats = check_exact(with_spectrum(m, n, sigma, data_seed), TOL, None, seed)
        assert stats.sampled_tiles == 1

    @given(
        m=SIDES,
        n=SIDES,
        above=st.integers(0, 20),
        # |offset| in [1e-7, 1e-3]: clear of gesdd's own rounding
        offsets=st.lists(
            st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-7, -3)),
            min_size=1,
            max_size=6,
        ),
        tail=st.integers(0, 10),
        data_seed=st.integers(0, 2**16),
        seed=SEEDS,
    )
    @settings(max_examples=30, deadline=None)
    def test_cluster_straddling_tol(self, m, n, above, offsets, tail, data_seed, seed):
        rng = np.random.default_rng(data_seed)
        sigma = np.concatenate(
            [
                10.0 ** rng.uniform(-4, 0, above),
                [TOL * (1.0 + sign * 10.0**e) for sign, e in offsets],
                TOL * 10.0 ** rng.uniform(-6, -1, tail),
            ]
        )
        block = with_spectrum(m, n, np.sort(sigma)[::-1], data_seed)
        check_exact(block, TOL, min(m, n) // 2, seed)

    @pytest.mark.parametrize("big", ["any", "max_rank"])
    @given(
        m=SIDES,
        n=SIDES,
        data_seed=st.integers(0, 2**16),
        seed=SEEDS,
    )
    @settings(max_examples=30, deadline=None)
    def test_values_over_tol_under_a_tail(self, big, m, n, data_seed, seed):
        # a few values just over tol under a heavy tail just below it:
        # the residual drops under tol before the sample has fully
        # caught them (a residual-only stop misses some), and around
        # max_rank the dense verdict is decided by them
        rng = np.random.default_rng(data_seed)
        max_rank = min(m, n) // 2
        if big == "any":
            count = rng.integers(0, max_rank + 5)
        else:
            count = max_rank - rng.integers(0, 5)
        sigma = np.concatenate(
            [
                10.0 ** rng.uniform(-4, 0, count),
                TOL * (1.0 + 10.0 ** rng.uniform(-4, 0.5, rng.integers(1, 12))),
                TOL * rng.uniform(0.05, 0.95, rng.integers(0, 120)),
            ]
        )
        block = with_spectrum(m, n, np.sort(sigma)[::-1][: min(m, n)], data_seed)
        check_exact(block, TOL, max_rank, seed)

    @given(
        m=SIDES,
        n=SIDES,
        above=st.integers(1, 40),
        just_over=st.integers(0, 3),
        u=st.floats(0.5, 0.999),
        tail=st.integers(0, 80),
        level=st.floats(0.01, 0.3),
        data_seed=st.integers(0, 2**16),
        seed=SEEDS,
    )
    @settings(max_examples=30, deadline=None)
    def test_largest_dropped_value_in_the_quadrature_band(
        self, m, n, above, just_over, u, tail, level, data_seed, seed
    ):
        # s_{k+1} + r > tol >= hypot(s_{k+1}, r) is where the two Weyl
        # bounds disagree: the largest dropped value at tol * u under
        # a residual tail, so that only the quadrature bound certifies,
        # with a few kept values just over tol that a looser bound
        # would stop before catching
        rng = np.random.default_rng(data_seed)
        sigma = np.concatenate(
            [
                10.0 ** rng.uniform(-4, 0, above),
                TOL * (1.0 + 10.0 ** rng.uniform(-4, -1, just_over)),
                [TOL * u],
                TOL * level * rng.uniform(0.5, 1.0, tail),
            ]
        )
        block = with_spectrum(m, n, np.sort(sigma)[::-1][: min(m, n)], data_seed)
        check_exact(block, TOL, min(m, n) // 2, seed)

    @pytest.mark.parametrize(
        "which", ["zero", "below", 1, "max_rank", "max_rank+1", "full"]
    )
    @given(m=SIDES, n=SIDES, data_seed=st.integers(0, 2**16), seed=SEEDS)
    @settings(max_examples=8, deadline=None)
    def test_exact_rank(self, which, m, n, data_seed, seed):
        max_rank = min(m, n) // 2
        rank = {"zero": 0, "below": 0, 1: 1, "max_rank": max_rank,
                "max_rank+1": max_rank + 1, "full": min(m, n)}[which]
        rng = np.random.default_rng(data_seed)
        sigma = 10.0 ** rng.uniform(-5, 0, rank)
        if which == "below":
            sigma = TOL * rng.uniform(0.1, 0.9, 40)  # ||A||_F > tol, yet null
        block = with_spectrum(m, n, sigma, data_seed)
        out, stats = check_exact(block, TOL, max_rank, seed)
        assert stats.screened_null == (which == "zero")
        if which == "below":
            assert out is None and stats.sampled_tiles == 1
        if rank > max_rank:  # interlacing proves dense, no gesdd
            assert out is block and stats.svd_fallback == 0

    @pytest.mark.parametrize("max_rank", [None, "half"])
    @given(m=SIDES, n=SIDES, data_seed=st.integers(0, 2**16), seed=SEEDS)
    @settings(max_examples=8, deadline=None)
    def test_rank_at_crossover_cap(self, max_rank, m, n, data_seed, seed):
        cap = int(np.ceil(lowrank._CERTIFY_CROSSOVER * min(m, n)))
        rng = np.random.default_rng(data_seed)
        block = with_spectrum(m, n, 10.0 ** rng.uniform(-5, 0, cap), data_seed)
        check_exact(block, TOL, None if max_rank is None else min(m, n) // 2, seed)

    @given(
        m=SIDES,
        n=SIDES,
        log_tol=st.floats(-8, -0.5),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_relative_runs_gesdd(self, m, n, log_tol, data_seed):
        rng = np.random.default_rng(data_seed)
        sigma = np.sort(10.0 ** rng.uniform(-9, 0, min(m, n)))[::-1]
        block = with_spectrum(m, n, sigma, data_seed)
        out, stats = check_exact(block, 10.0**log_tol, None, 0, relative=True)
        assert stats.sampled_tiles == 0
        ref = truncated_svd(block, 10.0**log_tol, relative=True)
        assert out.u.tobytes() == ref.u.tobytes()

    @given(
        m=st.integers(lowrank._CERTIFY_MIN_SIDE, 260),
        n=st.integers(lowrank._CERTIFY_MIN_SIDE, 260),
        rank=st.integers(1, 60),
        data_seed=st.integers(0, 2**16),
        seed=SEEDS,
    )
    @settings(max_examples=20, deadline=None)
    def test_ragged(self, m, n, rank, data_seed, seed):
        rng = np.random.default_rng(data_seed)
        sigma = np.sort(10.0 ** rng.uniform(-8, 0, rank))[::-1]
        check_exact(with_spectrum(m, n, sigma, data_seed), TOL, min(m, n) // 2, seed)


class TestCertificateBoundaries:
    def test_tie_at_tol_goes_to_gesdd(self):
        # singular values on the cutoff: the computed core cannot
        # decide them, so the block is left to gesdd, whose verdict
        # (either way, within rounding) is returned as is
        sigma = np.concatenate([np.logspace(0, -4, 10), [TOL, TOL, TOL]])
        block = with_spectrum(180, 180, sigma, 3)
        stats = CompressionStats()
        out = compress_block(block, TOL, max_rank=90, seed=7, stats=stats)
        assert stats.svd_fallback == 1 and stats.sampled_tiles == 1
        ref = truncated_svd(block, TOL)
        assert out.u.tobytes() == ref.u.tobytes()
        assert out.v.tobytes() == ref.v.tobytes()

    def test_certified_tile_calls_no_full_svd(self, monkeypatch):
        block = with_spectrum(200, 200, 0.5 ** np.arange(200), 1)
        monkeypatch.setattr(lowrank, "truncated_svd", pytest.fail)
        stats = CompressionStats()
        out = compress_block(block, TOL, max_rank=100, seed=2, stats=stats)
        assert out.rank == reference(block, TOL, 100)
        assert stats.svd_fallback == 0 and stats.sampled_rank_max < 150

    def test_quadrature_bound_certifies_where_the_sum_cannot(self, monkeypatch):
        # at 48 columns s_31 ~ 0.6 tol and r ~ 0.65 tol: s_31 + r > tol
        # would sample on, hypot(s_31, r) ~ 0.88 tol proves rank 30
        sigma = np.concatenate(
            [np.logspace(0, -4, 30), [0.6 * TOL], np.full(40, 0.08 * TOL)]
        )
        block = with_spectrum(200, 200, sigma, 0)
        calls = []
        gesdd = lowrank._GESDD
        monkeypatch.setattr(
            lowrank, "_GESDD", lambda *a, **kw: calls.append(1) or gesdd(*a, **kw)
        )
        stats = CompressionStats()
        out = compress_block(block, TOL, stats=stats)
        assert len(calls) == 1  # one core SVD, no gesdd of the block
        monkeypatch.setattr(lowrank, "_GESDD", gesdd)
        assert outcome(out) == reference(block, TOL, None) == 30
        assert stats.sampled_rank_max == 48 and stats.svd_fallback == 0

    def test_certified_path_ignores_the_seed(self):
        rng = np.random.default_rng(4)
        block = with_spectrum(200, 200, 10.0 ** rng.uniform(-5, 0, 40), 4)
        one = compress_block(block, TOL, max_rank=100, seed=1)
        two = compress_block(block, TOL, max_rank=100, seed=2)
        assert one.u.tobytes() == two.u.tobytes()
        assert one.v.tobytes() == two.v.tobytes()
        # (the update rounding still reads its seed: test_kernels.py,
        # test_seed_selects_the_sample_stream)

    def test_small_tiles_run_gesdd(self):
        side = lowrank._CERTIFY_MIN_SIDE - 1
        block = with_spectrum(side, side, 0.5 ** np.arange(side), 1)
        stats = CompressionStats()
        out = compress_block(block, TOL, seed=2, stats=stats)
        assert stats.sampled_tiles == 0
        assert out.u.tobytes() == truncated_svd(block, TOL).u.tobytes()


@pytest.fixture(scope="module")
def rbf200():
    """A ``b = 200`` RBF operator (``N = 800``, 6 off-diagonal tiles)
    in the dense regime: its off-diagonal tiles take the sampled path."""
    pts = virus_population(4, points_per_virus=200, seed=0)
    gen = RBFMatrixGenerator(
        pts, 0.5 * min_spacing(pts) * 200.0, tile_size=200, nugget=1e-6
    )
    return gen


class TestRBFOperator:
    def test_tile_outcomes_equal_gesdd(self, rbf200, monkeypatch):
        a = TLRMatrix.from_generator(rbf200, 1e-8, compression="svd", seed_root=5)
        stats = a.compression_stats
        assert stats.sampled_tiles > 0 and stats.svd_fallback == 0
        monkeypatch.setattr(lowrank, "_CERTIFY_MIN_SIDE", 10**9)
        ref = TLRMatrix.from_generator(rbf200, 1e-8, compression="svd", seed_root=5)
        assert ref.compression_stats.sampled_tiles == 0
        outcomes = {idx: (t.kind, t.rank) for idx, t in a}
        assert outcomes == {idx: (t.kind, t.rank) for idx, t in ref}

    @pytest.mark.timeout(120)
    def test_factor_bitwise_serial_and_threads(self, rbf200):
        def factor(**kw):
            a = TLRMatrix.from_generator(rbf200, 1e-8, compression="svd", seed_root=5)
            return matrix_checksums(tlr_cholesky(a, **kw).factor)

        assert factor(engine="serial") == factor(engine="threads", workers=2)
