"""Randomized compression: SVD parity, determinism, policy plumbing."""

import numpy as np
import pytest

from repro.linalg import lowrank
from repro.linalg.lowrank import (
    CompressionPolicy,
    CompressionStats,
    LowRankFactor,
    compress_block,
    derive_tile_seed,
    randomized_compress,
    recompress,
    resolve_compression,
    truncated_svd,
)
from repro.linalg.kernels_tlr import gemm_update
from repro.linalg.tile import LowRankTile, NullTile


def low_rank_block(rng, m, n, k, scale=1.0):
    """An exactly rank-k block with singular values ~ scale."""
    return scale * (rng.standard_normal((m, k)) @ rng.standard_normal((k, n)))


class TestDeriveTileSeed:
    def test_deterministic(self):
        assert derive_tile_seed(7, 3, 1, gen=2) == derive_tile_seed(7, 3, 1, gen=2)

    def test_64bit_range(self):
        s = derive_tile_seed(123, 4, 2, gen=1)
        assert 0 <= s < 2**64

    def test_distinct_across_inputs(self):
        seeds = {
            derive_tile_seed(root, m, k, gen)
            for root in (0, 1)
            for m in range(4)
            for k in range(4)
            for gen in range(3)
        }
        assert len(seeds) == 2 * 4 * 4 * 3  # no collisions on this grid


class TestCompressionPolicy:
    def test_defaults(self):
        p = CompressionPolicy()
        assert p.method == "svd"
        assert not p.randomized

    def test_randomized_flag(self):
        assert CompressionPolicy(method="rand").randomized

    def test_tile_seed_uses_root(self):
        a = CompressionPolicy(method="rand", seed_root=1)
        b = CompressionPolicy(method="rand", seed_root=2)
        assert a.tile_seed(3, 1) != b.tile_seed(3, 1)
        assert a.tile_seed(3, 1) == derive_tile_seed(1, 3, 1, 0)

    @pytest.mark.parametrize("kwargs", [{"method": "qr"}])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            CompressionPolicy(**kwargs)


class TestResolveCompression:
    def test_policy_passthrough(self):
        p = CompressionPolicy(method="rand", seed_root=9)
        assert resolve_compression(p) is p

    def test_method_name(self):
        assert resolve_compression("rand", seed_root=5).randomized
        assert resolve_compression("rand", seed_root=5).seed_root == 5

    def test_none_defaults_to_svd(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPRESSION", raising=False)
        assert resolve_compression(None).method == "svd"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPRESSION", "rand")
        assert resolve_compression(None).randomized

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPRESSION", "rand")
        assert resolve_compression("svd").method == "svd"

    def test_bad_name_raises(self):
        with pytest.raises(ValueError):
            resolve_compression("aca")


class TestCompressionStats:
    def test_sampled_profile(self):
        st = CompressionStats()
        st.record_sampled(16)
        st.record_sampled(32)
        d = st.to_dict()
        assert d["sampled_tiles"] == 2
        assert d["sampled_rank_max"] == 32
        assert d["sampled_rank_avg"] == 24.0

    def test_empty_avg_is_zero(self):
        assert CompressionStats().to_dict()["sampled_rank_avg"] == 0.0


class TestRandomizedCompress:
    @pytest.mark.parametrize("k", [1, 3, 7, 12])
    @pytest.mark.parametrize("m,n", [(60, 60), (80, 50), (48, 72)])
    def test_matches_svd_rank_and_accuracy(self, rng, m, n, k):
        block = low_rank_block(rng, m, n, k)
        svd = truncated_svd(block, tol=1e-8)
        out = randomized_compress(block, tol=1e-8, seed=k + m)
        assert isinstance(out, LowRankFactor)
        assert out.rank == svd.rank == k
        assert np.linalg.norm(out.to_dense() - block) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 17, 2**63])
    def test_rank_stable_across_seeds(self, rng, seed):
        block = low_rank_block(rng, 64, 64, 5)
        out = randomized_compress(block, tol=1e-8, seed=seed)
        assert out.rank == 5

    def test_bitwise_deterministic(self, rng):
        block = low_rank_block(rng, 64, 64, 6)
        a = randomized_compress(block, tol=1e-8, seed=42)
        b = randomized_compress(block, tol=1e-8, seed=42)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()

    def test_different_seeds_different_bases(self, rng):
        block = low_rank_block(rng, 64, 64, 6) + 1e-7 * rng.standard_normal(
            (64, 64)
        )
        a = randomized_compress(block, tol=1e-4, seed=1)
        b = randomized_compress(block, tol=1e-4, seed=2)
        # same rank, same approximation quality, different sample draws
        assert a.rank == b.rank
        assert a.u.tobytes() != b.u.tobytes()

    def test_null_below_threshold(self, rng):
        block = 1e-8 * rng.standard_normal((40, 40))
        assert randomized_compress(block, tol=1e-4, seed=0) is None

    def test_zero_block_is_null(self):
        assert randomized_compress(np.zeros((30, 30)), tol=1e-8, seed=0) is None

    def test_relative_mode(self, rng):
        block = low_rank_block(rng, 50, 50, 3, scale=1e-6)
        assert randomized_compress(block, tol=1e-4, seed=0) is None
        f = randomized_compress(block, tol=1e-4, relative=True, seed=0)
        assert f is not None and f.rank == 3

    def test_over_budget_returns_dense_without_svd(self, rng):
        stats = CompressionStats()
        block = rng.standard_normal((64, 64))  # full rank
        out = randomized_compress(
            block, tol=1e-12, max_rank=5, seed=0, stats=stats
        )
        assert isinstance(out, np.ndarray)
        assert np.array_equal(out, block)
        assert stats.rand_dense == 1
        assert stats.rand_svd_fallback == 0

    def test_crossover_falls_back_to_svd(self, rng):
        stats = CompressionStats()
        block = rng.standard_normal((40, 40))  # rank 40 >> crossover
        out = randomized_compress(block, tol=1e-12, seed=0, stats=stats)
        assert stats.rand_svd_fallback == 1
        # the fallback applies the identical truncation rule
        direct = truncated_svd(block, tol=1e-12)
        assert isinstance(out, LowRankFactor)
        assert out.rank == direct.rank

    def test_sampled_rank_recorded(self, rng):
        stats = CompressionStats()
        block = low_rank_block(rng, 64, 64, 4)
        randomized_compress(block, tol=1e-8, seed=0, stats=stats)
        assert stats.sampled_tiles == 1
        # one 16-column panel suffices for rank 4
        assert stats.sampled_rank_max == 16

    @pytest.mark.parametrize("hint,sampled", [(0, 32), (20, 28)])
    def test_first_panel_sized_by_rank_hint(self, rng, hint, sampled):
        block = low_rank_block(rng, 100, 100, 20)
        stats = CompressionStats()
        out = randomized_compress(block, tol=1e-8, seed=4, rank_hint=hint, stats=stats)
        assert out.rank == 20
        # two 16-column panels without the hint, one of 20 + 8 with it
        assert stats.sampled_rank_max == sampled

    @pytest.mark.parametrize("b,hint", [(50, 12), (100, 45)])
    def test_rank_hint_ignored_where_it_cannot_pay(self, rng, b, hint):
        # b = 50: the crossover cap (25) holds under two default panels;
        # b = 100: hint + oversample reaches the cap (50)
        block = low_rank_block(rng, b, b, 4)
        stats = CompressionStats()
        randomized_compress(block, tol=1e-8, seed=0, rank_hint=hint, stats=stats)
        assert stats.sampled_rank_max == 16

    def test_rejects_nonpositive_tol(self, rng):
        with pytest.raises(ValueError):
            randomized_compress(rng.standard_normal((8, 8)), tol=0.0)


class TestCompressBlockDispatch:
    def test_rand_policy_routes_to_sampler(self, rng):
        stats = CompressionStats()
        block = low_rank_block(rng, 60, 60, 3)
        out = compress_block(
            block,
            tol=1e-8,
            policy=CompressionPolicy(method="rand"),
            seed=7,
            stats=stats,
        )
        assert out.rank == 3
        assert stats.rand_tiles == 1
        assert stats.svd_tiles == 0

    def test_rand_route_takes_the_norm_once(self, rng, monkeypatch):
        # one ||A||_F serves the null certificate and the stopping rule
        block = low_rank_block(rng, 60, 60, 3)
        real, seen = np.linalg.norm, []

        def norm(x, *args, **kwargs):
            seen.append(x is block)
            return real(x, *args, **kwargs)

        monkeypatch.setattr(lowrank.np.linalg, "norm", norm)
        out = compress_block(
            block, 1e-8, relative=True, policy=CompressionPolicy(method="rand")
        )
        assert out.rank == 3
        assert seen.count(True) == 1

    def test_rand_dispatch_is_seeded(self, rng):
        block = low_rank_block(rng, 60, 60, 3)
        pol = CompressionPolicy(method="rand")
        a = compress_block(block, tol=1e-8, policy=pol, seed=7)
        b = compress_block(block, tol=1e-8, policy=pol, seed=7)
        assert a.u.tobytes() == b.u.tobytes()

    def test_default_path_counts_svd(self, rng):
        stats = CompressionStats()
        compress_block(low_rank_block(rng, 30, 30, 2), tol=1e-8, stats=stats)
        assert stats.svd_tiles == 1
        assert stats.rand_tiles == 0

    def test_rand_agrees_with_svd_on_dense_fallback(self, rng):
        block = rng.standard_normal((96, 96))
        svd_out = compress_block(block, tol=1e-10, max_rank=8)
        rnd_out = compress_block(
            block,
            tol=1e-10,
            max_rank=8,
            policy=CompressionPolicy(method="rand"),
            seed=3,
        )
        assert isinstance(svd_out, np.ndarray)
        assert isinstance(rnd_out, np.ndarray)
        assert np.array_equal(svd_out, rnd_out)


POLICIES = [None, CompressionPolicy(method="rand")]


def same_result(a, b):
    """Null / factor / dense results agree to the last byte."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, LowRankFactor):
        return (
            isinstance(b, LowRankFactor)
            and a.u.tobytes() == b.u.tobytes()
            and a.v.tobytes() == b.v.tobytes()
        )
    return np.array_equal(a, b)


class TestNullCertificate:
    """``||A||_F <= tol`` proves null before any decomposition."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_null_block_is_never_decomposed(self, rng, monkeypatch, policy):
        def boom(*args, **kwargs):
            raise AssertionError("a certified-null block was decomposed")

        monkeypatch.setattr(lowrank.sla, "svd", boom)
        monkeypatch.setattr(lowrank.sla, "qr", boom)
        monkeypatch.setattr(lowrank, "_GESDD", boom)
        monkeypatch.setattr(lowrank, "_GEQRF", boom)
        stats = CompressionStats()
        block = low_rank_block(rng, 40, 50, 3, scale=1e-9)
        assert compress_block(block, 1e-6, policy=policy, stats=stats) is None
        assert stats.screened_null == 1
        assert stats.svd_tiles + stats.rand_tiles == 1

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scale", [0.9, 0.99, 1.0, 1.01, 1.1])
    def test_straddling_tol_agrees_with_unscreened(
        self, rng, monkeypatch, policy, k, scale
    ):
        tol = 1e-6
        block = low_rank_block(rng, 48, 36, k)
        block *= scale * tol / np.linalg.norm(block)
        stats = CompressionStats()
        out = compress_block(block, tol, policy=policy, seed=5, stats=stats)
        # at scale 1.0 rounding decides; the certificate must stand
        # aside and leave the verdict to the decomposition
        assert stats.screened_null == (scale < 1.0)
        monkeypatch.setattr(lowrank, "_certified_null", lambda *a: False)
        assert same_result(
            out, compress_block(block, tol, policy=policy, seed=5)
        )
        if scale < 1.0:
            assert truncated_svd(block, tol) is None

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("tol,null", [(0.5, False), (1.0, True), (1.5, True)])
    def test_relative_mode(self, rng, policy, tol, null):
        # relative cutoff tol * sigma_1: only tol >= 1 (or a zero
        # block) discards everything, and only tol > 1 is certified
        block = low_rank_block(rng, 30, 30, 2)
        stats = CompressionStats()
        out = compress_block(
            block, tol, relative=True, policy=policy, seed=1, stats=stats
        )
        assert (out is None) == null
        assert (truncated_svd(block, tol, relative=True) is None) == null
        assert stats.screened_null == (tol > 1.0)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("relative", [False, True])
    def test_zero_block(self, policy, relative):
        stats = CompressionStats()
        out = compress_block(
            np.zeros((20, 30)), 1e-8, relative=relative, policy=policy, stats=stats
        )
        assert out is None and stats.screened_null == 1

    @pytest.mark.parametrize("policy", POLICIES)
    def test_survivors_are_untouched_by_the_screen(self, rng, monkeypatch, policy):
        block = low_rank_block(rng, 60, 60, 4)
        screened = compress_block(block, 1e-8, max_rank=10, policy=policy, seed=3)
        monkeypatch.setattr(lowrank, "_certified_null", lambda *a: False)
        unscreened = compress_block(block, 1e-8, max_rank=10, policy=policy, seed=3)
        assert screened.rank == 4
        assert same_result(screened, unscreened)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rejects_nonpositive_tol(self, policy):
        with pytest.raises(ValueError):
            compress_block(np.zeros((8, 8)), 0.0, policy=policy)


def stacked_factor(rng, m, n, ranks, tol=1e-12):
    """A GEMM-style accumulation: sum of independent low-rank terms,
    stored as horizontally stacked factors."""
    parts = [
        truncated_svd(low_rank_block(rng, m, n, k), tol=tol) for k in ranks
    ]
    return LowRankFactor(
        np.hstack([p.u for p in parts]), np.hstack([p.v for p in parts])
    )


def as_pairs(factor, ranks):
    """Operand pairs whose products are the stacked terms of ``factor``:
    ``A_k = U_k Q_k^T`` and ``B_k = V_k Q_k^T`` with orthonormal
    ``Q_k``, so ``A_k B_k^T = U_k V_k^T``."""
    n = factor.shape[1]
    pairs, at = [], 0
    for k in ranks:
        q = np.linalg.qr(np.random.default_rng(k).standard_normal((n, k)))[0]
        u, v = factor.u[:, at : at + k], factor.v[:, at : at + k]
        pairs.append(
            (LowRankTile(LowRankFactor(u, q)), LowRankTile(LowRankFactor(v, q)))
        )
        at += k
    return pairs


class TestRandomizedRecompress:
    """The one randomized rounding of an accumulated update
    (``gemm_update``): a stacked sum of low-rank terms comes out at the
    rank, and within the accuracy, of the exact QR-QR-SVD rounding."""

    def test_matches_exact_recompress(self, rng):
        ranks = [6, 5, 4, 3]  # K = 18 > one sample panel
        f = stacked_factor(rng, 120, 120, ranks)
        exact = recompress(f, tol=1e-9)
        out = gemm_update(NullTile((120, 120)), as_pairs(f, ranks), tol=1e-9, seed=11)
        assert out.rank == exact.rank == 18
        assert np.allclose(-out.to_dense(), exact.to_dense(), atol=1e-7)

    def test_rounds_redundant_rank(self, rng):
        base = truncated_svd(low_rank_block(rng, 100, 100, 9), tol=1e-12)
        # the same term three times over: stacked rank 27, numerical rank 9
        third = LowRankFactor(base.u, base.v / 3.0)
        pairs = as_pairs(third, [9]) * 3
        out = gemm_update(NullTile((100, 100)), pairs, tol=1e-9, seed=5)
        assert out.rank == 9
        assert np.allclose(-out.to_dense(), base.to_dense(), atol=1e-7)

    def test_bitwise_deterministic(self, rng):
        ranks = [8, 7, 6]
        pairs = as_pairs(stacked_factor(rng, 100, 100, ranks), ranks)
        a = gemm_update(NullTile((100, 100)), pairs, tol=1e-9, seed=21)
        b = gemm_update(NullTile((100, 100)), pairs, tol=1e-9, seed=21)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.v.tobytes() == b.v.tobytes()

    def test_low_rank_target_above_result_rank(self, rng):
        # C (rank 12) loses 6 of its terms and gains a rank-3 one: one
        # product [U_c | X] @ [V_c | -Y]^T, first panel sized by rank 12
        c = truncated_svd(low_rank_block(rng, 120, 120, 12), tol=1e-12)
        gone = LowRankFactor(c.u[:, :6], c.v[:, :6])
        extra = stacked_factor(rng, 120, 120, [3])
        exact = recompress(
            LowRankFactor(
                np.hstack([c.u, gone.u, extra.u]), np.hstack([c.v, -gone.v, -extra.v])
            ),
            tol=1e-9,
        )
        pairs = as_pairs(gone, [6]) + as_pairs(extra, [3])
        out = gemm_update(LowRankTile(c), pairs, tol=1e-9, seed=8)
        assert out.rank == exact.rank == 9
        assert np.allclose(out.to_dense(), exact.to_dense(), atol=1e-7)

    def test_cancellation_to_null(self, rng):
        base = truncated_svd(low_rank_block(rng, 80, 80, 9), tol=1e-12)
        out = gemm_update(LowRankTile(base), as_pairs(base, [9]), tol=1e-6)
        assert isinstance(out, NullTile)

    def test_rejects_nonpositive_tol(self, rng):
        pairs = as_pairs(stacked_factor(rng, 30, 30, [2]), [2])
        with pytest.raises(ValueError):
            gemm_update(NullTile((30, 30)), pairs, tol=-1.0)
