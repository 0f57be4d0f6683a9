"""Property-based tests: sampled compression is SVD-equivalent.

The ``"rand"`` build and the factorization's update rounding must be
drop-in replacements for the exact routines: same detected rank, same
accuracy guarantee, under every block shape and numerical rank — and
bitwise-deterministic (``"rand"`` in its seed), which is what makes
them safe to run under any execution engine.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import lowrank
from repro.linalg.kernels_tlr import gemm_update
from repro.linalg.lowrank import (
    CompressionStats,
    LowRankFactor,
    compress_block,
    randomized_compress,
    recompress,
    truncated_svd,
)
from repro.linalg.tile import LowRankTile, NullTile

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def synthetic_block(m, n, k, data_seed, noise=0.0):
    """Exact rank-k block (plus optional noise floor) from a local rng,
    decoupled from hypothesis' draw order."""
    rng = np.random.default_rng(data_seed)
    block = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
    if noise:
        block = block + noise * rng.standard_normal((m, n))
    return block


class TestRandomizedCompressProperties:
    @given(
        m=st.integers(40, 90),
        n=st.integers(40, 90),
        k=st.integers(1, 12),
        data_seed=st.integers(0, 2**16),
        seed=SEEDS,
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_matches_svd(self, m, n, k, data_seed, seed):
        block = synthetic_block(m, n, k, data_seed)
        svd = truncated_svd(block, tol=1e-8)
        rand = randomized_compress(block, tol=1e-8, seed=seed)
        svd_rank = 0 if svd is None else svd.rank
        rand_rank = 0 if rand is None else rand.rank
        assert rand_rank == svd_rank

    @given(
        m=st.integers(40, 90),
        n=st.integers(40, 90),
        k=st.integers(1, 12),
        data_seed=st.integers(0, 2**16),
        seed=SEEDS,
    )
    @settings(max_examples=40, deadline=None)
    def test_error_within_tolerance(self, m, n, k, data_seed, seed):
        tol = 1e-6
        block = synthetic_block(m, n, k, data_seed, noise=1e-9)
        rand = randomized_compress(block, tol=tol, seed=seed)
        assert rand is not None
        # Frobenius-stop convergence: the sampled basis captures
        # everything above the threshold, so the truncation error obeys
        # the same bound as the SVD's (up to the discarded tail mass)
        err = np.linalg.norm(block - rand.to_dense(), ord=2)
        assert err <= tol * np.sqrt(min(m, n))

    @given(
        m=st.integers(30, 70),
        k=st.integers(1, 8),
        data_seed=st.integers(0, 2**16),
        seed=SEEDS,
    )
    @settings(max_examples=30, deadline=None)
    def test_bitwise_deterministic_in_seed(self, m, k, data_seed, seed):
        block = synthetic_block(m, m, k, data_seed)
        a = randomized_compress(block, tol=1e-8, seed=seed)
        b = randomized_compress(block, tol=1e-8, seed=seed)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.u.tobytes() == b.u.tobytes()
            assert a.v.tobytes() == b.v.tobytes()

    @given(
        data_seed=st.integers(0, 2**16),
        seed=SEEDS,
        scale=st.floats(1e-9, 1e-7),
    )
    @settings(max_examples=25, deadline=None)
    def test_negligible_blocks_disappear(self, data_seed, seed, scale):
        block = scale * synthetic_block(40, 40, 3, data_seed)
        assert randomized_compress(block, tol=1e-4, seed=seed) is None


class TestNullCertificateProperties:
    @given(
        m=st.integers(20, 60),
        n=st.integers(20, 60),
        k=st.integers(0, 3),
        data_seed=st.integers(0, 2**16),
        scale=st.floats(0.9, 1.1),
        relative=st.booleans(),
        method=st.sampled_from(["svd", "rand"]),
        seed=SEEDS,
    )
    @settings(max_examples=120, deadline=None)
    def test_fires_only_where_the_decomposition_says_null(
        self, m, n, k, data_seed, scale, relative, method, seed
    ):
        """Blocks straddling the cutoff: wherever the certificate fires
        the unscreened decomposition (same policy, and the plain SVD)
        also says null; everywhere else the result is byte-identical
        to the unscreened one."""
        if relative:
            # the relative cutoff tol * sigma_1 discards everything
            # only for tol >= 1: straddle that
            tol, block = scale, synthetic_block(m, n, k, data_seed)
        else:
            tol, block = 1e-6, synthetic_block(m, n, k, data_seed)
            if k:
                block *= scale * tol / np.linalg.norm(block)
        stats = CompressionStats()
        out = compress_block(
            block, tol, relative=relative, method=method, seed=seed, stats=stats
        )
        with mock.patch.object(lowrank, "_certified_null", lambda *a: False):
            unscreened = compress_block(
                block, tol, relative=relative, method=method, seed=seed
            )
        if stats.screened_null:
            assert out is None and unscreened is None
            assert truncated_svd(block, tol, relative=relative) is None
        else:
            assert (out is None) == (unscreened is None)
            if out is not None:
                assert out.u.tobytes() == unscreened.u.tobytes()
                assert out.v.tobytes() == unscreened.v.tobytes()
        if k == 0:
            assert stats.screened_null == 1


def as_pair(part):
    """``(U Q^T, V Q^T)`` with orthonormal ``Q``: operands whose product
    is the term ``U V^T``."""
    m, k = part.u.shape
    q = np.linalg.qr(np.random.default_rng(k).standard_normal((m, k)))[0]
    return LowRankTile(LowRankFactor(part.u, q)), LowRankTile(LowRankFactor(part.v, q))


def rounded_sum(parts, tol):
    """``-sum_k U_k V_k^T`` through the factorization's accumulating
    kernel: each term enters as an :func:`as_pair` operand pair, the
    target starts null, the sum is rounded once."""
    m = parts[0].shape[0]
    return gemm_update(NullTile((m, m)), [as_pair(p) for p in parts], tol=tol)


def low_rank(rng, m, k):
    return truncated_svd(rng.standard_normal((m, k)) @ rng.standard_normal((k, m)), tol=1e-12)


class TestRandomizedRecompressProperties:
    """The one rounding of an accumulated update (the certified
    range-finder) agrees with the exact rounding of the same stacked
    sum."""

    @given(
        m=st.integers(80, 140),
        ks=st.lists(st.integers(2, 8), min_size=3, max_size=5),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_exact_rounding(self, m, ks, data_seed):
        rng = np.random.default_rng(data_seed)
        parts = [low_rank(rng, m, k) for k in ks]
        stacked = LowRankFactor(
            np.hstack([p.u for p in parts]), np.hstack([p.v for p in parts])
        )
        exact = recompress(stacked, tol=1e-9)
        sampled = rounded_sum(parts, tol=1e-9)
        assert sampled.rank == exact.rank
        assert np.allclose(-sampled.to_dense(), exact.to_dense(), atol=1e-6)

    @given(
        m=st.integers(80, 140),
        k=st.integers(6, 10),
        copies=st.integers(3, 4),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_redundant_rank_recovered(self, m, k, copies, data_seed):
        rng = np.random.default_rng(data_seed)
        base = low_rank(rng, m, k)
        part = LowRankFactor(base.u, base.v / copies)
        rounded = rounded_sum([part] * copies, tol=1e-9)
        assert rounded.rank == k
        assert np.allclose(-rounded.to_dense(), base.to_dense(), atol=1e-6)

    @given(
        m=st.integers(70, 140),
        kc=st.integers(1, 12),
        cancel=st.integers(0, 12),
        ks=st.lists(st.integers(1, 6), min_size=0, max_size=3),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_low_rank_target_matches_exact_rounding(
        self, m, kc, cancel, ks, data_seed
    ):
        """A low-rank target C joins the update's one product and sizes
        the first sample panel by its rank.  The update removes
        ``cancel`` of C's own rank-one terms (so the result can fall
        below C's rank, or to null) and adds terms of ranks ``ks``."""
        rng = np.random.default_rng(data_seed)
        c = low_rank(rng, m, kc)
        cancel = min(cancel, kc)
        parts = [LowRankFactor(c.u[:, :cancel], c.v[:, :cancel])] if cancel else []
        parts += [low_rank(rng, m, k) for k in ks]
        if not parts:
            return  # nothing to round
        exact = recompress(
            LowRankFactor(
                np.hstack([c.u] + [p.u for p in parts]),
                np.hstack([c.v] + [-p.v for p in parts]),
            ),
            tol=1e-9,
        )
        pairs = [as_pair(p) for p in parts]
        out = gemm_update(LowRankTile(c), pairs, tol=1e-9)
        again = gemm_update(LowRankTile(c), pairs, tol=1e-9)
        if exact is None:
            assert isinstance(out, NullTile) and isinstance(again, NullTile)
            return
        assert out.rank == exact.rank
        assert np.allclose(out.to_dense(), exact.to_dense(), atol=1e-6)
        assert out.u.tobytes() == again.u.tobytes()
        assert out.v.tobytes() == again.v.tobytes()

    @given(
        m=st.integers(70, 140),
        kc=st.integers(2, 12),
        data_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_low_rank_target_cancels_to_null(self, m, kc, data_seed):
        c = low_rank(np.random.default_rng(data_seed), m, kc)
        halves = [LowRankFactor(c.u[:, s], c.v[:, s]) for s in (slice(0, 1), slice(1, kc))]
        out = gemm_update(LowRankTile(c), [as_pair(p) for p in halves], tol=1e-9)
        assert isinstance(out, NullTile)
