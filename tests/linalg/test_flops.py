"""Tests for the flop-count formulas."""

import pytest

from repro.linalg import flops as fl


class TestDenseCounts:
    def test_potrf_cubic_leading_term(self):
        assert fl.potrf_flops(1000) == pytest.approx(1000**3 / 3, rel=1e-2)

    def test_trsm(self):
        assert fl.trsm_dense_flops(100) == 100**3
        assert fl.trsm_dense_flops(100, ncols=10) == 100 * 100 * 10

    def test_syrk(self):
        assert fl.syrk_dense_flops(100) == 100 * 100 * 101

    def test_gemm(self):
        assert fl.gemm_dense_flops(100) == 2 * 100**3


class TestTLRCounts:
    def test_tlr_cheaper_than_dense(self):
        b, k = 1000, 20
        assert fl.trsm_tlr_flops(b, k) < fl.trsm_dense_flops(b)
        assert fl.syrk_tlr_flops(b, k) < fl.syrk_dense_flops(b)
        assert fl.gemm_tlr_flops(b, k, k, k) < fl.gemm_dense_flops(b)

    def test_tlr_trsm_scales_linearly_in_rank(self):
        assert fl.trsm_tlr_flops(100, 20) == 2 * fl.trsm_tlr_flops(100, 10)

    def test_gemm_null_operand_free(self):
        assert fl.gemm_tlr_flops(100, 0, 5, 5) == 0.0
        assert fl.gemm_tlr_flops(100, 5, 0, 5) == 0.0

    def test_gemm_monotone_in_ranks(self):
        base = fl.gemm_tlr_flops(500, 10, 10, 10)
        assert fl.gemm_tlr_flops(500, 20, 10, 10) > base
        assert fl.gemm_tlr_flops(500, 10, 20, 10) > base
        assert fl.gemm_tlr_flops(500, 10, 10, 20) > base

    def test_compression_dominates_single_tile_kernels(self):
        """SVD compression of a tile costs more than any single dense
        kernel on it — the premise behind Fig. 11's breakdown."""
        b = 500
        assert fl.compression_flops(b) > fl.gemm_dense_flops(b)
        assert fl.compression_flops(b) > fl.potrf_flops(b)


class TestAccumulatedUpdateCounts:
    """``gemm_accumulated_flops``: the left-looking GEMM(m, n) task."""

    def test_matches_hand_count(self):
        b, kc = 100, 7
        pairs = [(4, 6), (10, 3), (0, 9), (100, 5)]
        product = 4 * b * (4 * 6 + 10 * 3 + 100 * 5)
        apply = 2 * b * b * (4 + 3 + 5)
        p = kc + 8  # sampled columns: detected rank + oversample
        # sample, Q_j^T A (the core's rows), downdate; QR + core SVD; U
        rounding = 6 * b * b * p + 26 * b * p * p + 2 * b * p * kc
        assert fl.gemm_accumulated_flops(b, pairs, kc) == product + apply + rounding
        assert rounding == fl.randomized_compression_flops(b, kc)

    def test_no_contribution_is_free(self):
        assert fl.gemm_accumulated_flops(100, [], 5) == 0.0
        assert fl.gemm_accumulated_flops(100, [(0, 9), (4, 0)], 5) == 0.0

    def test_dense_pair_is_a_dense_gemm_and_dense_target_is_not_rounded(self):
        b = 64
        assert fl.gemm_accumulated_flops(b, [(b, b)], b) == fl.gemm_dense_flops(b)
        lowrank_target = fl.gemm_accumulated_flops(b, [(b, b)], 3)
        assert lowrank_target == fl.gemm_dense_flops(
            b
        ) + fl.randomized_compression_flops(b, 3)

    def test_one_rounding_however_long_the_list(self):
        b, pair, kc = 200, (20, 20), 20
        one = fl.gemm_accumulated_flops(b, [pair], kc)
        five = fl.gemm_accumulated_flops(b, [pair] * 5, kc)
        rounding = fl.randomized_compression_flops(b, kc)
        assert five - rounding == pytest.approx(5 * (one - rounding))
