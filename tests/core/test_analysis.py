"""Tests for Algorithm 1 — the DAG-trimming matrix analysis."""

import numpy as np
import pytest

from repro.core.analysis import analyze_ranks
from repro.core.rank_model import analyze_mask_fast
from tests.dag_refs import ptg_task_counts


def band_mask(nt, width):
    """Initial ranks of a tile-band matrix: 1 within the band, else 0."""
    r = np.zeros((nt, nt), dtype=np.int64)
    for k in range(nt):
        for m in range(k, min(nt, k + width + 1)):
            r[m, k] = 1
    return r


class TestStructure:
    def test_dense_input_all_tasks(self):
        nt = 6
        ana = analyze_ranks(np.ones((nt, nt), dtype=np.int64), nt)
        counts = ptg_task_counts(ana)
        assert counts["POTRF"] == nt
        assert counts["TRSM"] == nt * (nt - 1) // 2
        assert counts["SYRK"] == nt * (nt - 1) // 2
        assert counts["GEMM"] == sum(
            (nt - 1 - k) * (nt - 2 - k) // 2 for k in range(nt)
        )
        assert ana.initial_density() == 1.0
        assert ana.final_density() == 1.0

    def test_diagonal_only_input_trims_everything(self):
        nt = 8
        ana = analyze_ranks(np.zeros((nt, nt), dtype=np.int64), nt)
        counts = ptg_task_counts(ana)
        assert counts["TRSM"] == 0
        assert counts["SYRK"] == 0
        assert counts["GEMM"] == 0
        assert ana.final_density() == 0.0
        assert np.array_equal(ana.final_nonzero, ana.initial_nonzero)  # no fill

    def test_band_pattern_closed_under_fill(self):
        """A tile band is closed under Cholesky fill: GEMM targets
        (m, n) of band-tile pairs satisfy m - n < band width."""
        nt, w = 12, 3
        ana = analyze_ranks(band_mask(nt, w), nt)
        assert np.array_equal(ana.final_nonzero, ana.initial_nonzero)  # no fill
        assert ana.final_density() == ana.initial_density()

    def test_single_offdiag_tile_no_gemm(self):
        nt = 5
        r = np.zeros((nt, nt), dtype=np.int64)
        r[3, 0] = 7
        ana = analyze_ranks(r, nt)
        assert ana.trsm_rows(0) == [3]
        assert ana.syrk_panels(3) == [0]
        assert ptg_task_counts(ana)["GEMM"] == 0

    def test_fill_in_cascades(self):
        """Fill created in panel k participates in later panels."""
        nt = 4
        r = np.zeros((nt, nt), dtype=np.int64)
        r[1, 0] = 1
        r[2, 0] = 1  # pair in panel 0 -> fill at (2,1)
        ana = analyze_ranks(r, nt)
        assert ana.final_nonzero[2, 1] and not ana.initial_nonzero[2, 1]
        # the filled (2,1) must now require a TRSM in panel 1
        assert 2 in ana.trsm_rows(1)
        assert 1 in ana.syrk_panels(2)

    def test_gemm_panel_lists_match_paper_semantics(self):
        """gemm[(m, n)] holds every panel k whose pair (m,k),(n,k)
        was non-zero at panel-k time."""
        nt = 5
        r = np.zeros((nt, nt), dtype=np.int64)
        r[2, 0] = r[3, 0] = 1
        r[3, 1] = r[2, 1] = 1
        ana = analyze_ranks(r, nt)
        assert ana.gemm_panels(3, 2) == [0, 1]

    def test_1d_layout_accepted(self):
        nt = 6
        r2 = band_mask(nt, 2)
        r1 = np.zeros(nt * nt, dtype=np.int64)
        for k in range(nt):
            for m in range(k, nt):
                r1[k * nt + m] = r2[m, k]
        a2 = analyze_ranks(r2, nt)
        a1 = analyze_ranks(r1, nt)
        assert np.array_equal(a1.final_nonzero, a2.final_nonzero)
        assert ptg_task_counts(a1) == ptg_task_counts(a2)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            analyze_ranks(np.zeros(10), 4)
        with pytest.raises(ValueError):
            analyze_ranks(np.zeros((3, 4)), 3)

    def test_local_filter_restricts_gemm_lists_only(self):
        nt = 6
        r = band_mask(nt, 3)
        full = analyze_ranks(r, nt)
        local = analyze_ranks(r, nt, local_filter=lambda m, n: m % 2 == 0)
        # trimming pattern identical
        assert np.array_equal(full.final_nonzero, local.final_nonzero)
        # only local GEMM lists materialized
        assert all(m % 2 == 0 for (m, n) in local.gemm)
        assert local.nbytes() < full.nbytes()

    def test_nbytes_positive_and_small(self):
        nt = 10
        ana = analyze_ranks(band_mask(nt, 2), nt)
        assert 0 < ana.nbytes() < 8 * nt * nt * 10


class TestFastEquivalence:
    """The vectorized Algorithm 1 must agree with the reference."""

    @pytest.mark.parametrize("density", [0.05, 0.2, 0.5, 0.9])
    def test_random_patterns(self, density, rng):
        nt = 24
        mask = np.tril(rng.random((nt, nt)) < density)
        np.fill_diagonal(mask, True)
        ref = analyze_ranks(mask.astype(np.int64), nt)
        fast = analyze_mask_fast(mask)
        assert np.array_equal(fast["final_mask"], ref.final_nonzero)
        assert fast["initial_density"] == pytest.approx(ref.initial_density())
        assert fast["final_density"] == pytest.approx(ref.final_density())
        assert int(fast["nnz_col"].sum()) == ptg_task_counts(ref)["TRSM"]
        assert int(fast["n_gemm_col"].sum()) == ptg_task_counts(ref)["GEMM"]

    def test_real_matrix(self, sparse_tlr):
        ref = analyze_ranks(sparse_tlr.rank_array(), sparse_tlr.n_tiles)
        fast = analyze_mask_fast(sparse_tlr.rank_matrix() > 0)
        assert np.array_equal(fast["final_mask"], ref.final_nonzero)


class TestConservativeness:
    def test_symbolic_pattern_is_superset_of_numeric(
        self, sparse_tlr, sparse_generator
    ):
        """Every tile that is numerically non-null after factorization
        must be symbolically non-zero — the property that makes
        trimming safe (Section VI)."""
        from repro.core.tlr_cholesky import tlr_cholesky

        ana = analyze_ranks(sparse_tlr.rank_array(), sparse_tlr.n_tiles)
        result = tlr_cholesky(sparse_tlr.copy(), trim=True)
        nt = sparse_tlr.n_tiles
        for k in range(nt):
            for m in range(k + 1, nt):
                if not result.factor.tile(m, k).is_null:
                    assert ana.is_nonzero_final(m, k), (m, k)
