"""Tests for the numeric TLR Cholesky driver."""

import numpy as np
import pytest

from repro.core.tlr_cholesky import tlr_cholesky
from repro.core.hicma_parsec import hicma_parsec_factorize
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.scheduler import FIFOScheduler, LIFOScheduler


class TestCorrectness:
    def test_residual_within_threshold(self, sparse_tlr, sparse_dense_ref):
        result = tlr_cholesky(sparse_tlr.copy(), trim=True)
        # truncation at 1e-6 accumulates over NT panels; allow slack
        assert result.residual(sparse_dense_ref) < 1e-4

    def test_matches_dense_cholesky(self, spd_matrix):
        """On a well-conditioned matrix with tight tolerance the TLR
        factor matches LAPACK's to high accuracy."""
        a = TLRMatrix.from_dense(spd_matrix, tile_size=32, accuracy=1e-12)
        result = tlr_cholesky(a, trim=True)
        l_tlr = np.tril(result.factor.to_dense(symmetrize=False))
        l_ref = np.linalg.cholesky(spd_matrix)
        assert np.allclose(l_tlr, l_ref, atol=1e-8)

    def test_dense_regime(self, dense_tlr, dense_generator):
        result = tlr_cholesky(dense_tlr.copy(), trim=True)
        assert result.residual(dense_generator.dense()) < 1e-5

    def test_raises_on_indefinite(self):
        a = TLRMatrix.from_dense(-np.eye(64), tile_size=32, accuracy=1e-10)
        with pytest.raises(np.linalg.LinAlgError):
            tlr_cholesky(a)


class TestTrimmingEquivalence:
    def test_trimmed_equals_untrimmed(self, sparse_tlr):
        """The paper's key safety property: trimming never changes the
        computed factor, only the task count."""
        r_trim = tlr_cholesky(sparse_tlr.copy(), trim=True)
        r_full = tlr_cholesky(sparse_tlr.copy(), trim=False)
        assert len(r_trim.graph) < len(r_full.graph)
        lt = r_trim.factor.to_dense(symmetrize=False)
        lf = r_full.factor.to_dense(symmetrize=False)
        assert np.allclose(lt, lf, atol=1e-10)

    def test_trimmed_task_count_matches_analysis(self, sparse_tlr):
        r = tlr_cholesky(sparse_tlr.copy(), trim=True)
        ana = r.analysis
        assert ana is not None
        # left-looking: one POTRF per column, one TRSM per non-zero
        # panel tile, one SYRK / GEMM per target with a non-empty list
        assert r.graph.task_counts() == {
            "POTRF": ana.nt,
            "TRSM": sum(len(rows) for rows in ana.trsm),
            "SYRK": sum(1 for panels in ana.syrk if panels),
            "GEMM": len(ana.gemm),
        }

    def test_untrimmed_has_no_analysis(self, sparse_tlr):
        r = tlr_cholesky(sparse_tlr.copy(), trim=False)
        assert r.analysis is None


class TestSchedulers:
    @pytest.mark.parametrize("sched", [FIFOScheduler, LIFOScheduler])
    def test_factor_independent_of_schedule(self, sparse_tlr, sparse_dense_ref, sched):
        """Any valid DAG traversal computes the same factor."""
        r = tlr_cholesky(sparse_tlr.copy(), trim=True, scheduler=sched())
        assert r.residual(sparse_dense_ref) < 1e-4


class TestDrivers:
    def test_lorapo_driver_untrimmed(self, sparse_tlr):
        """Lorapo's numerics: the full DAG, no analysis."""
        r = tlr_cholesky(sparse_tlr.copy(), trim=False)
        assert r.analysis is None

    def test_hicma_driver_trimmed(self, sparse_tlr):
        r = hicma_parsec_factorize(sparse_tlr.copy())
        assert r.analysis is not None

    def test_trace_covers_all_tasks(self, sparse_tlr):
        r = hicma_parsec_factorize(sparse_tlr.copy())
        assert len(r.trace.events) == len(r.graph)
        potrfs = sum(e.klass == "POTRF" for e in r.trace.events)
        assert potrfs == sparse_tlr.n_tiles

    def test_timings_populated(self, sparse_tlr):
        r = hicma_parsec_factorize(sparse_tlr.copy())
        assert r.setup_seconds > 0
        assert r.execute_seconds > 0
        assert r.elapsed == pytest.approx(r.setup_seconds + r.execute_seconds)


class TestFactorStructure:
    def test_factor_density_matches_prediction(self, sparse_tlr):
        """Numeric non-null pattern is a subset of the symbolic one."""
        r = tlr_cholesky(sparse_tlr.copy(), trim=True)
        nt = r.factor.n_tiles
        for k in range(nt):
            for m in range(k + 1, nt):
                if not r.factor.tile(m, k).is_null:
                    assert r.analysis.is_nonzero_final(m, k)
