"""Serial/parallel equivalence of the factorization driver.

The parallel engine must be *invisible* numerically: the DAG's
RAW/WAR/WAW edges order every tile access, the kernels are
deterministic, so the factor computed with N workers is bitwise the
factor computed serially — same residual, same per-tile ranks — for
every worker count and every scheduler policy.
"""

import numpy as np
import pytest

from repro.core.tlr_cholesky import tlr_cholesky
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.scheduler import (
    FIFOScheduler,
    LIFOScheduler,
    PriorityScheduler,
)


def tile_ranks(factor):
    """Per-tile rank map of a factor (the compressed structure)."""
    return {idx: tile.rank for idx, tile in factor}


class TestCholeskyEquivalence:
    @pytest.fixture(scope="class")
    def serial_result(self, sparse_tlr):
        return tlr_cholesky(sparse_tlr.copy(), trim=True)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_factor_matches_serial(self, sparse_tlr, serial_result, workers):
        r = tlr_cholesky(sparse_tlr.copy(), trim=True, workers=workers)
        l_par = r.factor.to_dense(symmetrize=False)
        l_ser = serial_result.factor.to_dense(symmetrize=False)
        assert np.array_equal(l_par, l_ser)
        assert tile_ranks(r.factor) == tile_ranks(serial_result.factor)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize(
        "sched", [FIFOScheduler, LIFOScheduler, PriorityScheduler]
    )
    def test_factor_matches_serial_all_schedulers(
        self, sparse_tlr, serial_result, sched
    ):
        r = tlr_cholesky(
            sparse_tlr.copy(), trim=True, scheduler=sched(), workers=4
        )
        l_par = r.factor.to_dense(symmetrize=False)
        l_ser = serial_result.factor.to_dense(symmetrize=False)
        assert np.array_equal(l_par, l_ser)

    @pytest.mark.timeout(120)
    def test_residual_matches_serial(
        self, sparse_tlr, sparse_dense_ref, serial_result
    ):
        r = tlr_cholesky(sparse_tlr.copy(), trim=True, workers=4)
        assert r.residual(sparse_dense_ref) == pytest.approx(
            serial_result.residual(sparse_dense_ref)
        )
        assert r.residual(sparse_dense_ref) < 1e-4

    @pytest.mark.timeout(120)
    def test_untrimmed_parallel_matches_serial(self, sparse_tlr):
        r_ser = tlr_cholesky(sparse_tlr.copy(), trim=False)
        r_par = tlr_cholesky(sparse_tlr.copy(), trim=False, workers=4)
        assert np.array_equal(
            r_ser.factor.to_dense(symmetrize=False),
            r_par.factor.to_dense(symmetrize=False),
        )

    @pytest.mark.timeout(120)
    def test_trace_covers_all_tasks_and_lanes_are_bounded(self, sparse_tlr):
        r = tlr_cholesky(sparse_tlr.copy(), trim=True, workers=4)
        assert len(r.trace) == len(r.graph)
        assert set(r.trace.worker_lanes()) <= set(range(4))

    @pytest.mark.timeout(120)
    def test_poisoned_kernel_fails_fast(self, monkeypatch):
        """A kernel exception inside a parallel factorization must
        surface to the caller, not hang the worker pool."""
        import importlib

        mod = importlib.import_module("repro.core.tlr_cholesky")

        def poisoned(tile):
            raise np.linalg.LinAlgError("poisoned POTRF")

        monkeypatch.setattr(mod, "potrf_tile", poisoned)
        rng = np.random.default_rng(7)
        n = 128
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = TLRMatrix.from_dense(
            (q * np.linspace(1, 4, n)) @ q.T, tile_size=32, accuracy=1e-10
        )
        with pytest.raises(np.linalg.LinAlgError, match="poisoned"):
            tlr_cholesky(a, workers=4)

    @pytest.mark.timeout(120)
    def test_env_var_routes_to_parallel_engine(self, sparse_tlr, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        r = tlr_cholesky(sparse_tlr.copy(), trim=True)
        assert len(r.trace) == len(r.graph)
        assert set(r.trace.worker_lanes()) <= {0, 1, 2}

