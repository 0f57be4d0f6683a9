"""Tests for the functional distributed executor (real OS processes)."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core import analyze_ranks, cholesky_tasks, hicma_parsec_factorize
from repro.distribution import (
    BandDistribution,
    DiamondDistribution,
    TwoDBlockCyclic,
)
from repro.runtime import build_graph
from repro.runtime.distributed_exec import DistributedExecutor
from repro.runtime.transport import WorkerCrashError


@pytest.fixture(scope="module")
def problem(sparse_tlr):
    nt = sparse_tlr.n_tiles
    ana = analyze_ranks(sparse_tlr.rank_array(), nt)
    graph = build_graph(cholesky_tasks(nt, ana))
    return graph


class TestDistributedExecution:
    def test_matches_single_process_factor(self, sparse_tlr, problem):
        """The distributed factor must equal the in-process one."""
        ref = hicma_parsec_factorize(sparse_tlr.copy()).factor
        ex = DistributedExecutor(4)
        res = ex.run(sparse_tlr.copy(), problem, TwoDBlockCyclic(2, 2))
        assert np.allclose(
            res.factor.to_dense(symmetrize=False),
            ref.to_dense(symmetrize=False),
            atol=1e-12,
        )

    def test_single_worker_no_transfers(self, sparse_tlr, problem):
        ex = DistributedExecutor(1)
        res = ex.run(sparse_tlr.copy(), problem, TwoDBlockCyclic(1, 1))
        assert res.n_transfers == 0
        assert res.transfer_bytes == 0
        assert res.tasks_per_worker == [len(problem)]

    def test_multi_worker_moves_data(self, sparse_tlr, problem):
        ex = DistributedExecutor(4)
        res = ex.run(sparse_tlr.copy(), problem, TwoDBlockCyclic(2, 2))
        assert res.n_transfers > 0
        assert res.transfer_bytes > 0
        assert sum(res.tasks_per_worker) == len(problem)
        # every worker that owns tiles executes something
        assert sum(1 for t in res.tasks_per_worker if t > 0) >= 3

    def test_execution_remapping(self, sparse_tlr, problem):
        """Breaking owner-computes: data lives in 2DBCDD, execution
        follows band+diamond — result identical, traffic differs."""
        ref = hicma_parsec_factorize(sparse_tlr.copy()).factor
        dd = TwoDBlockCyclic(2, 2)
        xd = BandDistribution(DiamondDistribution(2, 2))
        res = DistributedExecutor(4).run(sparse_tlr.copy(), problem, dd, xd)
        assert np.allclose(
            res.factor.to_dense(symmetrize=False),
            ref.to_dense(symmetrize=False),
            atol=1e-12,
        )
        # under the band mapping, every panel's POTRF and its
        # critical TRSM execute on the same worker
        nt = sparse_tlr.n_tiles
        for k in range(nt - 1):
            assert xd.owner(k + 1, k) == xd.owner(k, k)

    def test_solve_through_distributed_factor(
        self, sparse_tlr, sparse_dense_ref, problem
    ):
        from repro.core import solve_cholesky

        res = DistributedExecutor(2).run(
            sparse_tlr.copy(), problem, TwoDBlockCyclic(1, 2)
        )
        rng = np.random.default_rng(0)
        b = rng.standard_normal(sparse_tlr.n)
        x = solve_cholesky(res.factor, b)
        rel = np.linalg.norm(sparse_dense_ref @ x - b) / np.linalg.norm(b)
        assert rel < 1e-2

    def test_nproc_mismatch_rejected(self, sparse_tlr, problem):
        with pytest.raises(ValueError):
            DistributedExecutor(4).run(
                sparse_tlr.copy(), problem, TwoDBlockCyclic(2, 3)
            )

    def test_bad_nproc(self):
        with pytest.raises(ValueError):
            DistributedExecutor(0)

    @pytest.mark.timeout(60)
    def test_dead_rank_is_a_typed_error_not_a_hang(
        self, sparse_tlr, problem, monkeypatch
    ):
        """A rank that exits mid-kernel reads as EOF on its reply pipe
        (the coordinator holds no copy of the rank's end), and the
        surviving ranks are torn down with the run."""
        from repro.linalg import kernels_tlr

        # ranks are forked, and bind their kernels after the fork
        monkeypatch.setattr(kernels_tlr, "trsm_tile", lambda *a: os._exit(3))
        start = time.monotonic()
        with pytest.raises(
            WorkerCrashError, match=r"rank \d \(pid \d+\) died \(exit 3\).*TRSM"
        ):
            DistributedExecutor(2).run(
                sparse_tlr.copy(), problem, TwoDBlockCyclic(1, 2)
            )
        assert time.monotonic() - start < 5.0
        assert not [
            p for p in multiprocessing.active_children()
            if p.name.startswith("tlr-rank")
        ]
