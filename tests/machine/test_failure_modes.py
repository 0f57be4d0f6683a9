"""Failure-injection and edge-case tests across the stack."""

import numpy as np
import pytest

from repro.core import analyze_ranks, ptg_cholesky_tasks, tlr_cholesky
from repro.core.rank_model import SyntheticRankField
from repro.distribution import TwoDBlockCyclic
from repro.linalg.tile import DenseTile, LowRankTile, NullTile
from repro.linalg.lowrank import LowRankFactor
from repro.linalg.tile_matrix import TLRMatrix
from repro.machine import SHAHEEN_II, DistributedSimulator
from repro.runtime.dag import build_graph
from repro.runtime.engine import ExecutionEngine
from repro.runtime.task import make_task


class TestNumericFailures:
    def test_indefinite_mid_factorization(self):
        """A matrix whose trailing Schur complement turns indefinite
        fails inside POTRF of a later panel with a clear error."""
        n, b = 64, 16
        a = np.eye(n)
        # make the trailing block lose definiteness after updates
        a[n - 1, n - 1] = -1.0
        t = TLRMatrix.from_dense(a, b, accuracy=1e-12)
        with pytest.raises(np.linalg.LinAlgError):
            tlr_cholesky(t)

    def test_low_rank_diagonal_rejected(self):
        """Diagonal tiles must stay dense; a corrupted container is
        rejected by POTRF, not silently mis-factorized."""
        t = TLRMatrix.from_dense(np.eye(32), 16, accuracy=1e-12)
        f = LowRankFactor(np.ones((16, 1)), np.ones((16, 1)))
        t.set_tile(0, 0, LowRankTile(f))
        with pytest.raises(TypeError):
            tlr_cholesky(t)

    def test_kernel_exception_propagates_through_engine(self):
        g = build_graph([make_task("BOOM", (0,), rw=[(0, 0)])])
        eng = ExecutionEngine()

        def boom(task, data):
            raise RuntimeError("kernel failed")

        eng.register("BOOM", boom)
        with pytest.raises(RuntimeError, match="kernel failed"):
            eng.run(g, None)


class TestSimulatorEdgeCases:
    def test_single_tile_matrix(self):
        graph = build_graph(ptg_cholesky_tasks(1, tile_size=64, rank_of=lambda m, k: 64))
        sim = DistributedSimulator(SHAHEEN_II, 1)
        res = sim.run(graph, 64, lambda m, k: 64, TwoDBlockCyclic(1, 1))
        assert res.n_tasks == 1
        assert res.makespan > 0

    def test_all_null_offdiagonal(self):
        """Fully trimmed problem: only the POTRF chain remains."""
        nt = 6
        ranks = np.zeros((nt, nt), dtype=np.int64)
        np.fill_diagonal(ranks, 128)
        ana = analyze_ranks(ranks, nt)
        graph = build_graph(
            ptg_cholesky_tasks(nt, ana, tile_size=128, rank_of=lambda m, k: ranks[m, k])
        )
        assert len(graph) == nt  # POTRFs only
        sim = DistributedSimulator(SHAHEEN_II, 2)
        res = sim.run(graph, 128, lambda m, k: int(ranks[m, k]),
                      TwoDBlockCyclic(1, 2))
        assert res.n_tasks == nt

    def test_zero_node_count_rejected(self):
        with pytest.raises(ValueError):
            DistributedSimulator(SHAHEEN_II, 0)


class TestRankFieldEdges:
    def test_single_tile_field(self):
        f = SyntheticRankField.from_parameters(100, 200, 1e-3, 1e-4)
        assert f.nt == 1
        assert f.initial_density() == 1.0
        mask = f.initial_mask()
        assert mask.shape == (1, 1) and mask[0, 0]

    def test_extreme_shape_parameters(self):
        # vanishing correlation: near-diagonal band only
        tiny = SyntheticRankField.from_parameters(500_000, 2000, 1e-8, 1e-4)
        # global correlation: everything couples
        huge = SyntheticRankField.from_parameters(500_000, 2000, 10.0, 1e-4)
        assert tiny.initial_density() < 0.2
        assert huge.initial_density() > 0.9

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SyntheticRankField.from_parameters(0, 100, 1e-3, 1e-4)
        with pytest.raises(ValueError):
            SyntheticRankField.from_parameters(100, 100, -1e-3, 1e-4)
        with pytest.raises(ValueError):
            SyntheticRankField.from_parameters(100, 100, 1e-3, 0.0)
