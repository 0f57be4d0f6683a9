"""Tests for the discrete-event distributed simulator."""

import numpy as np
import pytest

from repro.core import analyze_ranks, ptg_cholesky_tasks
from repro.distribution import (
    BandDistribution,
    DiamondDistribution,
    TwoDBlockCyclic,
    square_grid,
)
from repro.machine import SHAHEEN_II, CostModel, DistributedSimulator
from repro.runtime import build_graph
from tests.dag_refs import longest_path


@pytest.fixture(scope="module")
def small_problem():
    """NT=12 tile Cholesky with a banded rank structure."""
    nt, b = 12, 512
    ranks = np.zeros((nt, nt), dtype=np.int64)
    for k in range(nt):
        ranks[k, k] = b
        for m in range(k + 1, nt):
            d = m - k
            ranks[m, k] = max(0, 40 // d if d <= 4 else 0)
    ana = analyze_ranks(ranks, nt)
    rank_of = lambda m, k: int(ranks[m, k])
    tasks = ptg_cholesky_tasks(nt, ana, tile_size=b, rank_of=rank_of)
    graph = build_graph(tasks)
    return nt, b, ranks, ana, graph, rank_of


class TestBasics:
    def test_all_tasks_execute(self, small_problem):
        nt, b, ranks, ana, graph, rank_of = small_problem
        sim = DistributedSimulator(SHAHEEN_II, 4)
        res = sim.run(graph, b, rank_of, TwoDBlockCyclic(2, 2))
        assert res.n_tasks == len(graph)
        assert res.makespan > 0

    def test_single_process_no_comm(self, small_problem):
        nt, b, ranks, ana, graph, rank_of = small_problem
        sim = DistributedSimulator(SHAHEEN_II, 1)
        res = sim.run(graph, b, rank_of, TwoDBlockCyclic(1, 1))
        assert res.comm_bytes == 0.0
        assert res.n_messages == 0

    def test_makespan_at_least_critical_path(self, small_problem):
        """Model-exactness: makespan >= per-task-duration critical path."""
        nt, b, ranks, ana, graph, rank_of = small_problem
        cm = CostModel(SHAHEEN_II)
        sim = DistributedSimulator(SHAHEEN_II, 4)
        res = sim.run(graph, b, rank_of, TwoDBlockCyclic(2, 2))
        from repro.machine.simulator import operand_ranks

        def w(t):
            return cm.node_time(t.klass, b, *operand_ranks(t, rank_of))[0]

        assert res.makespan >= longest_path(graph, w) * (1 - 1e-9)

    def test_makespan_at_least_work_bound(self, small_problem):
        nt, b, ranks, ana, graph, rank_of = small_problem
        nproc = 4
        sim = DistributedSimulator(SHAHEEN_II, nproc)
        res = sim.run(graph, b, rank_of, TwoDBlockCyclic(2, 2))
        total_core_seconds = res.busy_per_process.sum()
        bound = total_core_seconds / (nproc * SHAHEEN_II.cores_per_node)
        assert res.makespan >= bound * (1 - 1e-9)

    def test_more_processes_not_slower_much(self, small_problem):
        nt, b, ranks, ana, graph, rank_of = small_problem
        r1 = DistributedSimulator(SHAHEEN_II, 1).run(
            graph, b, rank_of, TwoDBlockCyclic(1, 1)
        )
        r4 = DistributedSimulator(SHAHEEN_II, 4).run(
            graph, b, rank_of, TwoDBlockCyclic(2, 2)
        )
        # communication may cost something, but not a blow-up
        assert r4.makespan < 2.0 * r1.makespan

    def test_deterministic(self, small_problem):
        nt, b, ranks, ana, graph, rank_of = small_problem
        sim = DistributedSimulator(SHAHEEN_II, 4)
        a = sim.run(graph, b, rank_of, TwoDBlockCyclic(2, 2)).makespan
        b_ = DistributedSimulator(SHAHEEN_II, 4).run(
            graph, b, rank_of, TwoDBlockCyclic(2, 2)
        ).makespan
        assert a == b_

    def test_nproc_mismatch_raises(self, small_problem):
        nt, b, ranks, ana, graph, rank_of = small_problem
        sim = DistributedSimulator(SHAHEEN_II, 4)
        with pytest.raises(ValueError):
            sim.run(graph, b, rank_of, TwoDBlockCyclic(2, 3))


class TestExecutionRemapping:
    def test_writeback_counted_only_when_remapped(self, small_problem):
        nt, b, ranks, ana, graph, rank_of = small_problem
        dd = TwoDBlockCyclic(2, 2)
        same = DistributedSimulator(SHAHEEN_II, 4).run(graph, b, rank_of, dd)
        assert same.writeback_bytes == 0.0
        xd = BandDistribution(DiamondDistribution(2, 2))
        remap = DistributedSimulator(SHAHEEN_II, 4).run(graph, b, rank_of, dd, xd)
        assert remap.writeback_bytes > 0.0

    def test_band_reduces_critical_path_comm(self):
        """With band execution mapping, POTRF->TRSM(k+1,k) stays local:
        fewer bytes move for a diagonal-heavy problem."""
        nt, b = 16, 1024
        ranks = np.zeros((nt, nt), dtype=np.int64)
        for k in range(nt):
            ranks[k, k] = b
            if k + 1 < nt:
                ranks[k + 1, k] = 30
        ana = analyze_ranks(ranks, nt)
        rank_of = lambda m, k: int(ranks[m, k])
        graph = build_graph(ptg_cholesky_tasks(nt, ana, tile_size=b, rank_of=rank_of))
        dd = TwoDBlockCyclic(2, 2)
        plain = DistributedSimulator(SHAHEEN_II, 4).run(graph, b, rank_of, dd)
        band = DistributedSimulator(SHAHEEN_II, 4).run(
            graph, b, rank_of, dd, BandDistribution(TwoDBlockCyclic(2, 2))
        )
        assert band.makespan <= plain.makespan * 1.001


class TestTrimmingEffect:
    def test_trimmed_graph_fewer_messages(self, sparse_tlr):
        nt = sparse_tlr.n_tiles
        b = sparse_tlr.tile_size
        ranks = sparse_tlr.rank_matrix()
        rank_of = lambda m, k: int(ranks[m, k])
        ana = analyze_ranks(sparse_tlr.rank_array(), nt)
        g_full = build_graph(ptg_cholesky_tasks(nt, None, tile_size=b, rank_of=rank_of))
        g_trim = build_graph(ptg_cholesky_tasks(nt, ana, tile_size=b, rank_of=rank_of))
        dd = square_grid(4)
        dist = TwoDBlockCyclic(*dd)
        full = DistributedSimulator(SHAHEEN_II, 4).run(g_full, b, rank_of, dist)
        trim = DistributedSimulator(SHAHEEN_II, 4).run(g_trim, b, rank_of, dist)
        assert trim.n_tasks < full.n_tasks
        assert trim.n_messages < full.n_messages
        assert trim.makespan <= full.makespan * 1.001
