"""Property-based tests for the discrete-event simulator.

Invariants checked on randomized trimmed Cholesky graphs:
* every task executes exactly once (no deadlock, no duplication);
* makespan respects the critical-path and total-work lower bounds;
* messages are conserved: one per (producer, remote-consumer-process)
  pair plus initial fetches — never more;
* determinism.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import analyze_ranks
from repro.core.trimming import ptg_cholesky_tasks
from repro.distribution import TwoDBlockCyclic
from repro.machine import SHAHEEN_II, DistributedSimulator
from repro.machine.simulator import operand_ranks
from repro.machine.costmodel import CostModel
from repro.runtime.dag import build_graph
from tests.dag_refs import longest_path


@st.composite
def problems(draw):
    nt = draw(st.integers(3, 12))
    density = draw(st.floats(0.1, 1.0))
    seed = draw(st.integers(0, 2**16))
    b = draw(st.sampled_from([256, 1024]))
    rng = np.random.default_rng(seed)
    ranks = np.zeros((nt, nt), dtype=np.int64)
    for k in range(nt):
        ranks[k, k] = b
        for m in range(k + 1, nt):
            if rng.random() < density:
                ranks[m, k] = int(rng.integers(1, max(2, b // 8)))
    ana = analyze_ranks(ranks, nt)
    # assign model ranks to fill-in tiles
    ranks[ana.final_nonzero & ~ana.initial_nonzero] = max(2, b // 16)
    rank_of = lambda m, k: int(ranks[m, k])
    graph = build_graph(ptg_cholesky_tasks(nt, ana, tile_size=b, rank_of=rank_of))
    p = draw(st.sampled_from([1, 2, 4]))
    q = draw(st.sampled_from([1, 2]))
    return graph, b, rank_of, p, q


class TestSimulatorProperties:
    @given(problem=problems())
    @settings(max_examples=30, deadline=None)
    def test_all_tasks_and_bounds(self, problem):
        graph, b, rank_of, p, q = problem
        nproc = p * q
        sim = DistributedSimulator(SHAHEEN_II, nproc)
        res = sim.run(graph, b, rank_of, TwoDBlockCyclic(p, q))
        assert res.n_tasks == len(graph)

        # work bound
        total = res.busy_per_process.sum()
        assert res.makespan >= total / (nproc * SHAHEEN_II.cores_per_node) - 1e-12

        # critical-path bound under the same duration model
        cm = CostModel(SHAHEEN_II)

        def w(t):
            return cm.node_time(t.klass, b, *operand_ranks(t, rank_of))[0]

        assert res.makespan >= longest_path(graph, w) - 1e-12

    @given(problem=problems())
    @settings(max_examples=20, deadline=None)
    def test_message_conservation(self, problem):
        graph, b, rank_of, p, q = problem
        nproc = p * q
        sim = DistributedSimulator(SHAHEEN_II, nproc)
        dist = TwoDBlockCyclic(p, q)
        res = sim.run(graph, b, rank_of, dist)
        if nproc == 1:
            assert res.n_messages == 0
            return
        # upper bound: every edge could cross processes, plus one
        # initial fetch per (tile, consumer process) pair
        max_edges = graph.n_edges()
        max_fetch = sum(len(t.reads) for t in graph.tasks)
        assert res.n_messages <= max_edges + max_fetch

    @given(problem=problems())
    @settings(max_examples=10, deadline=None)
    def test_deterministic(self, problem):
        graph, b, rank_of, p, q = problem
        r1 = DistributedSimulator(SHAHEEN_II, p * q).run(
            graph, b, rank_of, TwoDBlockCyclic(p, q)
        )
        r2 = DistributedSimulator(SHAHEEN_II, p * q).run(
            graph, b, rank_of, TwoDBlockCyclic(p, q)
        )
        assert r1.makespan == r2.makespan
        assert r1.n_messages == r2.n_messages
