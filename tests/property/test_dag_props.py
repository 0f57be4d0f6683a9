"""Property-based tests for DAG construction and execution."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import analyze_ranks
from repro.core.trimming import cholesky_tasks
from repro.runtime.dag import build_graph
from repro.runtime.engine import ExecutionEngine
from repro.runtime.scheduler import FIFOScheduler, LIFOScheduler, PriorityScheduler


@st.composite
def trimmed_graphs(draw):
    nt = draw(st.integers(2, 10))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    r = np.zeros((nt, nt), dtype=np.int64)
    for k in range(nt):
        r[k, k] = 5
        for m in range(k + 1, nt):
            if rng.random() < density:
                r[m, k] = 3
    ana = analyze_ranks(r, nt)
    return nt, build_graph(cholesky_tasks(nt, ana))


def kahn_order(g) -> list[int]:
    """Kahn topological order of ``g`` (shorter than ``g`` on a cycle)."""
    indegree = [g.in_degree(i) for i in range(len(g))]
    ready = [i for i, d in enumerate(indegree) if d == 0]
    order = []
    while ready:
        order.append(i := ready.pop())
        for j in g.successors.get(i, ()):
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)
    return order


def reaches(g, src: int, dst: int) -> bool:
    """Whether a dependency path leads from task ``src`` to ``dst``."""
    seen, stack = {src}, [src]
    while stack:
        for j in g.successors.get(stack.pop(), ()):
            if j == dst:
                return True
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return False


class TestGraphProperties:
    @given(data=trimmed_graphs())
    @settings(max_examples=60, deadline=None)
    def test_acyclic_and_complete(self, data):
        nt, g = data
        order = kahn_order(g)
        assert sorted(order) == list(range(len(g)))  # no task left on a cycle

    @given(data=trimmed_graphs())
    @settings(max_examples=40, deadline=None)
    def test_potrf_chain_is_ordered(self, data):
        """POTRF(k) must always precede POTRF(k+1) transitively
        whenever panel k+1 receives any update from panel k."""
        nt, g = data
        at = {t.uid: i for i, t in enumerate(g.tasks)}
        for k in range(nt - 1):
            a, b = at["POTRF", (k,)], at["POTRF", (k + 1,)]
            # POTRF(k+1) can never reach POTRF(k)
            assert not reaches(g, b, a)

    @given(data=trimmed_graphs(), sched=st.sampled_from(["fifo", "lifo", "prio"]))
    @settings(max_examples=40, deadline=None)
    def test_any_scheduler_executes_in_dependency_order(self, data, sched):
        nt, g = data
        scheduler = {"fifo": FIFOScheduler, "lifo": LIFOScheduler,
                     "prio": PriorityScheduler}[sched]()
        eng = ExecutionEngine(scheduler)
        seen = []
        for klass in ("POTRF", "TRSM", "SYRK", "GEMM"):
            eng.register(klass, lambda t, d: seen.append(t.uid))
        eng.run(g, None)
        assert len(seen) == len(g)
        pos = {uid: i for i, uid in enumerate(seen)}
        for i, succs in g.successors.items():
            for j in succs:
                assert pos[g.tasks[i].uid] < pos[g.tasks[j].uid]
