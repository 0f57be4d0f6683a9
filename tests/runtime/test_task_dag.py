"""Tests for tasks and DAG construction from data accesses."""

import pickle

import pytest

from repro.runtime.dag import build_graph
from repro.runtime.task import AccessMode, Task, make_task


class TestTask:
    def test_reads_writes(self):
        t = make_task("GEMM", (2, 1, 0), reads=[(2, 0), (1, 0)], rw=[(2, 1)])
        assert set(t.reads) == {(2, 0), (1, 0), (2, 1)}
        assert t.writes == ((2, 1),)
        assert t.uid == ("GEMM", (2, 1, 0))
        assert str(t) == "GEMM(2, 1, 0)"

    def test_pickles_as_its_declared_fields(self):
        """The derived tuples stay out of the pickle: its bytes are those
        of a task that derives nothing, and such a pickle loads with
        them rebuilt."""
        t = make_task("GEMM", (2, 1), reads=[(2, 0), (1, 0)], rw=[(2, 1)], priority=3.0, flops=5.0)
        state = t.__reduce_ex__(2)[2]
        assert list(state) == ["klass", "params", "accesses", "priority", "flops"]
        bare = Task.__new__(Task)
        bare.__setstate__(state)
        for u in (pickle.loads(pickle.dumps(t)), bare):
            assert u == t and hash(u) == hash(t)
            assert (u.uid, u.reads, u.writes, u.inputs) == (t.uid, t.reads, t.writes, t.inputs)

    def test_access_modes(self):
        assert not AccessMode.READ.writes
        assert AccessMode.WRITE.writes and AccessMode.RW.writes


class TestBuildGraph:
    def test_raw_chain(self):
        """writer -> reader -> writer on one datum serializes."""
        tasks = [
            make_task("A", (0,), rw=[(0, 0)]),
            make_task("B", (0,), reads=[(0, 0)], rw=[(1, 0)]),
            make_task("C", (0,), rw=[(0, 0)]),
        ]
        g = build_graph(tasks)
        assert g.successors.get(0) == (1, 2) or set(g.successors.get(0, ())) >= {1}
        # C writes (0,0) after B read it: write-after-read edge B -> C
        assert 2 in g.successors.get(1, ())

    def test_independent_tasks_have_no_edges(self):
        tasks = [
            make_task("A", (0,), rw=[(0, 0)]),
            make_task("A", (1,), rw=[(1, 1)]),
        ]
        g = build_graph(tasks)
        assert g.n_edges() == 0
        assert g.in_degree(0) == g.in_degree(1) == 0

    def test_duplicate_uid_rejected(self):
        tasks = [make_task("A", (0,)), make_task("A", (0,))]
        with pytest.raises(ValueError):
            build_graph(tasks)

    def test_topological_order_valid(self, sparse_tlr):
        """The enumeration order is a topological order: every edge
        runs from an earlier task to a later one."""
        from repro.core import analyze_ranks, cholesky_tasks

        ana = analyze_ranks(sparse_tlr.rank_array(), sparse_tlr.n_tiles)
        g = build_graph(cholesky_tasks(sparse_tlr.n_tiles, ana))
        for i, succs in g.successors.items():
            for j in succs:
                assert i < j

    def test_task_counts(self):
        tasks = [
            make_task("A", (0,), rw=[(0, 0)]),
            make_task("A", (1,), rw=[(1, 1)]),
            make_task("B", (0,), reads=[(0, 0)], rw=[(2, 2)]),
        ]
        assert build_graph(tasks).task_counts() == {"A": 2, "B": 1}

    def test_cholesky_dependency_pattern(self):
        """Spot-check left-looking tile-Cholesky dependencies on 3x3."""
        from repro.core import cholesky_tasks

        g = build_graph(cholesky_tasks(3))
        at = {t.uid: i for i, t in enumerate(g.tasks)}
        potrf0 = at["POTRF", (0,)]
        trsm10 = at["TRSM", (1, 0)]
        trsm20 = at["TRSM", (2, 0)]
        syrk1 = at["SYRK", (1,)]
        potrf1 = at["POTRF", (1,)]
        gemm21 = at["GEMM", (2, 1)]
        trsm21 = at["TRSM", (2, 1)]
        syrk2 = at["SYRK", (2,)]
        assert trsm10 in g.successors[potrf0]
        assert syrk1 in g.successors[trsm10]
        assert potrf1 in g.successors[syrk1]
        assert gemm21 in g.successors[trsm10]
        assert gemm21 in g.successors[trsm20]
        assert trsm21 in g.successors[gemm21]
        # SYRK(2) accumulates both panels of row 2 in one task
        assert g.tasks[syrk2].inputs == ((2, 0), (2, 1))
        assert {trsm20, trsm21} <= set(g.predecessors[syrk2])
        # column 0 has nothing to accumulate: no empty-list tasks
        assert ("SYRK", (0,)) not in at
        assert ("GEMM", (1, 0)) not in at
