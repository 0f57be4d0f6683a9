"""Tests for schedulers, the execution engine and tracing."""

import numpy as np
import pytest

from repro.runtime.dag import build_graph
from repro.runtime.engine import ExecutionEngine
from repro.runtime.scheduler import (
    FIFOScheduler,
    LIFOScheduler,
    PriorityScheduler,
    cholesky_priority,
)
from repro.runtime.task import Task, make_task
from repro.runtime.tracing import Trace, TraceEvent


class TestSchedulers:
    def _task(self, i, prio=0.0):
        t = make_task("T", (i,))
        return Task(t.klass, t.params, t.accesses, priority=prio)

    def test_fifo_order(self):
        s = FIFOScheduler()
        for i in range(3):
            s.push(i, self._task(i))
        assert [s.pop() for _ in range(3)] == [0, 1, 2]

    def test_lifo_order(self):
        s = LIFOScheduler()
        for i in range(3):
            s.push(i, self._task(i))
        assert [s.pop() for _ in range(3)] == [2, 1, 0]

    def test_priority_order_with_fifo_ties(self):
        s = PriorityScheduler()
        s.push(0, self._task(0, prio=1.0))
        s.push(1, self._task(1, prio=5.0))
        s.push(2, self._task(2, prio=5.0))
        assert s.pop() == 1  # highest priority, inserted first
        assert s.pop() == 2
        assert s.pop() == 0

    def test_len_and_bool(self):
        s = FIFOScheduler()
        assert not s
        s.push(0, self._task(0))
        assert len(s) == 1 and s

    def test_cholesky_priority_ordering(self):
        """Earlier columns outrank later; within a column SYRK > POTRF
        > critical GEMM/TRSM > the other rows."""
        nt = 10
        syrk1 = make_task("SYRK", (1,))
        potrf1 = make_task("POTRF", (1,))
        potrf2 = make_task("POTRF", (2,))
        trsm_cp = make_task("TRSM", (2, 1))
        gemm_cp = make_task("GEMM", (2, 1))
        trsm_off = make_task("TRSM", (5, 1))
        gemm_off = make_task("GEMM", (5, 1))
        p = lambda t: cholesky_priority(t.klass, t.params, nt)
        assert p(syrk1) > p(potrf1) > p(trsm_cp) > p(gemm_cp)
        assert p(gemm_cp) > p(trsm_off) > p(gemm_off)
        assert p(potrf1) > p(potrf2)
        assert p(gemm_off) > p(make_task("SYRK", (2,)))  # column 1 before column 2


class TestEngine:
    def test_duplicate_registration_raises(self):
        eng = ExecutionEngine()
        eng.register("A", lambda t, d: None)
        with pytest.raises(ValueError):
            eng.register("A", lambda t, d: None)

    def test_data_store_threading(self):
        """Kernels mutate the shared store in dependency order."""
        store = {"value": 1}
        tasks = [
            make_task("DOUBLE", (0,), rw=[(0, 0)]),
            make_task("INC", (0,), rw=[(0, 0)]),
        ]
        g = build_graph(tasks)
        eng = ExecutionEngine(FIFOScheduler())
        eng.register("DOUBLE", lambda t, d: d.__setitem__("value", d["value"] * 2))
        eng.register("INC", lambda t, d: d.__setitem__("value", d["value"] + 1))
        eng.run(g, store)
        assert store["value"] == 3  # (1*2)+1, enforced by the RW chain


class TestTrace:
    def test_aggregation(self):
        tr = Trace()
        tr.record(TraceEvent("A", (0,), 0.0, 1.0, flops=10))
        tr.record(TraceEvent("A", (1,), 1.0, 3.0, flops=20))
        tr.record(TraceEvent("B", (0,), 0.5, 2.5, flops=5))
        assert tr.time_by_class() == {"A": 3.0, "B": 2.0}
        assert tr.total_flops() == 35
        assert tr.makespan == 3.0
        assert tr.busy_time() == 5.0

    def test_empty(self):
        assert Trace().makespan == 0.0
