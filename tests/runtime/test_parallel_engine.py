"""The engine contract (serial / threads) and the threaded executor.

The two engines share one scheduling core, so the contract classes
below are written once against ``self.engine()`` and re-collected for
the serial executor by the subclasses at the bottom of the file (the
un-suffixed classes are the threaded engine).
"""

import json
import multiprocessing
import time

import numpy as np
import pytest

from repro.core.tlr_cholesky import register_cholesky_kernels, tlr_cholesky
from repro.linalg.integrity import matrix_checksums
from repro.linalg.tile import NullTile
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.checkpoint import CheckpointManager, load_checkpoint
from repro.runtime.dag import TaskGraph, build_graph
from repro.runtime.engine import ExecutionEngine
from repro.runtime.faults import TaskFailedError, TileCorruptionError
from repro.runtime.parallel import (
    ParallelExecutionEngine,
    engine_for,
    resolve_engine,
    resolve_workers,
    scaled_stall_timeout,
)
from repro.runtime.scheduler import (
    FIFOScheduler,
    LIFOScheduler,
    PriorityScheduler,
)
from repro.runtime.task import make_task
from repro.runtime.tracing import Trace


def chain(n):
    """T(0) -> T(1) -> ... -> T(n-1), each rewriting tile (i, 0)."""
    return [make_task("T", (i,), rw=[(0, 0)]) for i in range(n)]


def wide(n, klass="T"):
    """n independent tasks, each owning its own tile."""
    return [make_task(klass, (i,), rw=[(i, i)]) for i in range(n)]


def noop(task, data):
    pass


def ran(trace):
    """Task params in retirement order — what a run did."""
    return [e.params for e in trace.events]


class EngineContract:
    """Behaviour every executor owes its caller."""

    kind = "threads"

    def engine(self, scheduler=None, workers=2, **common):
        if self.kind == "serial":
            return ExecutionEngine(scheduler, **common)
        return ParallelExecutionEngine(scheduler, workers=workers, **common)


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_nonpositive_means_cpu_count(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_engine_for_picks_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert type(engine_for(1)) is ExecutionEngine
        assert type(engine_for(None)) is ExecutionEngine

    def test_engine_for_picks_parallel(self):
        e = engine_for(4)
        assert isinstance(e, ParallelExecutionEngine)
        assert e.workers == 4

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutionEngine(workers=0)
        with pytest.raises(ValueError):
            ParallelExecutionEngine(workers=2, stall_timeout=-1.0)


class TestStallTimeout:
    """The watchdog's timeout never drops below 25x the longest kernel,
    priced at one Shaheen II core's TLR rate (pinned values)."""

    @pytest.fixture
    def graph(self):
        from repro.linalg.flops import potrf_flops

        return build_graph([
            make_task("POTRF", (0,), rw=[(0, 0)], flops=potrf_flops(8192)),
            make_task("TRSM", (1, 0), reads=[(0, 0)], rw=[(1, 0)], flops=1e9),
        ])

    def test_scales_to_longest_kernel(self, graph):
        assert scaled_stall_timeout(1.0, graph) == 526.6825533333334
        assert scaled_stall_timeout(1e6, graph) == 1e6  # never tightens

    def test_disabled_and_empty(self, graph):
        assert scaled_stall_timeout(None, graph) is None
        assert scaled_stall_timeout(2.5, build_graph([])) == 2.5


class TestResolveEngine:
    def test_names(self):
        assert resolve_engine(None) == "threads"
        assert resolve_engine("THREADS") == "threads"
        assert resolve_engine("serial") == "serial"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_engine("gpu")
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_engine("process")  # the mp engine's alias went with it

    def test_mp_is_the_frozen_spelling_of_threads(self):
        """The unedited benchmark calls ``engine="mp"``: it resolves to
        the threaded executor, with exactly one DeprecationWarning."""
        with pytest.warns(DeprecationWarning, match="PR 23") as caught:
            assert resolve_engine("mp") == "threads"
        assert len(caught) == 1
        with pytest.warns(DeprecationWarning):
            assert type(engine_for(4, engine="mp")) is ParallelExecutionEngine

    @pytest.mark.timeout(120)
    def test_mp_factor_is_bitwise_serial_forks_nothing(self, spd_matrix):
        serial = tlr_cholesky(
            TLRMatrix.from_dense(spd_matrix, 32, accuracy=1e-10), engine="serial"
        )
        with pytest.warns(DeprecationWarning):
            aliased = tlr_cholesky(
                TLRMatrix.from_dense(spd_matrix, 32, accuracy=1e-10),
                engine="mp",
                workers=2,
            )
        assert matrix_checksums(aliased.factor) == matrix_checksums(serial.factor)
        assert multiprocessing.active_children() == []

    def test_single_worker_stays_serial(self):
        assert type(engine_for(1, engine="threads")) is ExecutionEngine

    def test_serial_override(self):
        assert type(engine_for(8, engine="serial")) is ExecutionEngine


class TestParallelExecution(EngineContract):
    @pytest.mark.timeout(60)
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_all_tasks_execute_once(self, workers):
        engine = self.engine(workers=workers)
        engine.register("T", noop)
        trace = engine.run(build_graph(wide(20)), None)
        assert sorted(ran(trace)) == [(i,) for i in range(20)]

    @pytest.mark.timeout(60)
    def test_dependency_order_respected(self):
        engine = self.engine(workers=4)
        engine.register("T", noop)
        assert ran(engine.run(build_graph(chain(12)), None)) == [
            (i,) for i in range(12)
        ]

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize(
        "sched", [FIFOScheduler, LIFOScheduler, PriorityScheduler]
    )
    def test_all_schedulers_complete(self, sched):
        tasks = chain(5) + [
            make_task("T", (100 + i,), rw=[(i + 1, i + 1)]) for i in range(5)
        ]
        engine = self.engine(sched(), workers=3)
        engine.register("T", noop)
        assert len(engine.run(build_graph(tasks), None).events) == len(tasks)

    @pytest.mark.timeout(60)
    def test_workers_capped_by_task_count(self):
        engine = self.engine(workers=16)
        engine.register("T", noop)
        trace = engine.run(build_graph(wide(2)), None)
        assert set(e.worker for e in trace.events) <= {0, 1}

    @pytest.mark.timeout(60)
    def test_supplied_trace_is_extended(self):
        engine = self.engine()
        engine.register("T", noop)
        trace = Trace()
        out = engine.run(build_graph(wide(3)), None, trace=trace)
        assert out is trace and len(trace.events) == 3

    def test_empty_graph(self):
        assert len(self.engine().run(build_graph([]), None).events) == 0

    def test_unregistered_class_raises_before_spawn(self):
        """Up front and identically worded everywhere: no kernel runs,
        not even those of the classes that *are* registered."""
        engine = self.engine()
        engine.register("T", noop)
        trace = Trace()
        with pytest.raises(KeyError, match=r"no kernel registered.*\['U'\]"):
            engine.run(build_graph(wide(2) + wide(2, klass="U")), None, trace)
        assert len(trace.events) == 0

    @pytest.mark.timeout(120)
    def test_fully_resumed_frontier_still_runs_final_sweep(self, spd_matrix, tmp_path):
        """A checkpoint covering every task leaves nothing to execute,
        but the end-of-run integrity sweep is still owed."""
        done = tlr_cholesky(
            TLRMatrix.from_dense(spd_matrix, 32, accuracy=1e-10),
            workers=1,  # serial: the last retirement's flush is never skipped
            checkpoint=CheckpointManager(tmp_path, every_tasks=1),
        )
        a = TLRMatrix.from_dense(spd_matrix, 32, accuracy=1e-10)
        manager = CheckpointManager(tmp_path)
        manager.bind(done.graph, a, resume=load_checkpoint(tmp_path))
        clean = a.tile(1, 0)
        a.set_tile(1, 0, NullTile(clean.shape))  # rots after the resume
        engine = self.engine(verify_tiles=True)
        register_cholesky_kernels(engine)
        trace = engine.run(done.graph, a, checkpoint=manager)
        assert len(trace.events) == 0 and engine.last_run_resumed == len(done.graph)
        assert manager.tiles_healed == 1 and a.tile(1, 0) is clean


class TestFailFast(EngineContract):
    @pytest.mark.timeout(60)
    def test_kernel_exception_propagates(self):
        engine = self.engine()

        def poisoned(task, data):
            raise RuntimeError(f"kernel died on {task}")

        engine.register("T", poisoned)
        with pytest.raises(RuntimeError, match="kernel died"):
            engine.run(build_graph(wide(4)), None)

    @pytest.mark.timeout(60)
    def test_failure_cancels_outstanding_work(self):
        """Tasks behind the failure never start: the poisoned head of a
        chain must keep every successor from executing."""
        engine = self.engine(workers=4)

        def kernel(task, data):
            if task.params == (0,):
                raise ValueError("poisoned head")

        engine.register("T", kernel)
        trace = Trace()
        with pytest.raises(ValueError, match="poisoned head"):
            engine.run(build_graph(chain(10)), None, trace)
        assert ran(trace) == []

    @pytest.mark.timeout(60)
    def test_first_failure_wins_with_wide_graph(self):
        engine = self.engine(workers=4)

        def kernel(task, data):
            if task.params[0] == 3:
                raise RuntimeError("boom")

        engine.register("T", kernel)
        trace = Trace()
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(build_graph(wide(30)), None, trace)
        # fail-fast: the run must abandon the tail of the ready pool
        assert len(trace.events) < 30

    @pytest.mark.timeout(60)
    def test_engine_reusable_after_failure(self):
        engine = self.engine()
        poison = {"on": True}

        def kernel(task, data):
            if poison["on"]:
                raise RuntimeError("first run dies")

        engine.register("T", kernel)
        with pytest.raises(RuntimeError):
            engine.run(build_graph(wide(3)), None)  # dies with tasks still ready
        poison["on"] = False
        # the ready pool was drained: no stale index of the failed run
        # is popped into the fresh one
        assert ran(engine.run(build_graph(chain(3)), None)) == [(0,), (1,), (2,)]

    @pytest.mark.timeout(60)
    def test_blowup_on_rotten_operand_is_typed(self):
        """A non-transient kernel error over operands that no longer
        hash clean is corruption, not a bug: typed, so retry/heal
        applies.  With clean operands the original propagates."""

        def kernel(task, a):
            if rot:
                a.tile(0, 0).data[0, 0] += 1.0  # rots the operand it consumed
            raise np.linalg.LinAlgError("not positive definite")

        engine = self.engine(verify_tiles=True)
        engine.register("T", kernel)
        for rot, raised in ((True, TaskFailedError), (False, np.linalg.LinAlgError)):
            a = TLRMatrix.from_dense(np.eye(4), 2, accuracy=1e-10)
            with pytest.raises(raised) as err:
                engine.run(build_graph(chain(1)), a)
            if rot:
                assert isinstance(err.value.cause, TileCorruptionError)
                assert "LinAlgError" in str(err.value.cause)


class TestStarvationDetection(EngineContract):
    @pytest.mark.timeout(60)
    def test_cyclic_graph_reports_stuck_tasks(self):
        """A hand-built cycle must abort with a diagnostic, not hang."""
        tasks = [make_task("T", (i,), rw=[(i, i)]) for i in range(3)]
        # 0 -> 1 -> 2 -> 1: tasks 1 and 2 never reach indegree 0
        graph = TaskGraph(tasks, {0: {1}, 1: {2}, 2: {1}})
        engine = self.engine()
        engine.register("T", noop)
        with pytest.raises(ValueError, match="stalled") as err:
            engine.run(graph, None)
        assert "T(1" in str(err.value) or "T(2" in str(err.value)

    @pytest.mark.timeout(60)
    def test_stuck_task_list_is_truncated(self):
        n = 24
        tasks = [make_task("T", (i,), rw=[(i, i)]) for i in range(n)]
        edges = {i: {(i + 1) % (n - 1) + 1} for i in range(1, n)}
        # tie tasks 1..n-1 into cycles; task 0 is free
        engine = self.engine()
        engine.register("T", noop)
        with pytest.raises(ValueError, match="more"):
            engine.run(TaskGraph(tasks, edges), None)


class TestDebugOwnership:
    @pytest.mark.timeout(60)
    def test_clean_graph_passes(self):
        graph = build_graph(chain(4) + wide(4, klass="U"))
        engine = ParallelExecutionEngine(workers=3, debug=True)
        engine.register("T", noop)
        engine.register("U", noop)
        assert len(engine.run(graph, None).events) == 8

    @pytest.mark.timeout(60)
    def test_under_constrained_graph_is_caught(self):
        """Two tasks writing one tile with no edge between them: the
        ownership check must flag the race that build_graph would have
        prevented."""
        tasks = [make_task("T", (i,), rw=[(0, 0)]) for i in range(2)]
        graph = TaskGraph(tasks, {})  # no edges: a lying DAG
        engine = ParallelExecutionEngine(workers=2, debug=True)

        # sleep releases the GIL, so the second worker dispatches (and
        # trips the ownership check) while the first still holds the tile
        engine.register("T", lambda t, d: time.sleep(0.2))
        with pytest.raises(ValueError, match="ownership violation"):
            engine.run(graph, None)

    @pytest.mark.timeout(60)
    def test_build_graph_output_satisfies_invariant(self):
        """The real Cholesky DAG must sail through the ownership check
        at any worker count — this is the safety property the parallel
        engine relies on."""
        from repro.core.trimming import cholesky_tasks

        graph = build_graph(cholesky_tasks(6))
        engine = ParallelExecutionEngine(workers=4, debug=True)
        for klass in ("POTRF", "TRSM", "SYRK", "GEMM"):
            engine.register(
                klass, lambda t, d: time.sleep(0.001)
            )
        trace = engine.run(graph, None)
        assert len(trace.events) == len(graph)


class TestWorkerLanes:
    @pytest.mark.timeout(60)
    def test_parallel_run_fills_multiple_lanes(self):
        """With GIL-releasing kernels and a wide graph, every worker
        lane must appear in the trace and in the Chrome export."""
        workers = 3
        graph = build_graph(wide(12))
        engine = ParallelExecutionEngine(workers=workers)
        engine.register("T", lambda t, d: time.sleep(0.05))
        trace = engine.run(graph, None)
        lanes = trace.worker_lanes()
        assert set(lanes) == set(range(workers))
        assert sum(lanes.values()) == 12

    @pytest.mark.timeout(60)
    def test_chrome_export_one_lane_per_worker(self):
        workers = 3
        graph = build_graph(wide(12))
        engine = ParallelExecutionEngine(workers=workers)
        engine.register("T", lambda t, d: time.sleep(0.05))
        trace = engine.run(graph, None)
        data = json.loads(
            trace.to_chrome_trace(
                process_name="test", label_worker_lanes=True
            )
        )
        events = data["traceEvents"]
        tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert tids == set(range(workers))
        lane_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert lane_names == {w: f"worker-{w}" for w in range(workers)}

    def test_serial_trace_has_single_lane(self):
        graph = build_graph(wide(4))
        engine = ExecutionEngine()
        engine.register("T", lambda t, d: None)
        trace = engine.run(graph, None)
        assert set(trace.worker_lanes()) == {0}


# The same contract on the serial executor: re-collect the classes
# above under a suffixed name with ``kind`` overridden.
for _cls in (TestParallelExecution, TestFailFast, TestStarvationDetection):
    _name = _cls.__name__ + "Serial"
    globals()[_name] = type(_name, (_cls,), {"kind": "serial"})
