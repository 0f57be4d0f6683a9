"""Tests for deterministic fault injection, retry/rollback, and the
configurable stall watchdog."""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.runtime.dag import build_graph
from repro.runtime.engine import ExecutionEngine
from repro.runtime.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    TaskFailedError,
    TransientKernelError,
    restore_writes,
    snapshot_writes,
)
from repro.runtime.parallel import (
    ParallelExecutionEngine,
    engine_for,
    stall_timeout_from_env,
)
from repro.runtime.task import make_task


def chain(n):
    return [make_task("T", (i,), rw=[(0, 0)]) for i in range(n)]


def wide(n, klass="T"):
    return [make_task(klass, (i,), rw=[(i, i)]) for i in range(n)]


class DictStore:
    """Minimal tile store satisfying the rollback protocol."""

    def __init__(self, tiles=None):
        self.tiles = dict(tiles or {})

    def tile(self, m, k):
        return self.tiles.get((m, k))

    def set_tile(self, m, k, t):
        self.tiles[(m, k)] = t


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(klass="*", kind="explode", rate=0.5)

    def test_process_pool_kinds_went_with_the_engine(self):
        with pytest.raises(ValueError) as err:
            FaultRule(klass="*", kind="worker_kill", rate=0.5)
        assert FAULT_KINDS == ("transient", "delay", "corrupt", "crash", "bitflip")
        assert str(FAULT_KINDS) in str(err.value)

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultRule(klass="*", kind="transient", rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultRule(klass="*", kind="transient", rate=-0.1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_seconds"):
            FaultRule(klass="*", kind="delay", rate=0.5, delay_seconds=-1.0)

    def test_wildcard_matches_every_class(self):
        rule = FaultRule(klass="*", kind="transient", rate=1.0)
        assert rule.matches(make_task("POTRF", (0,)))
        assert rule.matches(make_task("GEMM", (1, 2, 3)))

    def test_class_match_is_exact(self):
        rule = FaultRule(klass="GEMM", kind="transient", rate=1.0)
        assert rule.matches(make_task("GEMM", (1, 2, 3)))
        assert not rule.matches(make_task("TRSM", (0, 1)))


class TestFaultPlan:
    def test_parse_class_rate(self):
        plan = FaultPlan.parse("all:0.1", seed=7)
        assert plan.seed == 7
        assert plan.rules == (
            FaultRule(klass="*", kind="transient", rate=0.1),
        )

    def test_parse_class_kind_rate(self):
        plan = FaultPlan.parse("GEMM:0.2,TRSM:delay:0.05")
        assert plan.rules[0] == FaultRule("GEMM", "transient", 0.2)
        assert plan.rules[1] == FaultRule("TRSM", "delay", 0.05)

    def test_parse_rejects_malformed_entry(self):
        with pytest.raises(ValueError, match="bad fault spec"):
            FaultPlan.parse("GEMM:transient:0.1:extra")

    def test_parse_rejects_empty_spec(self):
        with pytest.raises(ValueError, match="no rules"):
            FaultPlan.parse(" , ")

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("GEMM:meltdown:0.1")

    def test_decide_is_deterministic(self):
        plan = FaultPlan.parse("all:0.5", seed=3)
        tasks = [make_task("T", (i,)) for i in range(50)]
        first = [plan.decide(t, 0) for t in tasks]
        second = [plan.decide(t, 0) for t in tasks]
        assert first == second

    def test_decide_varies_with_seed_and_attempt(self):
        tasks = [make_task("T", (i,)) for i in range(200)]
        a = FaultPlan.parse("all:0.5", seed=1)
        b = FaultPlan.parse("all:0.5", seed=2)
        assert [a.decide(t, 0) for t in tasks] != [
            b.decide(t, 0) for t in tasks
        ]
        # a retried attempt re-rolls the dice
        assert [a.decide(t, 0) for t in tasks] != [
            a.decide(t, 1) for t in tasks
        ]

    def test_rate_zero_never_fires_rate_one_always_fires(self):
        tasks = [make_task("T", (i,)) for i in range(30)]
        never = FaultPlan.parse("all:0.0")
        always = FaultPlan.parse("all:1.0")
        assert all(not never.decide(t, 0) for t in tasks)
        assert all(always.decide(t, 0) for t in tasks)

    def test_rate_is_roughly_honored(self):
        plan = FaultPlan.parse("all:0.2", seed=11)
        tasks = [make_task("T", (i,)) for i in range(2000)]
        hits = sum(bool(plan.decide(t, 0)) for t in tasks)
        assert 0.1 < hits / len(tasks) < 0.3


class TestFaultInjector:
    def test_transient_raises_before_kernel(self):
        injector = FaultInjector(FaultPlan.parse("all:1.0"))
        ran = []
        with pytest.raises(TransientKernelError, match="injected transient"):
            injector.invoke(
                lambda t, d: ran.append(t), make_task("T", (0,)), None
            )
        assert ran == []
        assert injector.counters["transient"] == 1
        assert injector.counters["transient:T"] == 1
        assert injector.counters["total"] == 1

    def test_delay_runs_kernel_after_sleep(self):
        plan = FaultPlan(
            rules=(FaultRule("*", "delay", 1.0, delay_seconds=0.01),)
        )
        injector = FaultInjector(plan)
        ran = []
        t0 = time.perf_counter()
        injector.invoke(lambda t, d: ran.append(t), make_task("T", (0,)), None)
        assert time.perf_counter() - t0 >= 0.01
        assert len(ran) == 1
        assert injector.counters["delay"] == 1

    def test_corrupt_nan_fills_write_and_raises(self):
        from repro.linalg.tile import DenseTile

        injector = FaultInjector(FaultPlan.parse("all:corrupt:1.0"))
        store = DictStore({(0, 0): DenseTile(np.ones((4, 4)))})
        task = make_task("T", (0,), rw=[(0, 0)])
        with pytest.raises(TransientKernelError, match="corrupted write"):
            injector.invoke(lambda t, d: None, task, store)
        assert np.isnan(store.tile(0, 0).to_dense()).all()
        assert injector.counters["corrupt"] == 1

    def test_corrupt_without_tile_store_is_silent(self):
        injector = FaultInjector(FaultPlan.parse("all:corrupt:1.0"))
        task = make_task("T", (0,), rw=[(0, 0)])
        injector.invoke(lambda t, d: None, task, None)  # no raise
        assert injector.counters["total"] == 0


class TestRetryPolicy:
    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)

    def test_delay_is_capped_exponential(self):
        p = RetryPolicy(
            backoff_seconds=0.01,
            backoff_multiplier=2.0,
            max_backoff_seconds=0.03,
        )
        assert p.delay(0) == pytest.approx(0.01)
        assert p.delay(1) == pytest.approx(0.02)
        assert p.delay(2) == pytest.approx(0.03)  # capped
        assert p.delay(10) == pytest.approx(0.03)

    def test_zero_backoff_means_no_sleep(self):
        assert RetryPolicy(backoff_seconds=0.0).delay(5) == 0.0


class TestSnapshotRestore:
    def test_roundtrip(self):
        store = DictStore({(0, 0): "a", (1, 1): "b"})
        task = make_task("T", (0,), rw=[(0, 0)])
        snap = snapshot_writes(task, store)
        store.set_tile(0, 0, "corrupted")
        restore_writes(task, store, snap)
        assert store.tile(0, 0) == "a"
        assert store.tile(1, 1) == "b"

    def test_non_tile_store_returns_none(self):
        task = make_task("T", (0,), rw=[(0, 0)])
        assert snapshot_writes(task, object()) is None
        restore_writes(task, object(), None)  # no-op, no raise


@pytest.mark.parametrize(
    "make_engine",
    [
        lambda **kw: ExecutionEngine(**kw),
        lambda **kw: ParallelExecutionEngine(workers=4, **kw),
    ],
    ids=["serial", "parallel"],
)
class TestEngineRetry:
    @pytest.mark.timeout(60)
    def test_transient_faults_are_retried(self, make_engine):
        injector = FaultInjector(FaultPlan.parse("all:0.4", seed=5))
        engine = make_engine(
            fault_injector=injector, retry=RetryPolicy(max_retries=12)
        )
        log, lock = [], threading.Lock()

        def kernel(task, data):
            with lock:
                log.append(task.params)

        engine.register("T", kernel)
        engine.run(build_graph(wide(20)), DictStore())
        assert sorted(log) == [(i,) for i in range(20)]
        assert injector.counters["total"] > 0
        assert engine.last_run_retries == injector.counters["transient"]

    @pytest.mark.timeout(60)
    def test_exhausted_retries_raise_task_failed(self, make_engine):
        injector = FaultInjector(FaultPlan.parse("T:1.0"))
        engine = make_engine(
            fault_injector=injector, retry=RetryPolicy(max_retries=2)
        )
        engine.register("T", lambda t, d: None)
        with pytest.raises(TaskFailedError) as err:
            engine.run(build_graph(wide(1)), DictStore())
        e = err.value
        assert e.klass == "T" and e.params == (0,)
        assert e.attempts == 3  # 1 first try + 2 retries
        assert isinstance(e.cause, TransientKernelError)
        assert "T(0)" in str(e) and "3 attempt" in str(e)
        # exceptions cross process pipes: the cause must survive pickling
        piped = pickle.loads(pickle.dumps(e))
        assert (piped.klass, piped.params, piped.attempts) == ("T", (0,), 3)
        assert isinstance(piped.cause, TransientKernelError) and str(piped) == str(e)

    @pytest.mark.timeout(60)
    def test_no_retry_policy_fails_fast(self, make_engine):
        injector = FaultInjector(FaultPlan.parse("all:1.0"))
        engine = make_engine(fault_injector=injector)
        engine.register("T", lambda t, d: None)
        with pytest.raises(TaskFailedError) as err:
            engine.run(build_graph(wide(1)), DictStore())
        assert err.value.attempts == 1

    @pytest.mark.timeout(60)
    def test_non_transient_exception_propagates_unwrapped(self, make_engine):
        engine = make_engine(retry=RetryPolicy(max_retries=3))

        def poisoned(task, data):
            raise RuntimeError("kernel died")

        engine.register("T", poisoned)
        with pytest.raises(RuntimeError, match="kernel died"):
            engine.run(build_graph(wide(2)), DictStore())

    @pytest.mark.timeout(60)
    def test_retry_rolls_back_written_tiles(self, make_engine):
        """A kernel that publishes garbage before failing must see its
        writes rolled back — the retried attempt starts clean."""
        engine = make_engine(retry=RetryPolicy(max_retries=1))
        store = DictStore({(0, 0): "clean"})
        seen = []

        def kernel(task, data):
            seen.append(data.tile(0, 0))
            if len(seen) == 1:
                data.set_tile(0, 0, "garbage")
                raise TransientKernelError("flaked after writing")
            data.set_tile(0, 0, "done")

        engine.register("T", kernel)
        engine.run(build_graph([make_task("T", (0,), rw=[(0, 0)])]), store)
        assert seen == ["clean", "clean"]
        assert store.tile(0, 0) == "done"
        assert engine.last_run_retries == 1


class TestStallWatchdog:
    @pytest.mark.timeout(60)
    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError, match="stall_timeout"):
            ParallelExecutionEngine(workers=2, stall_timeout=0.0)

    @pytest.mark.timeout(60)
    def test_hung_kernel_trips_watchdog_with_lane_report(self):
        engine = ParallelExecutionEngine(workers=2, stall_timeout=0.2)
        release = threading.Event()

        def hung(task, data):
            release.wait(10.0)

        engine.register("T", hung)
        try:
            with pytest.raises(ValueError, match="stalled") as err:
                engine.run(build_graph(wide(4)), None)
        finally:
            release.set()
        msg = str(err.value)
        assert "stall_timeout=0.2" in msg
        assert "lane 0" in msg and "lane 1" in msg
        assert "running T(" in msg

    @pytest.mark.timeout(60)
    def test_fast_run_does_not_trip_watchdog(self):
        engine = ParallelExecutionEngine(workers=2, stall_timeout=5.0)
        engine.register("T", lambda t, d: None)
        trace = engine.run(build_graph(chain(10)), None)
        assert len(trace.events) == 10

    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_STALL_TIMEOUT", raising=False)
        assert stall_timeout_from_env() is None
        monkeypatch.setenv("REPRO_STALL_TIMEOUT", "")
        assert stall_timeout_from_env() is None
        monkeypatch.setenv("REPRO_STALL_TIMEOUT", "0")
        assert stall_timeout_from_env() is None
        monkeypatch.setenv("REPRO_STALL_TIMEOUT", "-3")
        assert stall_timeout_from_env() is None
        monkeypatch.setenv("REPRO_STALL_TIMEOUT", "2.5")
        assert stall_timeout_from_env() == 2.5

    def test_engine_for_picks_up_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STALL_TIMEOUT", "7.5")
        engine = engine_for(4)
        assert engine.stall_timeout == 7.5

    def test_engine_for_passes_fault_config(self):
        injector = FaultInjector(FaultPlan.parse("all:0.1"))
        retry = RetryPolicy(max_retries=2)
        for workers in (1, 4):
            engine = engine_for(workers, fault_injector=injector, retry=retry)
            assert engine.fault_injector is injector
            assert engine.retry is retry
