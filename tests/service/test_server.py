"""End-to-end tests for the solve-serving front end.

Timing-sensitive behaviours (overload, deadlines, coalescing) are made
deterministic by constructing the service with ``start=False`` (the
pending pool fills synchronously and the workers only run once the
stage is set) or by parking every worker on a gate.
"""

import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.core.solver import logdet, solve_cholesky
from repro.service import (
    BacklogFullError,
    DeadlineExpiredError,
    OperatorCache,
    OperatorSpec,
    Request,
    RequestFailedError,
    RequestHandle,
    ServiceClosedError,
    ServiceDrainingError,
    ServiceOverloadedError,
    SolveService,
)

TIMEOUT = 60.0  # generous per-result wait; everything here runs in ms


@pytest.fixture()
def warm_cache(small_spec):
    """A cache already holding the small operator (no build latency in
    the tests that only exercise the serving path)."""
    cache = OperatorCache()
    cache.get_or_build(small_spec)
    return cache


class TestCorrectness:
    def test_single_solve_matches_direct(self, small_spec, warm_cache, rhs):
        entry = warm_cache.get_or_build(small_spec)
        with SolveService(cache=warm_cache, workers=1) as svc:
            x = svc.submit_solve(small_spec, rhs).result(TIMEOUT)
        assert x.ndim == 1
        assert np.allclose(x, solve_cholesky(entry.factor, rhs), rtol=1e-12)

    def test_coalesced_batch_matches_columnwise(self, small_spec, warm_cache):
        """Staged concurrent submits coalesce into one blocked solve
        whose per-request answers match individual solves — and are
        bitwise the columns of that blocked solve done directly (alone,
        a column goes through GEMV + TRSV instead of GEMM + TRSM, so it
        agrees to rounding, not to the bit)."""
        entry = warm_cache.get_or_build(small_spec)
        rng = np.random.default_rng(5)
        rhs_list = [rng.standard_normal(small_spec.n) for _ in range(6)]
        svc = SolveService(cache=warm_cache, workers=1, max_batch=6, start=False)
        handles = [svc.submit_solve(small_spec, b) for b in rhs_list]
        svc.start()
        results = [h.result(TIMEOUT) for h in handles]
        svc.close()
        assert svc.metrics.to_dict()["batch"]["max"] == 6
        direct = solve_cholesky(entry.factor, np.stack(rhs_list, axis=1))
        for j, (b, x) in enumerate(zip(rhs_list, results)):
            assert np.array_equal(x, direct[:, j])
            assert np.allclose(
                x, solve_cholesky(entry.factor, b), rtol=1e-10, atol=1e-12
            )

    def test_2d_rhs_served_blocked(self, small_spec, warm_cache):
        entry = warm_cache.get_or_build(small_spec)
        rng = np.random.default_rng(6)
        block = rng.standard_normal((small_spec.n, 4))
        with SolveService(cache=warm_cache, workers=1) as svc:
            x = svc.submit_solve(small_spec, block).result(TIMEOUT)
        assert x.shape == block.shape
        assert np.allclose(x, solve_cholesky(entry.factor, block), rtol=1e-12)

    def test_logdet_matches_core(self, small_spec, warm_cache):
        entry = warm_cache.get_or_build(small_spec)
        with SolveService(cache=warm_cache, workers=1) as svc:
            value = svc.submit_logdet(small_spec).result(TIMEOUT)
        assert value == pytest.approx(logdet(entry.factor))

    def test_deformation_weights(self, small_spec, warm_cache):
        rng = np.random.default_rng(8)
        d_b = rng.standard_normal((small_spec.n, 3))
        with SolveService(cache=warm_cache, workers=1) as svc:
            w = svc.submit_deformation(small_spec, d_b).result(TIMEOUT)
            with pytest.raises(RequestFailedError):
                svc.submit_deformation(small_spec, d_b[:, :2])
        assert w.shape == (small_spec.n, 3)

    def test_refined_solve_is_more_accurate(self, small_spec, warm_cache, rhs):
        from repro.linalg.matvec import tlr_matvec

        entry = warm_cache.get_or_build(small_spec)
        with SolveService(cache=warm_cache, workers=1) as svc:
            x_direct = svc.submit_solve(small_spec, rhs).result(TIMEOUT)
            x_refined = svc.submit_solve(small_spec, rhs, refine=True).result(TIMEOUT)
        res = lambda x: np.linalg.norm(tlr_matvec(entry.operator, x) - rhs)
        assert res(x_refined) <= res(x_direct) + 1e-12

    def test_rhs_shape_validated_synchronously(self, small_spec, warm_cache):
        with SolveService(cache=warm_cache, workers=1) as svc:
            with pytest.raises(RequestFailedError):
                svc.submit_solve(small_spec, np.ones(small_spec.n + 1))
            with pytest.raises(RequestFailedError):
                svc.submit_solve(small_spec, np.ones((2, 2, 2)))


class TestCaching:
    def test_warm_requests_do_zero_build_work(self, small_spec):
        """Acceptance: warm-cache solves skip matgen + compression +
        factorization entirely, observable via the cache counters."""
        cache = OperatorCache()
        rng = np.random.default_rng(9)
        with SolveService(cache=cache, workers=1) as svc:
            svc.submit_solve(small_spec, rng.standard_normal(small_spec.n)).result(
                TIMEOUT
            )
            assert cache.builds == 1
            for _ in range(5):
                svc.submit_solve(
                    small_spec, rng.standard_normal(small_spec.n)
                ).result(TIMEOUT)
            assert cache.builds == 1  # never rebuilt
            assert cache.misses == 1
            assert cache.hits >= 5
            snap = svc.metrics.to_dict()
        assert snap["counters"]["cache_builds"] == 1
        assert snap["cache_hit_rate"] > 0.8

    def test_build_traced(self, small_spec):
        with SolveService(cache=OperatorCache(), workers=1) as svc:
            svc.submit_logdet(small_spec).result(TIMEOUT)
            classes = {e.klass for e in svc.metrics.trace.events}
        assert "BUILD" in classes and "LOGDET" in classes


class TestOverload:
    def test_backlog_rejection_is_typed_and_synchronous(
        self, small_spec, warm_cache, rhs
    ):
        svc = SolveService(
            cache=warm_cache, workers=1, backlog=2, start=False
        )
        h1 = svc.submit_solve(small_spec, rhs)
        h2 = svc.submit_solve(small_spec, rhs)
        with pytest.raises(BacklogFullError):
            svc.submit_solve(small_spec, rhs)
        assert svc.metrics.counter("rejected_backlog") == 1
        # accepted requests still complete once the workers run
        svc.start()
        assert h1.result(TIMEOUT) is not None
        assert h2.result(TIMEOUT) is not None
        svc.close()

    def test_expired_deadline_never_executes(self, small_spec, rhs):
        """Acceptance: a request whose deadline passed before dispatch
        is rejected with the typed error and triggers no numerical
        work at all (not even the operator build)."""
        cache = OperatorCache()
        svc = SolveService(cache=cache, workers=1, start=False)
        h = svc.submit_solve(small_spec, rhs, timeout=0.005)
        time.sleep(0.05)  # let the deadline lapse while staged
        svc.start()
        with pytest.raises(DeadlineExpiredError):
            h.result(TIMEOUT)
        svc.close()
        assert svc.metrics.counter("expired") == 1
        assert svc.metrics.counter("completed") == 0
        assert cache.builds == 0  # the expensive path never ran

    def test_deadline_in_future_completes(self, small_spec, warm_cache, rhs):
        with SolveService(cache=warm_cache, workers=1) as svc:
            x = svc.submit_solve(small_spec, rhs, timeout=30.0).result(TIMEOUT)
        assert x is not None

    def test_nonpositive_timeout_rejected(self, small_spec, warm_cache, rhs):
        with SolveService(cache=warm_cache, workers=1) as svc:
            with pytest.raises(ValueError):
                svc.submit_solve(small_spec, rhs, timeout=0.0)


def park_workers(svc, gate_spec):
    """Occupy every worker of a started service: each takes one request
    on ``gate_spec`` and blocks in the cache lookup until the returned
    event is set.  Whatever is submitted meanwhile queues behind them."""
    gate, parked = threading.Event(), threading.Semaphore(0)
    real_acquire = svc.cache.acquire

    def acquire(spec):
        if spec is gate_spec:
            parked.release()
            assert gate.wait(TIMEOUT)
        return real_acquire(spec)

    svc.cache.acquire = acquire
    handles = [svc.submit_logdet(gate_spec) for _ in range(svc.workers)]
    for _ in handles:
        assert parked.acquire(timeout=TIMEOUT)
    return gate, handles


class TestWorkConserving:
    """Requests coalesce exactly when they queued behind busy workers;
    no timer decides anything.  None of these asserts on wall time."""

    @pytest.fixture()
    def two_op_cache(self, warm_cache, other_spec):
        warm_cache.get_or_build(other_spec)
        return warm_cache

    def test_queued_requests_coalesce_at_take_fifo_by_oldest_member(
        self, small_spec, other_spec, two_op_cache
    ):
        rng = np.random.default_rng(12)
        svc = SolveService(cache=two_op_cache, workers=2, max_batch=4)
        taken, real_take = [], svc._pending.take
        svc._pending.take = lambda: taken.append(real_take()) or taken[-1]
        gate, parked = park_workers(svc, other_spec)
        singles = [
            svc.submit_solve(small_spec, rng.standard_normal(small_spec.n))
            for _ in range(3)
        ]
        block = svc.submit_solve(small_spec, rng.standard_normal((small_spec.n, 8)))
        ld = svc.submit_logdet(small_spec)
        singles += [
            svc.submit_solve(small_spec, rng.standard_normal(small_spec.n))
            for _ in range(3)
        ]
        assert svc.inflight == 2 + 8 and svc.metrics.to_dict()["batch"]["count"] == 0
        gate.set()
        for h in parked + singles + [block, ld]:
            h.result(TIMEOUT)
        svc.close()
        # the 6 singles: one max_batch-column solve at the first take,
        # the overflow after the block and the logdet that arrived
        # before its oldest member; block and logdet run as submitted
        shapes = [[(r.kind, r.rhs.shape if r.kind == "solve" else None) for r in b]
                  for b in taken[2:] if b]
        n = small_spec.n
        assert shapes == [
            [("solve", (n,))] * 4,
            [("solve", (n, 8))],
            [("logdet", None)],
            [("solve", (n,))] * 2,
        ]
        batch = svc.metrics.to_dict()["batch"]
        assert (batch["count"], batch["max"]) == (3, 8)
        assert batch["mean"] == pytest.approx((4 + 8 + 2) / 3)

    def test_lone_request_is_a_batch_of_one_and_needs_no_clock(
        self, small_spec, warm_cache, rhs, monkeypatch
    ):
        """On an idle service a request launches because it arrived, not
        because time passed: it completes with the clock stopped."""
        import repro.service.server as server_mod

        frozen = types.SimpleNamespace(
            monotonic=lambda: 100.0, perf_counter=lambda: 100.0, sleep=time.sleep
        )
        monkeypatch.setattr(server_mod, "time", frozen)
        entry = warm_cache.get_or_build(small_spec)
        with SolveService(cache=warm_cache, workers=2) as svc:
            x = svc.submit_solve(small_spec, rhs).result(TIMEOUT)
            assert svc.inflight == 0
        # a batch of one is the direct solve, to the bit
        assert np.array_equal(x, solve_cholesky(entry.factor, rhs))
        assert svc.metrics.to_dict()["batch"] == {"count": 1, "max": 1, "mean": 1.0}

    def test_deadline_passing_while_pending_is_shed_at_take(
        self, small_spec, other_spec, two_op_cache, rhs, monkeypatch
    ):
        import repro.service.server as server_mod

        clock = types.SimpleNamespace(
            now=0.0, perf_counter=time.perf_counter, sleep=time.sleep
        )
        clock.monotonic = lambda: clock.now
        monkeypatch.setattr(server_mod, "time", clock)
        svc = SolveService(cache=two_op_cache, workers=1)
        gate, parked = park_workers(svc, other_spec)
        doomed = svc.submit_solve(small_spec, rhs, timeout=1.0)
        live = svc.submit_solve(small_spec, rhs, timeout=10.0)
        clock.now = 2.0  # the first deadline passes while both are pending
        gate.set()
        with pytest.raises(DeadlineExpiredError):
            doomed.result(TIMEOUT)
        assert live.result(TIMEOUT) is not None
        svc.close()
        snap = svc.metrics.to_dict()
        assert snap["counters"]["expired"] == snap["counters"]["shed_take"] == 1
        assert snap["batch"] == {"count": 1, "max": 1, "mean": 1.0}  # never ran
        assert snap["deadline_slack_seconds"]["solve"]["late"] == 0

    def test_no_lost_wakeup_under_closed_loop_clients(
        self, small_spec, warm_cache, rhs
    ):
        """2 clients x 500 requests, each sent when the previous one
        completed: a missed notify would strand a request (and its
        client) with every worker asleep."""
        svc = SolveService(cache=warm_cache, workers=2)
        failures = []

        def client():
            try:
                for i in range(500):
                    h = (
                        svc.submit_logdet(small_spec)
                        if i % 10 == 9
                        else svc.submit_solve(small_spec, rhs)
                    )
                    h.result(30.0)
            except Exception as exc:  # TimeoutError = a stranded request
                failures.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(2)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(120.0)
            assert not any(t.is_alive() for t in clients)
        finally:
            sys.setswitchinterval(old)
        assert failures == []
        assert svc.inflight == 0
        closer = threading.Thread(target=svc.close)
        closer.start()
        closer.join(30.0)
        assert not closer.is_alive()
        assert svc.metrics.counter("completed") == 1000
        assert not any(t.name.startswith("tlr-serve") for t in threading.enumerate())


class TestShutdown:
    def test_submit_after_close_raises(self, small_spec, warm_cache, rhs):
        svc = SolveService(cache=warm_cache, workers=1)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit_solve(small_spec, rhs)

    def test_graceful_close_drains_accepted_work(
        self, small_spec, warm_cache, rhs
    ):
        svc = SolveService(cache=warm_cache, workers=1, start=False)
        handles = [svc.submit_solve(small_spec, rhs) for _ in range(3)]
        svc.start()
        svc.close(drain=True)
        for h in handles:
            assert h.result(TIMEOUT) is not None

    def test_abandoning_close_fails_staged_work(
        self, small_spec, warm_cache, rhs
    ):
        svc = SolveService(cache=warm_cache, workers=1, start=False)
        h = svc.submit_solve(small_spec, rhs)
        svc.close(drain=False)
        with pytest.raises(ServiceClosedError):
            h.result(TIMEOUT)

    def test_close_idempotent(self, warm_cache):
        svc = SolveService(cache=warm_cache, workers=1)
        svc.close()
        svc.close()

    def test_handle_repr_and_timeout(self, small_spec, warm_cache, rhs):
        svc = SolveService(cache=warm_cache, workers=1, start=False)
        h = svc.submit_solve(small_spec, rhs)
        assert "pending" in repr(h)
        with pytest.raises(TimeoutError):
            h.result(timeout=0.01)
        svc.start()
        h.result(TIMEOUT)
        assert "done" in repr(h)
        svc.close()


class TestOneRecordOneHandle:
    """The contract a fleet shard relies on: the record it is sent is
    the record the service runs, and the handle tells it when."""

    def test_done_callback_fires_once_on_the_settling_thread(self):
        handle, calls = RequestHandle(7, "solve"), []
        handle.add_done_callback(
            lambda h: calls.append((h, threading.current_thread()))
        )
        assert calls == []
        settler = threading.Thread(target=handle.set_result, args=("x",))
        settler.start()
        settler.join(TIMEOUT)
        handle.set_result("late")  # first completion wins, no second call
        handle.set_exception(RuntimeError("later still"))
        assert calls == [(handle, settler)]
        assert handle.result(0) == "x"

    def test_done_callback_on_a_settled_handle_runs_at_once(self):
        handle, calls = RequestHandle(8, "logdet"), []
        handle.set_exception(DeadlineExpiredError("too late"))
        handle.add_done_callback(lambda h: calls.append(threading.current_thread()))
        assert calls == [threading.current_thread()]

    def test_pending_handle_times_out_with_the_builtin_timeout_error(
        self, monkeypatch
    ):
        handle = RequestHandle(9, "solve")
        for wait in (handle.result, handle.exception):
            with pytest.raises(TimeoutError, match="request 9 still pending") as caught:
                wait(timeout=0.01)
            assert type(caught.value) is TimeoutError

        # Before Python 3.11 a Future's timeout is a class of its own,
        # which ``except TimeoutError`` does not catch: stand in for it
        class FuturesOwnTimeout(Exception):
            pass

        monkeypatch.setattr("concurrent.futures._base.TimeoutError", FuturesOwnTimeout)
        monkeypatch.setattr("repro.service.server.FutureTimeoutError", FuturesOwnTimeout)
        for wait in (handle.result, handle.exception):
            with pytest.raises(TimeoutError, match="request 9 still pending"):
                wait(timeout=0.01)
        # ... and a request that failed with one is not taken for pending
        handle.set_exception(FuturesOwnTimeout("the request's own failure"))
        with pytest.raises(FuturesOwnTimeout, match="own failure"):
            handle.result(0)

    def test_admitted_request_cannot_be_cancelled(self, small_spec, warm_cache, rhs):
        """``Future.cancel`` would settle the handle while the request
        still ran and still held its admission slot."""
        with SolveService(cache=warm_cache, workers=1, start=False) as svc:
            handle = svc.submit_solve(small_spec, rhs)
            assert not handle.cancel() and not handle.cancelled()
            assert svc.inflight == 1
            svc.start()
            assert np.isfinite(handle.result(TIMEOUT)).all()

    def test_raising_callback_loses_neither_result_nor_worker(
        self, small_spec, warm_cache, rhs
    ):
        """Callbacks run on the service's worker, outside its locks: one
        that raises (or re-enters the service) must leave both intact."""
        seen = []
        with SolveService(cache=warm_cache, workers=1, start=False) as svc:
            first = svc.submit_solve(small_spec, rhs)
            first.add_done_callback(lambda h: 1 / 0)
            first.add_done_callback(lambda h: seen.append(svc.draining))
            svc.start()
            assert np.isfinite(first.result(TIMEOUT)).all()
            # the lane survived its callback and serves the next request
            assert np.isfinite(svc.submit_logdet(small_spec).result(TIMEOUT))
        assert seen == [False]  # took the service lock inside the callback

    def test_submitted_record_keeps_its_id_and_deadline(
        self, small_spec, warm_cache
    ):
        """What a front door stamped is what the service runs under."""
        with SolveService(cache=warm_cache, workers=1, start=False) as svc:
            req = Request(
                "logdet", small_spec, deadline=time.monotonic() - 1.0, request_id=4242
            )
            handle = svc.submit(req)
            assert handle is req.handle and handle.request_id == 4242
            svc.start()
            with pytest.raises(DeadlineExpiredError, match="4242"):
                handle.result(TIMEOUT)
            assert svc.metrics.counter("shed_take") == 1

    def test_prewarm_and_occupancy_run_on_the_worker_lanes(self, small_spec):
        with SolveService(workers=1) as svc:
            t0 = time.monotonic()
            held = svc.submit(Request("occupy", seconds=0.2))
            warmed = svc.submit(Request("prewarm", small_spec))
            assert warmed.result(TIMEOUT) == small_spec.fingerprint
            # one lane: the prewarm waited out the occupancy
            assert time.monotonic() - t0 >= 0.2 and held.result(0) == 0.2
            assert svc.cache.builds == 1
            events = {e.klass for e in svc.metrics.trace.events}
            assert {"OCCUPY", "BUILD", "PREWARM"} <= events


class TestAdmissionControl:
    def test_max_inflight_sheds_with_retry_after(
        self, small_spec, warm_cache, rhs
    ):
        svc = SolveService(
            cache=warm_cache, workers=1, max_inflight=2, start=False
        )
        h1 = svc.submit_solve(small_spec, rhs)
        h2 = svc.submit_solve(small_spec, rhs)
        with pytest.raises(ServiceOverloadedError) as exc_info:
            svc.submit_solve(small_spec, rhs)
        assert exc_info.value.retry_after is not None
        assert exc_info.value.retry_after > 0.0
        assert svc.metrics.counter("shed_admission") == 1
        # already-admitted work keeps its promise
        svc.start()
        assert h1.result(TIMEOUT) is not None
        assert h2.result(TIMEOUT) is not None
        svc.close()

    def test_inflight_slots_release_on_completion(
        self, small_spec, warm_cache, rhs
    ):
        with SolveService(
            cache=warm_cache, workers=1, max_inflight=1
        ) as svc:
            for _ in range(4):  # sequential: the single slot recycles
                assert svc.submit_solve(small_spec, rhs).result(TIMEOUT) is not None
            assert svc.inflight == 0
            assert svc.metrics.counter("shed_admission") == 0

    def test_backlog_rejection_carries_retry_after(
        self, small_spec, warm_cache, rhs
    ):
        svc = SolveService(
            cache=warm_cache, workers=1, backlog=1, start=False
        )
        h = svc.submit_solve(small_spec, rhs)
        with pytest.raises(BacklogFullError) as exc_info:
            svc.submit_solve(small_spec, rhs)
        assert exc_info.value.retry_after is not None
        svc.start()
        assert h.result(TIMEOUT) is not None
        svc.close()

    def test_rejected_rhs_never_consumes_a_slot(self, small_spec, warm_cache):
        with SolveService(
            cache=warm_cache, workers=1, max_inflight=1
        ) as svc:
            with pytest.raises(RequestFailedError):
                svc.submit_solve(small_spec, np.full(small_spec.n, np.nan))
            assert svc.inflight == 0

    def test_completed_requests_record_nonnegative_slack(
        self, small_spec, warm_cache, rhs
    ):
        with SolveService(cache=warm_cache, workers=1) as svc:
            svc.submit_solve(small_spec, rhs, timeout=30.0).result(TIMEOUT)
            slack = svc.metrics.to_dict()["deadline_slack_seconds"]["solve"]
        assert slack["count"] == 1
        assert slack["late"] == 0  # nothing executed past its deadline
        assert slack["min"] > 0.0

    def test_invalid_max_inflight_rejected(self, warm_cache):
        with pytest.raises(ValueError):
            SolveService(cache=warm_cache, max_inflight=0, start=False)


class TestDrainProtocol:
    def test_drain_flushes_seals_and_blocks_admissions(
        self, small_spec, rhs, tmp_path
    ):
        cache = OperatorCache(directory=tmp_path)
        cache.get_or_build(small_spec)
        for stale in tmp_path.iterdir():  # give seal() work to do
            stale.unlink()
        with SolveService(cache=cache, workers=1) as svc:
            h = svc.submit_solve(small_spec, rhs)
            summary = svc.drain(timeout=TIMEOUT)
            assert summary["drained"] is True
            assert summary["inflight_remaining"] == 0
            assert summary["sealed_entries"] == 1
            assert h.result(TIMEOUT) is not None  # flushed, not dropped
            with pytest.raises(ServiceDrainingError):
                svc.submit_solve(small_spec, rhs)
            assert svc.metrics.counter("rejected_draining") == 1
            assert svc.metrics.counter("drains_completed") == 1

    def test_resume_reopens_admissions(self, small_spec, warm_cache, rhs):
        with SolveService(cache=warm_cache, workers=1) as svc:
            svc.drain(timeout=TIMEOUT)
            assert svc.draining
            svc.resume()
            assert not svc.draining
            assert svc.submit_solve(small_spec, rhs).result(TIMEOUT) is not None

    def test_drain_timeout_reports_stragglers(
        self, small_spec, warm_cache, rhs
    ):
        svc = SolveService(cache=warm_cache, workers=1, start=False)
        svc.submit_solve(small_spec, rhs)  # staged, the workers never run
        summary = svc.drain(timeout=0.05)
        assert summary["drained"] is False
        assert summary["inflight_remaining"] == 1
        svc.resume()
        svc.close()

    def test_drain_after_close_raises(self, warm_cache):
        svc = SolveService(cache=warm_cache, workers=1, start=False)
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.drain()

    def test_drain_is_idempotent(self, warm_cache):
        with SolveService(cache=warm_cache, workers=1) as svc:
            first = svc.drain(timeout=TIMEOUT)
            second = svc.drain(timeout=TIMEOUT)
            assert first["drained"] and second["drained"]
            assert second["sealed_entries"] == 0  # nothing left to seal


class TestJitteredBackoff:
    """Build-retry pauses draw from the full-jitter distribution
    uniform(0, min(base * 2^attempt, 10 * base)): after a failover a
    herd of shards rebuilding the same hot operator must not retry in
    lockstep, which deterministic exponential pauses would produce."""

    def test_pause_within_full_jitter_envelope(self):
        svc = SolveService(workers=1, build_backoff=0.05, start=False)
        try:
            for attempt in range(8):
                cap = min(0.05 * 2.0**attempt, 0.5)
                draws = [svc._backoff_pause(attempt) for _ in range(200)]
                assert all(0.0 <= d <= cap for d in draws)
                # full jitter, not equal jitter: the lower half of the
                # envelope must actually be used
                assert min(draws) < cap / 2
                assert max(draws) > cap / 2
        finally:
            svc.close()

    def test_pauses_are_decorrelated(self):
        """Two services (two shards after a failover) draw different
        pause sequences — the thundering-herd property itself."""
        a = SolveService(workers=1, build_backoff=0.05, start=False)
        b = SolveService(workers=1, build_backoff=0.05, start=False)
        try:
            seq_a = [a._backoff_pause(3) for _ in range(16)]
            seq_b = [b._backoff_pause(3) for _ in range(16)]
            assert seq_a != seq_b
        finally:
            a.close()
            b.close()

    def test_retry_sleeps_use_the_jittered_pause(
        self, small_spec, rhs, monkeypatch
    ):
        """The retry loop must sleep exactly what _backoff_pause draws
        (regression guard: the fixed exponential formula bypassed it)."""
        import repro.service.server as server_mod

        real_build = OperatorSpec.build
        calls = {"n": 0}

        def flaky(spec, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise np.linalg.LinAlgError("injected")
            return real_build(spec, **kw)

        monkeypatch.setattr(OperatorSpec, "build", flaky)
        slept = []
        monkeypatch.setattr(
            server_mod.time, "sleep", lambda s: slept.append(s)
        )
        with SolveService(
            workers=1, build_retries=1, build_backoff=0.04
        ) as svc:
            marker = 0.012345
            svc._backoff_pause = lambda attempt: marker
            x = svc.submit_solve(small_spec, rhs).result(TIMEOUT)
            assert np.isfinite(x).all()
        assert marker in slept
