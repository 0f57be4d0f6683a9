"""End-to-end tests for the sharded serving fleet.

Real shard processes (fork), a real SIGKILL chaos path, and a shared
sealed cache directory — scaled down to one tiny operator so each
fleet comes up in well under a second.  The invariants under test are
the PR's acceptance criteria in miniature: zero admitted requests lost
across a shard kill, failover answers bitwise identical to the
original shard's, and respawn warm from the shared disk cache.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.linalg.serialization import SUFFIX
from repro.service import (
    CircuitOpenError,
    FleetService,
    OperatorCache,
    OperatorSpec,
    RequestFailedError,
    ServiceClosedError,
    ShardFailedError,
    ShardUnavailableError,
    reconstruct_error,
)
from repro.service.errors import DeadlineExpiredError, ServiceError
from tests import procs

TIMEOUT = 60.0


def tiny_fleet(tmp_path, shards=2, **kw):
    kw.setdefault("workers_per_shard", 1)
    kw.setdefault("heartbeat_interval", 0.05)
    kw.setdefault("checkpoint_interval", 0.5)
    return FleetService(shards=shards, cache_dir=tmp_path / "cache", **kw)


def wait_for(predicate, timeout=20.0, interval=0.02):
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestRoundTrip:
    @pytest.mark.timeout(120)
    def test_solve_logdet_and_occupancy(self, small_spec, rhs, tmp_path):
        with tiny_fleet(tmp_path) as fleet:
            assert len(fleet.live_shards()) == 2
            x = fleet.submit_solve(small_spec, rhs, timeout=TIMEOUT).result(
                TIMEOUT
            )
            assert x.shape == rhs.shape and np.isfinite(x).all()
            # the shard solves against the same deterministic build, so
            # the fleet answer equals a direct in-process answer
            entry = small_spec.build()
            from repro.core.solver import solve_cholesky

            direct = solve_cholesky(entry.factor, rhs)
            np.testing.assert_array_equal(x, direct)
            ld = fleet.submit_logdet(small_spec, timeout=TIMEOUT).result(
                TIMEOUT
            )
            assert np.isfinite(ld)
            ticket = fleet.submit_occupancy("probe", 0.01, timeout=TIMEOUT)
            assert ticket.result(TIMEOUT) == 0.01
            assert fleet.metrics.counter("completed") == 3

    @pytest.mark.timeout(120)
    def test_validation_is_synchronous_at_the_front_door(
        self, small_spec, tmp_path
    ):
        with tiny_fleet(tmp_path, shards=1) as fleet:
            bad = np.full(small_spec.n, np.nan)
            with pytest.raises(RequestFailedError, match="non-finite"):
                fleet.submit_solve(small_spec, bad)
            with pytest.raises(RequestFailedError, match="operator order"):
                fleet.submit_solve(small_spec, np.ones(3))
            with pytest.raises(ValueError, match="seconds"):
                fleet.submit_occupancy("k", -1.0)
            with pytest.raises(ValueError, match="seconds"):
                fleet.submit_occupancy("k", float("nan"))
            for timeout in (float("nan"), float("inf"), 0.0):
                with pytest.raises(ValueError, match="timeout"):
                    fleet.submit_solve(small_spec, np.ones(small_spec.n), timeout=timeout)
                with pytest.raises(ValueError, match="timeout"):
                    fleet.submit_logdet(small_spec, timeout=timeout)
            assert fleet.metrics.counter("submitted") == 0

    @pytest.mark.timeout(120)
    def test_closed_fleet_refuses_work(self, small_spec, rhs, tmp_path):
        fleet = tiny_fleet(tmp_path, shards=1)
        fleet.close()
        with pytest.raises(ServiceClosedError):
            fleet.submit_solve(small_spec, rhs)
        fleet.close()  # idempotent

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="shards"):
            FleetService(shards=0, start=False)
        with pytest.raises(ValueError, match="heartbeat_interval"):
            FleetService(shards=1, heartbeat_interval=0.0, start=False)


class TestShardIsAServiceBehindAPipe:
    """Whatever crosses the pipe runs on the shard service's own lanes,
    behind its own guards — there is no second path."""

    @pytest.mark.timeout(120)
    def test_a_shard_never_runs_more_than_workers_plus_two_threads(self, tmp_path):
        """main + beat + ``workers`` lanes, however many requests are
        outstanding.  (Occupancies, so that no BLAS pool of the host's
        choosing joins the census.)"""
        with tiny_fleet(tmp_path, shards=1, workers_per_shard=2) as fleet:
            (pid,) = [s.pid for s in fleet.status()]
            handles = [
                fleet.submit_occupancy(f"key-{i}", 0.05, timeout=TIMEOUT)
                for i in range(8)
            ]
            peak = 0
            while not all(h.done() for h in handles):
                peak = max(peak, procs.threads(pid))
                time.sleep(0.002)
            assert [h.result(0) for h in handles] == [0.05] * 8
            assert 0 < peak <= 2 + 2

    @pytest.mark.timeout(120)
    def test_an_occupancy_holds_a_real_lane(self, small_spec, rhs, tmp_path):
        with tiny_fleet(tmp_path, shards=1, workers_per_shard=1) as fleet:
            fleet.prewarm(small_spec).result(TIMEOUT)
            t0 = time.monotonic()
            fleet.submit_occupancy("probe", 0.2, timeout=TIMEOUT)
            x = fleet.submit_solve(small_spec, rhs, timeout=TIMEOUT).result(TIMEOUT)
            # the only lane was held: the warm solve waited behind it
            assert time.monotonic() - t0 >= 0.15 and np.isfinite(x).all()

    @pytest.mark.timeout(120)
    def test_prewarm_of_an_open_operator_fast_fails_without_a_build(
        self, small_spec, rhs, tmp_path, monkeypatch
    ):
        """A prewarm meets the shard's circuit breaker like a cold
        solve: once the operator is open it is refused, not rebuilt."""
        log = tmp_path / "build-attempts"  # shards are forked: count on disk

        def failing_build(spec, **kwargs):
            with open(log, "a") as f:
                f.write("x")
            raise np.linalg.LinAlgError("injected build failure")

        monkeypatch.setattr(OperatorSpec, "build", failing_build)
        with tiny_fleet(tmp_path, shards=1) as fleet:
            for _ in range(3):  # the breaker's failure threshold
                with pytest.raises(ServiceError):
                    fleet.submit_solve(small_spec, rhs, timeout=TIMEOUT).result(TIMEOUT)
            attempts = len(log.read_text())
            assert attempts == 3 * 2  # each request: one build, one retry
            handle = fleet.prewarm(small_spec)
            with pytest.raises(CircuitOpenError):
                handle.result(TIMEOUT)
            assert len(log.read_text()) == attempts
            counters = fleet.remove_shard("shard-0")["counters"]
            assert counters["breaker_fast_fail"] == 1


class TestChaos:
    @pytest.mark.timeout(180)
    def test_shard_kill_loses_nothing_and_failover_is_bitwise(
        self, small_spec, other_spec, tmp_path
    ):
        """SIGKILL the shard owning an operator with requests in flight:
        every admitted request still completes, and a post-failover
        probe answer is bitwise identical to the pre-kill one."""
        rng = np.random.default_rng(5)
        probe = rng.standard_normal((small_spec.n, 2))  # 2-D: solo solve
        with tiny_fleet(tmp_path) as fleet:
            for spec in (small_spec, other_spec):  # staged: both built
                fleet.submit_solve(spec, np.ones(spec.n), timeout=TIMEOUT).result(TIMEOUT)
            before = fleet.submit_solve(
                small_spec, probe, timeout=TIMEOUT
            ).result(TIMEOUT)
            target = fleet._router.route(small_spec.fingerprint).primary
            # in-flight load on both shards at kill time
            handles = [
                fleet.submit_solve(
                    spec, rng.standard_normal(spec.n), timeout=TIMEOUT
                )
                for spec in (small_spec, other_spec)
                for _ in range(6)
            ]
            fleet.kill_shard(target)
            for h in handles:  # zero admitted requests lost
                assert np.isfinite(h.result(TIMEOUT)).all()
            after = fleet.submit_solve(
                small_spec, probe, timeout=TIMEOUT
            ).result(TIMEOUT)
            np.testing.assert_array_equal(before, after)
            report = fleet.report()
            assert report["failovers"] >= 1
            assert report["replay_mismatch"] == 0
            # the supervisor respawned the shard name we killed
            assert wait_for(lambda: len(fleet.live_shards()) == 2)
            assert fleet.metrics.counter("shard_failures") == 1

    @pytest.mark.timeout(180)
    def test_respawn_comes_back_warm_from_shared_cache(
        self, small_spec, rhs, tmp_path
    ):
        with tiny_fleet(tmp_path) as fleet:
            fleet.submit_solve(small_spec, rhs, timeout=TIMEOUT).result(TIMEOUT)
            # the build was written through before it was served
            assert wait_for(
                lambda: any((tmp_path / "cache").glob(f"*{SUFFIX}"))
            )
            target = fleet._router.route(small_spec.fingerprint).primary
            fleet.kill_shard(target)
            assert wait_for(lambda: fleet.report()["respawns"])
            record = fleet.report()["respawns"][0]
            assert record["shard"] == target and record["epoch"] == 1
            assert record["warm_disk_entries"] >= 1
            # respawn-to-warm-serving under one checkpoint interval
            assert record["respawn_seconds"] < fleet.checkpoint_interval
            assert wait_for(lambda: target in fleet.live_shards())
            # the reborn shard serves its old arc again
            x = fleet.submit_solve(small_spec, rhs, timeout=TIMEOUT).result(
                TIMEOUT
            )
            assert np.isfinite(x).all()
        # the shards' entries are sealed tile files that the reborn
        # shard's startup scan kept and any reader loads
        assert not list((tmp_path / "cache").glob("*.corrupt"))
        reader = OperatorCache(directory=tmp_path / "cache")
        assert reader.acquire(small_spec)[1] == "disk"

    @pytest.mark.timeout(180)
    def test_respawn_budget_exhaustion_degrades_to_survivors(
        self, small_spec, rhs, tmp_path
    ):
        with tiny_fleet(tmp_path, shards=2, max_respawns=0) as fleet:
            target = fleet._router.route(small_spec.fingerprint).primary
            fleet.kill_shard(target)
            assert wait_for(lambda: len(fleet.live_shards()) == 1)
            # the dead arc flowed to the survivor; service continues
            x = fleet.submit_solve(small_spec, rhs, timeout=TIMEOUT).result(
                TIMEOUT
            )
            assert np.isfinite(x).all()
            assert fleet.metrics.counter("respawn_budget_exhausted") == 1
            assert fleet.report()["respawns"] == []

    @pytest.mark.timeout(180)
    def test_kill_unknown_shard_raises(self, tmp_path):
        with tiny_fleet(tmp_path, shards=1) as fleet:
            with pytest.raises(ShardUnavailableError):
                fleet.kill_shard("shard-9")

    @pytest.mark.timeout(120)
    def test_clean_close_is_not_a_failure(self, tmp_path):
        """A shard exiting on close()'s "stop" must not be read as a
        shard failure and respawned behind close's back (the respawn
        would leak a live child past shutdown)."""
        fleet = tiny_fleet(tmp_path, shards=2)
        pids = [s.pid for s in fleet.status()]
        fleet.close()
        assert fleet.metrics.counter("shard_failures") == 0
        assert fleet.metrics.counter("shards_respawned") == 0
        for pid in pids:  # no orphaned shard processes
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    @pytest.mark.timeout(120)
    def test_control_requests_fail_over_on_shard_death(
        self, small_spec, tmp_path
    ):
        """A prewarm outstanding on a shard that dies must settle its
        handle with ShardFailedError, not hang the caller forever."""
        with tiny_fleet(tmp_path, shards=1) as fleet:
            (pid,) = [s.pid for s in fleet.status()]
            os.kill(pid, signal.SIGSTOP)  # wedge: beats stop flowing
            # admitted while the shard still looks live
            handle = fleet.prewarm(small_spec)
            # staleness detection SIGKILLs the wedged shard, which must
            # settle the control handle instead of leaking it
            with pytest.raises(ShardFailedError):
                handle.result(TIMEOUT)

    @pytest.mark.timeout(120)
    def test_shard_death_replays_the_routed_and_fails_the_pinned(
        self, small_spec, tmp_path
    ):
        """One failover path: a request routed by key outlives its
        shard; requests addressed to the shard (prewarm, drain) settle
        with ShardFailedError — none of the three is left hanging."""
        with tiny_fleet(tmp_path, shards=1) as fleet:
            (pid,) = [s.pid for s in fleet.status()]
            os.kill(pid, signal.SIGSTOP)  # accepts frames, answers none
            routed = fleet.submit_occupancy("probe", 0.01, timeout=TIMEOUT)
            prewarm = fleet.prewarm(small_spec)
            drained = []

            def drain():
                try:
                    drained.append(fleet.remove_shard("shard-0", timeout=TIMEOUT))
                except ServiceError as exc:
                    drained.append(exc)

            drainer = threading.Thread(target=drain)
            drainer.start()
            assert wait_for(lambda: len(fleet._pending) == 3)
            os.kill(pid, signal.SIGKILL)
            with pytest.raises(ShardFailedError, match="prewarm"):
                prewarm.result(TIMEOUT)
            drainer.join(TIMEOUT)
            assert isinstance(drained[0], ShardFailedError)
            assert routed.result(TIMEOUT) == 0.01  # replayed on the respawn
            assert fleet.report()["requests_replayed"] == 1
            assert not fleet._pending

    @pytest.mark.timeout(120)
    def test_concurrent_flushes_replay_a_parked_request_once(self, tmp_path):
        """The monitor and the collector both flush the park: a request
        that both find parked is re-sent once, not once by each."""
        with tiny_fleet(tmp_path, shards=1) as fleet:
            handle = fleet.submit_occupancy("probe", 0.5, timeout=TIMEOUT)
            (p,) = fleet._pending.values()
            real_replay, replays = fleet._replay, []

            def slow_replay(pending):
                replays.append(pending)
                time.sleep(0.1)  # room for the other flushes to overlap
                real_replay(pending)

            fleet._replay = slow_replay
            p.parked = True  # what its writer does on a broken send
            flushers = [threading.Thread(target=fleet._flush_park) for _ in range(2)]
            for flusher in flushers:
                flusher.start()
            for flusher in flushers:
                flusher.join(TIMEOUT)
            assert handle.result(TIMEOUT) == 0.5
            assert replays == [p] and p.attempts == 2
            assert fleet.report()["requests_replayed"] == 1

    @pytest.mark.timeout(120)
    def test_no_deadline_request_fails_when_fleet_is_unrecoverable(
        self, tmp_path
    ):
        """With the ring empty and the respawn budget exhausted, a
        parked no-deadline request must settle with
        ShardUnavailableError rather than re-park forever."""
        with tiny_fleet(tmp_path, shards=1, max_respawns=0) as fleet:
            (pid,) = [s.pid for s in fleet.status()]
            os.kill(pid, signal.SIGSTOP)
            handle = fleet.submit_occupancy("probe", 30.0)  # no deadline
            with pytest.raises(ShardUnavailableError):
                handle.result(TIMEOUT)
            assert fleet.metrics.counter("shed_no_shard") == 1


class TestMembership:
    @pytest.mark.timeout(180)
    def test_graceful_remove_returns_warm_handoff(
        self, small_spec, rhs, tmp_path
    ):
        with tiny_fleet(tmp_path, shards=2) as fleet:
            fleet.submit_solve(small_spec, rhs, timeout=TIMEOUT).result(TIMEOUT)
            victim = fleet._router.route(small_spec.fingerprint).primary
            summary = fleet.remove_shard(victim)
            assert summary["drained"] is True
            assert summary["counters"].get("completed", 0) >= 1
            assert victim not in fleet.live_shards()
            # per-shard counters folded into the fleet's metrics
            assert fleet.metrics.counter("shard_completed") >= 1
            # the survivor owns the whole ring now
            x = fleet.submit_solve(small_spec, rhs, timeout=TIMEOUT).result(
                TIMEOUT
            )
            assert np.isfinite(x).all()

    @pytest.mark.timeout(180)
    def test_add_shard_scales_the_ring(self, tmp_path):
        with tiny_fleet(tmp_path, shards=1) as fleet:
            name = fleet.add_shard()
            assert name in fleet.live_shards()
            assert len(fleet.live_shards()) == 2

    @pytest.mark.timeout(180)
    def test_status_reports_every_shard(self, tmp_path):
        with tiny_fleet(tmp_path, shards=2) as fleet:
            statuses = fleet.status()
            assert [s.name for s in statuses] == ["shard-0", "shard-1"]
            assert all(s.state == "live" for s in statuses)
            assert all(s.pid for s in statuses)


class TestErrorWire:
    def test_wire_safe_errors_round_trip(self):
        err = reconstruct_error("DeadlineExpiredError", "too late")
        assert isinstance(err, DeadlineExpiredError)
        assert "too late" in str(err)

    def test_exotic_errors_degrade_to_request_failed(self):
        err = reconstruct_error(
            "FactorizationFailedError", "op deadbeef failed"
        )
        assert isinstance(err, RequestFailedError)
        assert "FactorizationFailedError" in str(err)
        assert isinstance(err, ServiceError)

    def test_unknown_names_never_crash_the_router(self):
        err = reconstruct_error("SomethingWeird", "boom")
        assert isinstance(err, RequestFailedError)
