"""Circuit breaker: unit tests with an injectable clock, plus service
integration — repeated build failures open the breaker (fast-fail, no
build attempts), a half-open probe closes it once the fault clears."""

import threading

import numpy as np
import pytest

from repro.service import (
    CircuitBreaker,
    CircuitOpenError,
    FactorizationFailedError,
    OperatorSpec,
    Request,
    RetryBudget,
    SolveService,
)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture()
def clock():
    return FakeClock()


class TestCircuitBreakerUnit:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError, match="reset_timeout"):
            CircuitBreaker(reset_timeout=0.0)

    def test_closed_by_default_and_allows(self, clock):
        b = CircuitBreaker(failure_threshold=2, reset_timeout=10.0, clock=clock)
        assert b.state("op") == "closed"
        b.allow("op")  # no raise

    def test_opens_after_threshold_consecutive_failures(self, clock):
        b = CircuitBreaker(failure_threshold=3, reset_timeout=10.0, clock=clock)
        assert b.record_failure("op") is False
        assert b.record_failure("op") is False
        assert b.record_failure("op") is True  # just opened
        assert b.state("op") == "open"
        with pytest.raises(CircuitOpenError, match="circuit open"):
            b.allow("op")

    def test_success_resets_consecutive_count(self, clock):
        b = CircuitBreaker(failure_threshold=2, reset_timeout=10.0, clock=clock)
        b.record_failure("op")
        b.record_success("op")
        assert b.record_failure("op") is False
        assert b.state("op") == "closed"

    def test_keys_are_independent(self, clock):
        b = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        b.record_failure("bad")
        assert b.state("bad") == "open"
        assert b.state("good") == "closed"
        b.allow("good")  # unaffected

    def test_half_open_after_reset_timeout(self, clock):
        b = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        b.record_failure("op")
        clock.advance(9.9)
        assert b.state("op") == "open"
        clock.advance(0.2)
        assert b.state("op") == "half-open"
        b.allow("op")  # the probe is admitted

    def test_half_open_admits_exactly_one_probe(self, clock):
        b = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        b.record_failure("op")
        clock.advance(11.0)
        b.allow("op")  # probe claimed
        with pytest.raises(CircuitOpenError, match="probe is already in flight"):
            b.allow("op")

    def test_successful_probe_closes(self, clock):
        b = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        b.record_failure("op")
        clock.advance(11.0)
        b.allow("op")
        b.record_success("op")
        assert b.state("op") == "closed"
        b.allow("op")
        b.allow("op")  # no probe limit once closed

    def test_failed_probe_reopens_for_full_timeout(self, clock):
        b = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        b.record_failure("op")
        clock.advance(11.0)
        b.allow("op")
        assert b.record_failure("op") is True
        assert b.state("op") == "open"
        clock.advance(9.0)  # not yet: a *full* timeout from the probe failure
        with pytest.raises(CircuitOpenError):
            b.allow("op")
        clock.advance(2.0)
        assert b.state("op") == "half-open"


class FlakyBuild:
    """Monkeypatch target: fails OperatorSpec.build until told to heal."""

    def __init__(self, real_build):
        self.real_build = real_build
        self.failing = True
        self.calls = 0
        self.lock = threading.Lock()

    def __call__(self, spec, **kwargs):
        with self.lock:
            self.calls += 1
            failing = self.failing
        if failing:
            raise np.linalg.LinAlgError("injected build failure")
        return self.real_build(spec, **kwargs)


@pytest.fixture()
def flaky_build(monkeypatch):
    real = OperatorSpec.build
    flaky = FlakyBuild(real)
    monkeypatch.setattr(
        OperatorSpec, "build", lambda spec, **kw: flaky(spec, **kw)
    )
    return flaky


class TestServiceIntegration:
    @pytest.mark.timeout(60)
    def test_build_failures_open_breaker_then_probe_recovers(
        self, small_spec, rhs, flaky_build, clock
    ):
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=30.0, clock=clock
        )
        with SolveService(
            workers=1, build_retries=0, breaker=breaker
        ) as svc:
            # two failing builds open the breaker
            for _ in range(2):
                with pytest.raises(FactorizationFailedError) as err:
                    svc.submit_solve(small_spec, rhs).result(timeout=30)
                assert err.value.attempts == 1
            assert breaker.state(small_spec.fingerprint) == "open"

            # open: requests fast-fail without touching the build
            calls_before = flaky_build.calls
            with pytest.raises(CircuitOpenError):
                svc.submit_solve(small_spec, rhs).result(timeout=30)
            assert flaky_build.calls == calls_before
            assert svc.metrics.to_dict()["counters"]["breaker_fast_fail"] == 1
            assert svc.metrics.to_dict()["counters"]["breaker_opened"] == 1

            # fault clears, timeout elapses: the half-open probe closes it
            flaky_build.failing = False
            clock.advance(31.0)
            x = svc.submit_solve(small_spec, rhs).result(timeout=30)
            assert np.isfinite(x).all()
            assert breaker.state(small_spec.fingerprint) == "closed"

            # subsequent requests hit the cache, breaker stays closed
            svc.submit_solve(small_spec, rhs).result(timeout=30)
            assert breaker.state(small_spec.fingerprint) == "closed"

    @pytest.mark.timeout(60)
    def test_build_retry_recovers_transient_failure(
        self, small_spec, rhs, flaky_build
    ):
        """A once-failing build succeeds on the in-request retry; the
        breaker never opens and the client never sees the failure."""

        class HealAfterOne(FlakyBuild):
            def __call__(self, spec, **kwargs):
                with self.lock:
                    self.calls += 1
                    if self.calls > 1:
                        self.failing = False
                    failing = self.failing
                if failing:
                    raise np.linalg.LinAlgError("injected build failure")
                return self.real_build(spec, **kwargs)

        flaky_build.__class__ = HealAfterOne
        with SolveService(
            workers=1, build_retries=2, build_backoff=0.001
        ) as svc:
            x = svc.submit_solve(small_spec, rhs).result(timeout=30)
            assert np.isfinite(x).all()
            counters = svc.metrics.to_dict()["counters"]
            assert counters["build_retries"] == 1
            assert "breaker_opened" not in counters
        assert flaky_build.calls == 2

    @pytest.mark.timeout(60)
    def test_exhausted_build_retries_carry_attempt_count(
        self, small_spec, rhs, flaky_build
    ):
        with SolveService(
            workers=1, build_retries=2, build_backoff=0.001
        ) as svc:
            with pytest.raises(FactorizationFailedError) as err:
                svc.submit_solve(small_spec, rhs).result(timeout=30)
            assert err.value.attempts == 3
            assert err.value.fingerprint == small_spec.fingerprint
            assert isinstance(err.value.cause, np.linalg.LinAlgError)
        assert flaky_build.calls == 3

    @pytest.mark.timeout(60)
    def test_breaker_counters_exported(self, small_spec, rhs, flaky_build):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)
        with SolveService(workers=1, build_retries=0, breaker=breaker) as svc:
            with pytest.raises(FactorizationFailedError):
                svc.submit_solve(small_spec, rhs).result(timeout=30)
            with pytest.raises(CircuitOpenError):
                svc.submit_solve(small_spec, rhs).result(timeout=30)
            d = svc.metrics.to_dict()["counters"]
            assert d["breaker_opened"] == 1
            assert d["breaker_fast_fail"] == 1


    @pytest.mark.timeout(60)
    def test_failing_prewarm_is_charged_exactly_like_a_cold_solve(
        self, small_spec, rhs, flaky_build
    ):
        """A prewarm is a request kind on the same lanes: its failing
        build opens the breaker, spends retry budget and counts retries
        exactly as the same build failing under a solve does."""
        fp = small_spec.fingerprint

        def outcome(submit):
            with SolveService(
                workers=1,
                build_retries=2,
                build_backoff=0.001,
                breaker=CircuitBreaker(failure_threshold=1, reset_timeout=60.0),
                retry_budget=RetryBudget(capacity=5.0, refill_per_second=0.0),
            ) as svc:
                with pytest.raises(FactorizationFailedError) as err:
                    submit(svc).result(timeout=30)
                counters = svc.metrics.to_dict()["counters"]
                return (
                    err.value.attempts,
                    svc.breaker.state(fp),
                    svc.retry_budget.tokens(fp),
                    counters["build_retries"],
                    counters["breaker_opened"],
                )

        cold = outcome(lambda svc: svc.submit_solve(small_spec, rhs))
        warm = outcome(lambda svc: svc.submit(Request("prewarm", small_spec)))
        assert warm == cold == (3, "open", 3.0, 2, 1)


class TestHalfOpenRaces:
    """Concurrent probes against a half-open breaker: exactly one trial
    request may pass, and a failed probe re-opens cleanly — the races
    the ``probing`` flag exists to win."""

    def _half_open(self, clock):
        b = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        b.record_failure("op")
        clock.advance(11.0)
        assert b.state("op") == "half-open"
        return b

    @pytest.mark.timeout(60)
    def test_concurrent_probes_admit_exactly_one(self, clock):
        b = self._half_open(clock)
        n = 16
        barrier = threading.Barrier(n)
        admitted, rejected = [], []
        lock = threading.Lock()

        def contender(i):
            barrier.wait()
            try:
                b.allow("op")
            except CircuitOpenError:
                with lock:
                    rejected.append(i)
            else:
                with lock:
                    admitted.append(i)

        threads = [
            threading.Thread(target=contender, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 1
        assert len(rejected) == n - 1

    @pytest.mark.timeout(60)
    def test_probe_failure_reopens_and_next_window_readmits_one(self, clock):
        b = self._half_open(clock)
        b.allow("op")
        b.record_failure("op")  # probe failed -> open, probing released
        # everyone fails fast while open — no leaked probe slot
        for _ in range(4):
            with pytest.raises(CircuitOpenError):
                b.allow("op")
        clock.advance(11.0)
        # next half-open window admits exactly one again
        b.allow("op")
        with pytest.raises(CircuitOpenError, match="probe is already in flight"):
            b.allow("op")

    @pytest.mark.timeout(60)
    def test_probe_success_reopens_the_floodgates(self, clock):
        b = self._half_open(clock)
        b.allow("op")
        b.record_success("op")
        n = 8
        barrier = threading.Barrier(n)
        errors = []

        def caller():
            barrier.wait()
            try:
                b.allow("op")
            except CircuitOpenError as exc:  # pragma: no cover - failure
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors  # closed breaker admits everyone

    @pytest.mark.timeout(60)
    def test_concurrent_probe_failure_storm_stays_consistent(self, clock):
        """Probe fails while other threads hammer allow(): the breaker
        must land in a clean open state (no stuck probing flag)."""
        b = self._half_open(clock)
        b.allow("op")  # claim the probe
        n = 8
        barrier = threading.Barrier(n + 1)
        outcomes = []
        lock = threading.Lock()

        def hammer():
            barrier.wait()
            for _ in range(50):
                try:
                    b.allow("op")
                except CircuitOpenError:
                    pass
                else:  # pragma: no cover - would be the race bug
                    with lock:
                        outcomes.append("admitted")

        threads = [threading.Thread(target=hammer) for _ in range(n)]
        for t in threads:
            t.start()
        barrier.wait()
        b.record_failure("op")
        for t in threads:
            t.join()
        # nobody slipped in: the failed probe re-opened for a full
        # timeout and the clock never advanced past it
        assert outcomes == []
        assert b.state("op") == "open"


class TestRetryBudget:
    def test_parameter_validation(self):
        from repro.service import RetryBudget

        with pytest.raises(ValueError, match="capacity"):
            RetryBudget(capacity=0.0)
        with pytest.raises(ValueError, match="refill_per_second"):
            RetryBudget(refill_per_second=-1.0)

    def test_spend_until_dry_then_refill(self, clock):
        from repro.service import RetryBudget

        rb = RetryBudget(capacity=2.0, refill_per_second=0.5, clock=clock)
        assert rb.try_spend("op")
        assert rb.try_spend("op")
        assert not rb.try_spend("op")  # dry
        clock.advance(2.0)  # +1 token
        assert rb.try_spend("op")
        assert not rb.try_spend("op")

    def test_keys_are_independent(self, clock):
        from repro.service import RetryBudget

        rb = RetryBudget(capacity=1.0, refill_per_second=0.0, clock=clock)
        assert rb.try_spend("a")
        assert not rb.try_spend("a")
        assert rb.try_spend("b")  # b has its own bucket

    def test_refill_caps_at_capacity(self, clock):
        from repro.service import RetryBudget

        rb = RetryBudget(capacity=3.0, refill_per_second=10.0, clock=clock)
        clock.advance(1000.0)
        assert rb.tokens("op") == 3.0

    def test_thread_safety_never_overspends(self, clock):
        from repro.service import RetryBudget

        rb = RetryBudget(capacity=10.0, refill_per_second=0.0, clock=clock)
        n = 8
        barrier = threading.Barrier(n)
        granted = []
        lock = threading.Lock()

        def spender():
            barrier.wait()
            for _ in range(10):
                if rb.try_spend("op"):
                    with lock:
                        granted.append(1)

        threads = [threading.Thread(target=spender) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(granted) == 10  # exactly the capacity, never more
