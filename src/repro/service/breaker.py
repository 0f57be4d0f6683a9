"""Per-operator circuit breaker for the solve-serving subsystem.

A misbehaving operator — one whose factorization keeps failing — must
not consume a build attempt (matgen + compression + factorization) on
every request it receives.  The breaker tracks *consecutive* failures
per operator fingerprint and moves through the classic three states:

``closed``
    Normal operation.  Each failure increments the consecutive count;
    reaching ``failure_threshold`` opens the breaker.  Any success
    resets the count.
``open``
    Calls fail fast with :class:`CircuitOpenError` — no build is
    attempted.  After ``reset_timeout`` seconds the breaker half-opens.
``half-open``
    Exactly one probe call is admitted; concurrent calls still fail
    fast.  A successful probe closes the breaker; a failed probe
    re-opens it for another full ``reset_timeout``.

:class:`RetryBudget` is the breaker's companion on the *retry* path:
a per-key token bucket that bounds how many retries the service will
spend per operator per unit time, so an outage is not amplified by
every caller's retry loop hammering the failing dependency.

The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.service.errors import CircuitOpenError

__all__ = ["CircuitBreaker", "RetryBudget"]

_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half-open"


class _KeyState:
    __slots__ = ("state", "failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = _CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    """Thread-safe per-key (operator fingerprint) circuit breaker.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that open a key's breaker.
    reset_timeout:
        Seconds an open breaker waits before admitting a half-open
        probe.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout <= 0.0:
            raise ValueError(
                f"reset_timeout must be positive, got {reset_timeout}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self._lock = threading.Lock()
        self._keys: dict[str, _KeyState] = {}

    def _key(self, key: str) -> _KeyState:
        return self._keys.setdefault(key, _KeyState())

    def state(self, key: str) -> str:
        """The key's current state (``closed`` / ``open`` / ``half-open``)."""
        with self._lock:
            ks = self._keys.get(key)
            if ks is None:
                return _CLOSED
            if ks.state == _OPEN and (
                self._clock() - ks.opened_at >= self.reset_timeout
            ):
                return _HALF_OPEN
            return ks.state

    def allow(self, key: str) -> None:
        """Admit a call for ``key`` or raise :class:`CircuitOpenError`.

        An admitted call *must* be followed by :meth:`record_success`
        or :meth:`record_failure` — in the half-open state the probe
        slot is claimed here and released by the outcome report.
        """
        with self._lock:
            ks = self._key(key)
            if ks.state == _CLOSED:
                return
            now = self._clock()
            if ks.state == _OPEN:
                if now - ks.opened_at < self.reset_timeout:
                    raise CircuitOpenError(
                        f"circuit open for operator {key[:12]}: "
                        f"{ks.failures} consecutive failures; retry in "
                        f"{self.reset_timeout - (now - ks.opened_at):.1f}s"
                    )
                ks.state = _HALF_OPEN
                ks.probing = False
            # half-open: admit exactly one probe
            if ks.probing:
                raise CircuitOpenError(
                    f"circuit half-open for operator {key[:12]}: "
                    "a probe is already in flight"
                )
            ks.probing = True

    def record_success(self, key: str) -> None:
        """Report a successful call: closes the breaker, resets counts."""
        with self._lock:
            ks = self._key(key)
            ks.state = _CLOSED
            ks.failures = 0
            ks.probing = False

    def record_failure(self, key: str) -> bool:
        """Report a failed call; returns True if the breaker just opened."""
        with self._lock:
            ks = self._key(key)
            if ks.state == _HALF_OPEN:
                # failed probe: straight back to open for a full timeout
                ks.state = _OPEN
                ks.opened_at = self._clock()
                ks.probing = False
                ks.failures += 1
                return True
            ks.failures += 1
            if ks.state == _CLOSED and ks.failures >= self.failure_threshold:
                ks.state = _OPEN
                ks.opened_at = self._clock()
                return True
            return False


class RetryBudget:
    """Per-key token bucket bounding retry attempts.

    First attempts are free — the budget only meters *retries*.  Each
    key starts with ``capacity`` tokens and refills continuously at
    ``refill_per_second`` up to the cap; a retry spends one token.
    When the bucket is dry, :meth:`try_spend` returns ``False`` and
    the caller must surface the original failure instead of retrying.

    Why a bucket and not a count: during a steady failure (bad
    operator store, dependency outage) every request would otherwise
    retry ``build_retries`` times, multiplying the offered load on the
    failing path exactly when it can least absorb it.  The bucket
    caps retry *rate* per operator while still allowing full retry
    depth for isolated transient failures.

    Thread-safe; clock injectable for deterministic tests.
    """

    def __init__(
        self,
        capacity: float = 10.0,
        refill_per_second: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity <= 0.0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if refill_per_second < 0.0:
            raise ValueError(
                f"refill_per_second must be >= 0, got {refill_per_second}"
            )
        self.capacity = float(capacity)
        self.refill_per_second = float(refill_per_second)
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (tokens, last refill timestamp)
        self._buckets: dict[str, tuple[float, float]] = {}

    def _refill(self, key: str, now: float) -> float:
        tokens, last = self._buckets.get(key, (self.capacity, now))
        tokens = min(
            self.capacity, tokens + (now - last) * self.refill_per_second
        )
        return tokens

    def tokens(self, key: str) -> float:
        """Current token count for ``key`` (for metrics/tests)."""
        with self._lock:
            return self._refill(key, self._clock())

    def try_spend(self, key: str, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` from ``key``'s bucket if available.

        Returns True (and debits) when the budget covers the retry;
        False (no debit) when it is exhausted.
        """
        with self._lock:
            now = self._clock()
            have = self._refill(key, now)
            if have < tokens:
                self._buckets[key] = (have, now)
                return False
            self._buckets[key] = (have - tokens, now)
            return True
