"""Typed errors raised by the solve-serving subsystem.

Every rejection path has its own exception class so clients (and
tests) can react to overload, expiry, and shutdown deterministically
instead of parsing message strings.
"""

from __future__ import annotations

__all__ = [
    "ServiceError",
    "BacklogFullError",
    "ServiceOverloadedError",
    "ServiceDrainingError",
    "DeadlineExpiredError",
    "ServiceClosedError",
    "RequestFailedError",
    "FactorizationFailedError",
    "CircuitOpenError",
    "CorruptResultError",
    "ShardFailedError",
    "ShardUnavailableError",
    "reconstruct_error",
]


class ServiceError(RuntimeError):
    """Base class for all service-level failures."""


class BacklogFullError(ServiceError):
    """The bounded request queue is full; the request was never enqueued.

    Raised synchronously by ``submit`` — backpressure is immediate, the
    caller can retry, shed load, or fail over.  ``retry_after`` (when
    not ``None``) is the service's estimate, in seconds, of when
    capacity should free up — the ``Retry-After`` hint a gateway would
    forward with a 503.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        self.retry_after = retry_after
        super().__init__(message)


class ServiceOverloadedError(BacklogFullError):
    """Admission control shed the request: too many requests in flight.

    Distinct from :class:`BacklogFullError` (queue capacity) — this is
    the concurrency cap (``max_inflight``): queued work admitted now
    would just expire waiting.  Inherits the ``retry_after`` hint.
    """


class ServiceDrainingError(ServiceError):
    """The service is draining and admits no new work.

    Unlike :class:`ServiceClosedError`, in-flight and queued requests
    are still being completed; only *new* admissions are refused.
    """


class DeadlineExpiredError(ServiceError):
    """The request's deadline passed before execution started.

    Expired requests are *never* executed: a worker re-checks the
    deadline when it takes work from the pending pool and again after
    a cache-miss build, and completes the handle with this error
    instead of running the solve.
    """


class ServiceClosedError(ServiceError):
    """The service is shut down (or shutting down) and takes no work."""


class RequestFailedError(ServiceError):
    """The request itself was malformed (bad shape, non-finite values,
    unconvertible dtype, unknown kind...).  Raised synchronously by
    ``submit_*`` before the request is enqueued."""


class FactorizationFailedError(ServiceError):
    """Building the operator's factor failed after every retry.

    Carries the operator fingerprint, the attempt count and the
    underlying cause so clients can distinguish a bad operator from a
    bad request.
    """

    def __init__(self, fingerprint: str, attempts: int, cause: BaseException) -> None:
        self.fingerprint = fingerprint
        self.attempts = int(attempts)
        self.cause = cause
        super().__init__(
            f"factorization of operator {fingerprint[:12]} failed after "
            f"{attempts} attempt(s): {cause}"
        )


class CircuitOpenError(ServiceError):
    """The operator's circuit breaker is open: the request fails fast.

    A misbehaving operator (repeated factorization failures) is shed
    at the edge instead of burning a worker on every request; the
    breaker half-opens after its reset timeout to probe for recovery.
    """


class CorruptResultError(ServiceError):
    """A computed result contained non-finite values: corrupt factor.

    The last line of defense against silent data corruption — a solve
    or logdet that produces NaN/Inf from finite inputs means the cached
    factor (or operator) is damaged.  The service fails the request
    with this error, drops and quarantines the cache entry so the next
    request triggers a clean rebuild, and never returns the poisoned
    numbers.
    """

    def __init__(self, fingerprint: str, kind: str) -> None:
        self.fingerprint = fingerprint
        self.kind = kind
        super().__init__(
            f"{kind} result for operator {fingerprint[:12]} contained "
            "non-finite values; cached factor is corrupt and has been "
            "dropped for rebuild"
        )


class ShardFailedError(ServiceError):
    """The request's shard died and the request could not be replayed.

    Raised on a fleet request handle when the owning shard process
    failed (SIGKILL, crash, hung-and-killed) and failover could not
    complete it: no surviving shard, replay attempts exhausted, or the
    respawn budget is spent.  An admitted request only ever surfaces
    this after the fleet has genuinely run out of places to send it.
    """


class ShardUnavailableError(ServiceError):
    """No live shard exists to route the request to.

    Raised synchronously at fleet submission when the hash ring is
    empty (every shard dead with the respawn budget exhausted, or the
    fleet not yet started).
    """


#: Service errors a shard can report across the process boundary that
#: reconstruct faithfully from their message alone.  Errors with richer
#: constructors (fingerprint + attempts + cause...) do not round-trip
#: through pickle safely, so shard replies carry ``(class name, text)``
#: and the fleet rebuilds the typed error here — unknown names degrade
#: to :class:`RequestFailedError` rather than crashing the router.
_WIRE_SAFE: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        ServiceError,
        BacklogFullError,
        ServiceOverloadedError,
        ServiceDrainingError,
        DeadlineExpiredError,
        ServiceClosedError,
        RequestFailedError,
        CircuitOpenError,
        ShardFailedError,
        ShardUnavailableError,
    )
}


def reconstruct_error(name: str, message: str) -> "ServiceError":
    """Rebuild a typed service error from a shard's wire reply."""
    cls = _WIRE_SAFE.get(name)
    if cls is not None:
        return cls(message)
    # FactorizationFailedError / CorruptResultError and any non-service
    # exception: preserve the text, lose the exotic constructor
    return RequestFailedError(f"{name}: {message}")
