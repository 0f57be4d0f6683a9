"""The solve-serving front end: one pending pool, workers that pull.

Request lifecycle::

    submit(Request) -add-> pending pool (RequestBatcher: keyed, bounded)
                               |                    |
                     BacklogFullError        take(): the oldest request
                     (pool full)             plus its same-key neighbours,
                                             up to max_batch
                                                    |
                                             worker threads
                                      (shed expired, cache acquire, blocked
                                       solve / logdet / prewarm / occupancy,
                                       post-build deadline re-check, settle
                                       the handle -> its done-callbacks)

Clients never block on BLAS, and there is no thread between a client
and the worker that serves it (the fan-both solver's one-sided take:
executors pull work, nothing hands it to them).  Batching is
work-conserving: a free worker takes whatever is pending for the
oldest request's operator, so single-RHS requests coalesce into one
blocked multi-RHS triangular solve exactly when they queued behind
busy workers, and a request that finds a worker idle starts at once as
a batch of one.  No timer holds ready work back to grow a batch.

Overload control happens at the edge, in admission order:

1. **draining** — a draining service admits nothing new
   (:class:`ServiceDrainingError`) while completing accepted work;
2. **concurrency cap** — more than ``max_inflight`` admitted-but-
   incomplete requests sheds with :class:`ServiceOverloadedError`
   carrying a ``retry_after`` hint (estimated from observed service
   time and current occupancy), because work queued beyond the cap
   would mostly expire waiting;
3. **backlog bound** — a full pending pool rejects *synchronously*
   with :class:`BacklogFullError` (same ``retry_after`` hint).

Deadlines propagate through *every* stage rather than being checked
once: at every take the whole pool is pruned of expired requests,
survivors are re-checked after a (possibly slow) cache-miss
factorization, and the build-retry loop gives up rather than sleep
past the batch's deadline — so work whose deadline has passed is never
executed, and the deadline-slack histogram's ``late`` count stays
zero.  Retries are additionally metered by a per-operator
:class:`~repro.service.breaker.RetryBudget` so a steadily failing
build cannot be amplified by the retry loop.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from repro.config import DTYPE
from repro.service.batching import RequestBatcher
from repro.service.breaker import CircuitBreaker, RetryBudget
from repro.service.cache import CacheEntry, OperatorCache
from repro.service.errors import (
    BacklogFullError,
    CircuitOpenError,
    CorruptResultError,
    DeadlineExpiredError,
    FactorizationFailedError,
    RequestFailedError,
    ServiceClosedError,
    ServiceDrainingError,
    ServiceOverloadedError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.spec import OperatorSpec
from repro.utils.validation import as_real

__all__ = ["Request", "RequestHandle", "SolveService", "deadline_after"]

_request_ids = itertools.count(1)


class RequestHandle(Future):
    """Client-side handle for one submitted request: a
    :class:`concurrent.futures.Future` that knows its request's id and
    kind.

    ``result()`` blocks until the service completes the request and
    either returns the payload (solution array, logdet float) or
    raises the typed service error recorded for it (the builtin
    ``TimeoutError`` if ``timeout`` runs out first, on every Python);
    ``add_done_callback(fn)`` calls ``fn(handle)`` once instead — on
    the settling thread, outside every service lock, or at once if the
    handle has already settled (a raising callback is logged and costs
    neither that thread nor the result).  The first completion wins:
    settling a settled handle is a no-op, not an error.
    """

    def __init__(self, request_id: int, kind: str) -> None:
        super().__init__()
        self.request_id = request_id
        self.kind = kind

    def set_result(self, value) -> None:
        with suppress(InvalidStateError):
            super().set_result(value)

    def set_exception(self, exc: BaseException) -> None:
        with suppress(InvalidStateError):
            super().set_exception(exc)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        try:
            return super().exception(timeout)
        except FutureTimeoutError:  # the builtin only from Python 3.11 on
            raise TimeoutError(f"request {self.request_id} still pending") from None

    def result(self, timeout: float | None = None):
        exc = self.exception(timeout)
        if exc is not None:
            raise exc
        return super().result()

    def cancel(self) -> bool:
        return False  # an admitted request runs: there is nothing to call off

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"RequestHandle(#{self.request_id}, {self.kind}, {state})"


def deadline_after(timeout: float | None) -> float | None:
    """The absolute ``time.monotonic()`` deadline ``timeout`` seconds
    from now (None = none).  CLOCK_MONOTONIC is machine-wide on Linux,
    so a deadline stamped by a fleet's front door means the same
    instant inside its shards.  A NaN or infinite timeout is refused:
    its deadline would never expire (None is how to ask for none)."""
    if timeout is None:
        return None
    if not (math.isfinite(timeout) and timeout > 0.0):
        raise ValueError(f"timeout must be finite and positive, got {timeout}")
    return time.monotonic() + timeout


@dataclass
class Request:
    """One unit of work: the record a service queues and executes, and
    the frame a fleet's front door sends its shards (it pickles as long
    as ``handle`` is unset; :meth:`SolveService.submit` sets it).

    Whoever builds the record stamps ``request_id`` and ``deadline``;
    they are never re-derived downstream.
    """

    #: "solve" | "logdet" | "prewarm" (build or load ``spec``, answer
    #: its fingerprint) | "occupy" (hold a lane ``seconds``, no numerics)
    kind: str
    spec: OperatorSpec | None = None
    rhs: np.ndarray | None = None
    refine: bool = False
    seconds: float = 0.0
    #: monotonic-clock absolute deadline (None = no deadline)
    deadline: float | None = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    handle: RequestHandle | None = None
    submitted_at: float = field(default_factory=time.monotonic)

    @property
    def batch_key(self) -> tuple | None:
        """Only single-column solves coalesce; everything else (None)
        runs as its own (possibly already blocked) execution."""
        if self.kind == "solve" and self.rhs is not None and self.rhs.ndim == 1:
            return (self.spec.fingerprint, self.kind, self.refine)
        return None

    def expired(self, now: float | None = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline


class SolveService:
    """Batched, cached serving of solve/logdet requests on TLR factors.

    Parameters
    ----------
    cache:
        Operator cache (default: unbounded in-memory cache).  Its
        metrics mirror is re-pointed at this service's metrics.
    workers:
        Worker threads, the only threads the service starts: each
        pulls batches from the pending pool and executes them.  BLAS
        releases the GIL, so distinct operators genuinely overlap.
    backlog:
        Bound on pending requests (admitted, not yet taken by a
        worker); submissions beyond it raise :class:`BacklogFullError`
        synchronously.
    max_batch:
        Most single-RHS requests one take may coalesce (see
        :class:`RequestBatcher`); 1 disables coalescing.
    factor_workers:
        Worker threads for cache-miss factorizations: the parallel
        DAG engine executes the build's task graph with this many
        threads (``<= 0`` = one per core).  ``None`` leaves the
        cache's own setting untouched.
    build_retries:
        Re-attempts of a failed cache-miss factorization (with capped
        exponential backoff starting at ``build_backoff`` seconds).
        Exhausted retries complete the request with
        :class:`FactorizationFailedError`.
    breaker:
        Per-operator circuit breaker (default: a fresh
        :class:`~repro.service.breaker.CircuitBreaker`: opens after 3
        consecutive failures, probes again after 30 s).  An operator whose
        builds keep failing is shed at the edge with
        :class:`CircuitOpenError` instead of re-building every time;
        a half-open probe re-admits it once it recovers.
    max_inflight:
        Admission-control cap on admitted-but-incomplete requests
        (queued, batched, or executing).  Submissions beyond it shed
        with :class:`ServiceOverloadedError` carrying a ``retry_after``
        hint.  ``None`` (default) disables the cap — the backlog bound
        is then the only admission limit.
    retry_budget:
        Per-operator token bucket metering build *retries* (default: a
        fresh :class:`~repro.service.breaker.RetryBudget`).  Pass an
        explicit instance to tune capacity/refill, or construct one
        with ``capacity=float("inf")`` to restore unmetered retries.
    start:
        Start the workers immediately.  Tests pass ``False`` to stage
        requests deterministically, then call :meth:`start`.
    """

    def __init__(
        self,
        cache: OperatorCache | None = None,
        workers: int = 2,
        backlog: int = 128,
        max_batch: int = 32,
        metrics: ServiceMetrics | None = None,
        factor_workers: int | None = None,
        build_retries: int = 1,
        build_backoff: float = 0.05,
        breaker: CircuitBreaker | None = None,
        max_inflight: int | None = None,
        retry_budget: RetryBudget | None = None,
        start: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if backlog < 1:
            raise ValueError(f"backlog must be >= 1, got {backlog}")
        if build_retries < 0:
            raise ValueError(f"build_retries must be >= 0, got {build_retries}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1 or None, got {max_inflight}"
            )
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.cache = cache if cache is not None else OperatorCache()
        self.cache.metrics = self.metrics
        if factor_workers is not None:
            self.cache.factor_workers = factor_workers
        self.build_retries = int(build_retries)
        self.build_backoff = float(build_backoff)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.backlog = int(backlog)
        self.workers = int(workers)
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.retry_budget = (
            retry_budget if retry_budget is not None else RetryBudget()
        )
        # Full-jitter backoff (AWS architecture blog's recommendation):
        # after a failover, N shards rebuilding the same hot operator
        # would otherwise sleep identical exponential pauses and re-hit
        # the compression pipeline in lockstep; drawing each pause
        # uniformly from [0, cap] decorrelates the herd.  OS-seeded:
        # determinism here would defeat the point.
        self._backoff_rng = random.Random()
        self._epoch = time.perf_counter()
        #: guards the pool and the flags below
        self._lock = threading.Lock()
        #: workers wait here for "something is pending, or closed"
        self._work = threading.Condition(self._lock)
        self._pending = RequestBatcher(max_batch=max_batch)
        self._threads: list[threading.Thread] = []
        self._closed = False
        self._draining = False
        #: admitted-but-incomplete requests (pending + executing);
        #: every completion path decrements via _settle, so this is
        #: the drain-progress gauge too
        self._inflight = 0
        if start:
            self.start()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------

    def submit_solve(
        self,
        spec: OperatorSpec,
        rhs: np.ndarray,
        timeout: float | None = None,
        refine: bool = False,
    ) -> RequestHandle:
        """Queue ``A x = rhs`` against the operator described by ``spec``.

        A 1-D ``rhs`` returns a 1-D solution and may be coalesced with
        concurrent requests on the same operator; a 2-D ``rhs`` is
        already a blocked solve and runs as submitted.

        The RHS is validated *before* enqueue: unconvertible dtypes,
        wrong shapes and non-finite entries (NaN/Inf would poison a
        batched solve for every coalesced neighbor) are rejected
        synchronously with :class:`RequestFailedError`.
        """
        rhs = self._validate_rhs(spec, rhs)
        return self.submit(
            Request(
                "solve",
                spec,
                rhs=rhs.copy(),
                refine=refine,
                deadline=deadline_after(timeout),
            )
        )

    def submit_logdet(
        self, spec: OperatorSpec, timeout: float | None = None
    ) -> RequestHandle:
        """Queue a ``log det A`` request (memoized per cached factor)."""
        return self.submit(
            Request("logdet", spec, deadline=deadline_after(timeout))
        )

    def submit_deformation(
        self,
        spec: OperatorSpec,
        boundary_displacements: np.ndarray,
        timeout: float | None = None,
        refine: bool = False,
    ) -> RequestHandle:
        """Queue an RBF mesh-deformation weights solve: ``A W = d_b``.

        ``boundary_displacements`` is the ``(n, 3)`` displacement field
        of the boundary nodes; the result is the ``(n, 3)`` interpolation
        weight matrix (one blocked 3-RHS solve).
        """
        try:
            d_b = as_real("displacements", boundary_displacements)
        except (TypeError, ValueError) as exc:
            raise RequestFailedError(
                f"displacements are not convertible to "
                f"{np.dtype(DTYPE).name}: {exc}"
            ) from None
        if d_b.ndim != 2 or d_b.shape[1] != 3:
            raise RequestFailedError(
                f"displacements must have shape (n, 3), got {d_b.shape}"
            )
        return self.submit_solve(spec, d_b, timeout=timeout, refine=refine)

    def start(self) -> None:
        """Start the worker threads (idempotent; a no-op once closed)."""
        with self._lock:
            if self._threads or self._closed:
                return
            self._threads = [
                threading.Thread(
                    target=self._work_loop,
                    args=(lane,),
                    name=f"tlr-serve-{lane}",
                    daemon=True,
                )
                for lane in range(self.workers)
            ]
            # under the lock, so a racing close() never joins a thread
            # that has not been started
            for thread in self._threads:
                thread.start()

    def drain(self, timeout: float = 30.0) -> dict:
        """Gracefully drain before a shutdown; the service stays up.

        The drain protocol, in order:

        1. **stop admissions** — new submissions raise
           :class:`ServiceDrainingError` (in-flight work keeps its
           promises);
        2. **flush the pipeline** — wait (bounded by ``timeout``
           seconds) until every admitted request has completed: pool
           empty, workers idle;
        3. **seal the cache** — a durability flush: every build was
           already written through to disk before it was served, so
           this only retries the write-throughs that failed.

        Returns a summary dict (``drained`` is False if ``timeout``
        expired with work still in flight — the remaining count is in
        ``inflight_remaining``).  Idempotent; call :meth:`close`
        afterwards to shut down.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            self._draining = True
        self.metrics.count("drains_started")
        t0 = time.monotonic()
        with self._work:  # _settle notifies when the count reaches 0
            self._work.wait_for(lambda: self._inflight == 0, max(0.0, float(timeout)))
            inflight = self._inflight
        sealed = self.cache.seal()
        self.metrics.count("cache_entries_sealed", sealed)
        summary = {
            "drained": inflight == 0,
            "inflight_remaining": inflight,
            "sealed_entries": sealed,
            "drain_seconds": time.monotonic() - t0,
        }
        if inflight == 0:
            self.metrics.count("drains_completed")
        return summary

    def resume(self) -> None:
        """Lift a drain: re-open admissions."""
        with self._lock:
            self._draining = False

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def inflight(self) -> int:
        """Admitted-but-incomplete requests right now."""
        with self._lock:
            return self._inflight

    def close(self, drain: bool = True) -> None:
        """Stop accepting work and shut the pipeline down.

        With ``drain=True`` (graceful) every already-accepted request
        is executed first; with ``drain=False`` pending requests fail
        with :class:`ServiceClosedError` (batches already executing
        finish either way).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # a never-started service has nobody to run what it staged
            executing = drain and self._threads
            abandoned = [] if executing else self._pending.prune(lambda _: True)
            self._work.notify_all()
        for req in abandoned:
            self._fail(req, ServiceClosedError("service closed"))
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # submission internals
    # ------------------------------------------------------------------

    @staticmethod
    def _validate_rhs(spec: OperatorSpec, rhs) -> np.ndarray:
        """Reject malformed right-hand sides before they are enqueued."""
        try:
            rhs = as_real("rhs", rhs)
        except (TypeError, ValueError) as exc:
            raise RequestFailedError(
                f"rhs is not convertible to {np.dtype(DTYPE).name}: {exc}"
            ) from None
        if rhs.ndim not in (1, 2):
            raise RequestFailedError(f"rhs must be 1-D or 2-D, got {rhs.shape}")
        if rhs.shape[0] != spec.n:
            raise RequestFailedError(
                f"rhs has {rhs.shape[0]} rows, operator order is {spec.n}"
            )
        if rhs.size == 0:
            raise RequestFailedError(f"rhs is empty (shape {rhs.shape})")
        if not np.isfinite(rhs).all():
            bad = int(rhs.size - np.count_nonzero(np.isfinite(rhs)))
            raise RequestFailedError(
                f"rhs contains {bad} non-finite value(s) (NaN/Inf)"
            )
        return rhs

    def _retry_after(self, kind: str) -> float:
        """Estimated seconds until capacity frees up (Retry-After hint).

        Occupancy model: the backlog ahead of a retrying client is
        ``inflight`` requests served by ``workers`` lanes at the
        observed mean service time (batching makes this pessimistic,
        which is the right bias for a shedding hint).
        """
        with self._lock:
            inflight = self._inflight
        mean = self.metrics.mean_latency(kind) or 0.05
        return max(0.05, mean * (inflight / max(self.workers, 1)))

    def submit(self, req: Request) -> RequestHandle:
        """Admit one request record and return its handle — the one
        way in: ``submit_solve`` / ``submit_logdet`` build the record
        themselves, a fleet shard receives it ready-made (id and
        deadline stamped by the front door) and passes it here."""
        if req.handle is None:
            req.handle = RequestHandle(req.request_id, req.kind)
        key = req.batch_key  # hashes the spec on first use: not under the lock
        refused = None
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed")
            if self._draining:
                refused = "draining"
            elif (
                self.max_inflight is not None
                and self._inflight >= self.max_inflight
            ):
                refused = "inflight"
            elif len(self._pending) >= self.backlog:
                refused = "backlog"
            else:
                self._inflight += 1
                self._pending.add(key, req)
                self._work.notify()
        # metrics and retry_after take locks of their own: outside ours
        if refused == "draining":
            self.metrics.count("rejected_draining")
            raise ServiceDrainingError(
                "service is draining and admits no new work"
            )
        if refused == "inflight":
            self.metrics.count("shed_admission")
            raise ServiceOverloadedError(
                f"{self.max_inflight} requests already in flight "
                f"(max_inflight cap)",
                retry_after=self._retry_after(req.kind),
            )
        if refused == "backlog":
            self.metrics.count("rejected_backlog")
            raise BacklogFullError(
                f"backlog full ({self.backlog} requests pending)",
                retry_after=self._retry_after(req.kind),
            )
        self.metrics.count("submitted")
        return req.handle

    # ------------------------------------------------------------------
    # completion (the only paths that settle a handle)
    # ------------------------------------------------------------------

    def _settle(self) -> None:
        """Release the request's admission slot.  Called *before* its
        handle is set, so a closed-loop client woken by the result
        never finds its own finished request still counted against
        ``max_inflight``."""
        with self._lock:
            self._inflight -= 1
            if self._draining and self._inflight == 0:
                self._work.notify_all()  # wakes drain()

    # Metrics first, handle last: whoever sees the outcome (a client, a
    # shard's reply racing a drain's counter snapshot) finds it counted.

    def _complete(self, req: Request, value) -> None:
        if req.deadline is not None:
            self.metrics.record_slack(
                req.kind, req.deadline - time.monotonic()
            )
        self._settle()
        req.handle.set_result(value)

    def _fail(self, req: Request, exc: BaseException, counter: str = "failed") -> None:
        self.metrics.count(counter)
        self._settle()
        req.handle.set_exception(exc)

    def _expire(self, req: Request, stage: str) -> None:
        """Shed one expired request, tagged with the pipeline stage
        that caught it (``shed_<stage>`` counter) — the shed-location
        histogram is how overload tests prove deadlines propagate
        instead of being checked once and discarded."""
        self.metrics.count(f"shed_{stage}")
        self._fail(
            req,
            DeadlineExpiredError(f"request {req.request_id} deadline passed"),
            counter="expired",
        )

    # ------------------------------------------------------------------
    # execution (worker threads)
    # ------------------------------------------------------------------

    def _work_loop(self, lane: int) -> None:
        """One worker: take a batch whenever one is pending, until the
        service is closed and the pool is empty."""
        while True:
            with self._lock:
                while not self._pending and not self._closed:
                    self._work.wait()
                if not self._pending:
                    return  # closed and drained
                # Deadline propagation into the pool: whatever expired
                # while pending is shed at this take, whichever group it
                # sits in, so it neither executes nor holds a backlog
                # slot against live requests.
                now = time.monotonic()
                dead = self._pending.prune(lambda r: r.expired(now))
                batch = self._pending.take()
            for req in dead:
                self._expire(req, stage="take")
            if batch:
                self._execute_batch(batch, 1 + lane)

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def _execute_batch(self, live: list[Request], worker: int) -> None:
        deadlines = [r.deadline for r in live if r.deadline is not None]
        batch_deadline = min(deadlines) if deadlines else None
        spec, entry = live[0].spec, None  # an occupancy names no operator
        try:
            if spec is not None:
                entry = self._acquire_entry(spec, worker, batch_deadline)
        except DeadlineExpiredError:
            # the build-retry loop refused to sleep past the batch
            # deadline; whoever actually expired is shed as expired,
            # stragglers with slack left are failed (their budget was
            # consumed by the build attempt)
            for req in live:
                if req.expired():
                    self._expire(req, stage="build")
                else:
                    self._fail(
                        req,
                        DeadlineExpiredError(
                            "batch deadline passed during factorization"
                        ),
                    )
            return
        except Exception as exc:  # typed service errors included
            for req in live:
                self._fail(req, exc)
            return
        # a cache-miss factorization can take longer than any request
        # deadline: re-check before spending BLAS time on dead work
        still = []
        for req in live:
            if req.expired():
                self._expire(req, stage="post_build")
            else:
                still.append(req)
        if not still:
            return
        try:
            self._run_kind(still, entry, worker)
        except Exception as exc:
            for req in still:
                self._fail(req, exc)

    def _acquire_entry(
        self,
        spec: OperatorSpec,
        worker: int,
        deadline: float | None = None,
    ) -> CacheEntry:
        """Cache lookup guarded by the operator's circuit breaker, with
        retry-with-backoff around cache-miss factorizations."""
        fp = spec.fingerprint
        try:
            self.breaker.allow(fp)
        except CircuitOpenError:
            self.metrics.count("breaker_fast_fail")
            raise
        try:
            entry = self._acquire_with_retry(spec, worker, deadline)
        except DeadlineExpiredError:
            # not an operator failure — don't charge the breaker
            raise
        except Exception:
            if self.breaker.record_failure(fp):
                self.metrics.count("breaker_opened")
                self.metrics.record_event(
                    "BREAKER_OPEN", (spec.n,), self._now(), self._now(),
                    worker=worker,
                )
            raise
        self.breaker.record_success(fp)
        return entry

    def _acquire_with_retry(
        self,
        spec: OperatorSpec,
        worker: int,
        deadline: float | None = None,
    ) -> CacheEntry:
        attempts = self.build_retries + 1
        fp = spec.fingerprint
        for attempt in range(attempts):
            t0 = self._now()
            try:
                entry, outcome = self.cache.acquire(spec)
            except Exception as exc:
                t1 = self._now()
                self.metrics.record_event(
                    "BUILD_FAILED", (spec.n, attempt + 1), t0, t1, worker=worker
                )
                if attempt + 1 >= attempts:
                    raise FactorizationFailedError(
                        spec.fingerprint, attempts, exc
                    ) from exc
                pause = self._backoff_pause(attempt)
                if deadline is not None and (
                    time.monotonic() + pause >= deadline
                ):
                    # sleeping would carry the batch past its deadline:
                    # give up now instead of burning a doomed rebuild
                    self.metrics.count("shed_build")
                    raise DeadlineExpiredError(
                        f"build retry for operator {fp[:12]} would "
                        "overrun the batch deadline"
                    ) from exc
                if not self.retry_budget.try_spend(fp):
                    # the operator's retry budget is dry: surface the
                    # failure instead of amplifying the outage
                    self.metrics.count("retry_budget_exhausted")
                    raise FactorizationFailedError(
                        spec.fingerprint, attempt + 1, exc
                    ) from exc
                self.metrics.count("build_retries")
                time.sleep(pause)
                continue
            t1 = self._now()
            if outcome != "hit":
                self.metrics.record_event(
                    "BUILD" if outcome == "build" else "DISK_LOAD",
                    (spec.n,),
                    t0,
                    t1,
                    worker=worker,
                )
            return entry
        raise AssertionError("unreachable")

    def _backoff_pause(self, attempt: int) -> float:
        """Full-jitter pause before build retry ``attempt + 1``.

        Drawn uniformly from ``[0, cap]`` where ``cap`` is the capped
        exponential ``build_backoff * 2**attempt``: retrying shards
        spread across the whole window instead of synchronizing on the
        exponential's discrete steps (the post-failover thundering-herd
        pattern this exists to break).
        """
        cap = min(self.build_backoff * 2.0**attempt, 10 * self.build_backoff)
        return self._backoff_rng.uniform(0.0, cap)

    def _condemn(self, entry: CacheEntry, kind: str) -> None:
        """A finite-input request produced non-finite numbers: the
        cached entry is corrupt.  Drop + quarantine it (next request
        rebuilds) and fail this one loudly — never serve the poison."""
        self.cache.invalidate(entry.fingerprint)
        self.metrics.count("corrupt_results")
        raise CorruptResultError(entry.fingerprint, kind)

    def _run_kind(
        self, live: list[Request], entry: CacheEntry | None, worker: int
    ) -> None:
        from repro.core.solver import _solve_columns, solve_cholesky
        from repro.linalg.matvec import refine_solve

        kind = live[0].kind
        t0 = self._now()
        if kind == "logdet":
            value = entry.logdet()
            if not np.isfinite(value):
                self._condemn(entry, kind)
            results = [value] * len(live)
            params: tuple[int, ...] = (len(live),)
        elif kind == "solve":
            columns = [r.rhs for r in live]
            if live[0].refine:
                block = columns[0] if len(live) == 1 else np.stack(columns, axis=1)
                x = refine_solve(entry.operator, entry.factor, block).x
            elif len(live) == 1:
                x = solve_cholesky(entry.factor, columns[0])
            else:  # one copy: the vectors go straight into the solve's buffer
                x = _solve_columns(entry.factor, columns)
            if not np.all(np.isfinite(x)):
                self._condemn(entry, kind)
            if len(live) == 1:
                results = [x]
            else:  # no copy: a column of an F-ordered answer is contiguous
                results = [np.ascontiguousarray(x[:, j]) for j in range(len(live))]
            ncols = 1 if x.ndim == 1 else x.shape[1]
            params = (len(live), ncols)
            self.metrics.record_batch(ncols)
        elif kind == "prewarm":
            # acquiring the entry was the work
            results = [entry.fingerprint] * len(live)
            params = (len(live),)
        elif kind == "occupy":
            time.sleep(live[0].seconds)
            results = [live[0].seconds]
            params = (1,)
        else:
            raise RequestFailedError(f"unknown request kind {kind!r}")
        t1 = self._now()
        self.metrics.record_event(
            kind.upper(), params, t0, t1, worker=worker
        )
        done_at = time.monotonic()
        self.metrics.count("completed", len(live))
        for req, res in zip(live, results):
            self.metrics.record_latency(kind, done_at - req.submitted_at)
            self._complete(req, res)
