"""repro.service — batched, cached serving of TLR solve requests.

The layer above :mod:`repro.core` that the ROADMAP's serving goal
needs: a factored operator is an asset to amortize over many requests
(H2OPUS-TLR's framing of TLR factorizations as reusable solvers), not
a per-call expense.  The subsystem provides

- :class:`OperatorSpec` — a full recipe for a servable operator with a
  content :attr:`~OperatorSpec.fingerprint` as cache key;
- :class:`OperatorCache` — byte-budgeted LRU residency of factored
  operators with write-through disk persistence;
- :class:`RequestBatcher` — the keyed pending pool: single-RHS solves
  that queued for one operator while the workers were busy are taken
  together as one blocked multi-RHS solve (no linger timer: nothing
  ready is held back to grow a batch);
- :class:`Request` / :class:`RequestHandle` — the one request record
  (what ``submit`` admits, and the frame a fleet sends its shards) and
  its handle, a :class:`concurrent.futures.Future`;
- :class:`SolveService` — bounded pending pool + worker threads that
  pull from it, with end-to-end deadline propagation, admission control
  (``max_inflight`` + ``Retry-After`` hints), typed overload
  rejection, build retry-with-backoff, graceful ``drain()``, and input
  validation at the edge;
- :class:`CircuitBreaker` — per-operator shedding of repeatedly
  failing factorizations, with half-open recovery probes;
- :class:`RetryBudget` — per-operator token bucket keeping build
  retries from amplifying an outage;
- :class:`ServiceMetrics` — latency percentiles, hit rates, batch
  shapes, Chrome-trace export via :mod:`repro.runtime.tracing`;
- :class:`FleetService` — N supervised shard processes, each a
  ``SolveService`` behind a pipe, under a consistent-hash front door
  (:class:`FleetRouter`), with heartbeat liveness
  (:class:`~repro.runtime.supervisor.ProcessSupervisor`), failover
  replay of in-flight requests, and warm respawn from the shared
  sealed cache.
"""

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
    ServiceError,
    ServiceOverloadedError,
    ShardFailedError,
    ShardUnavailableError,
    reconstruct_error,
)
from repro.service.fleet import FleetService, ShardStatus
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.router import ConsistentHashRing, FleetRouter, RouteDecision
from repro.service.server import Request, RequestHandle, SolveService
from repro.service.spec import KERNELS, BuiltOperator, OperatorSpec

__all__ = [
    "OperatorSpec",
    "BuiltOperator",
    "KERNELS",
    "OperatorCache",
    "CacheEntry",
    "RequestBatcher",
    "SolveService",
    "Request",
    "RequestHandle",
    "ServiceMetrics",
    "percentile",
    "CircuitBreaker",
    "RetryBudget",
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
    "FleetService",
    "ShardStatus",
    "ConsistentHashRing",
    "FleetRouter",
    "RouteDecision",
]
