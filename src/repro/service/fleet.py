"""Sharded serving fleet: failover routing, replay, warm respawn.

The single-process :class:`~repro.service.server.SolveService` heals
its kernels (retry/rollback), its workers (supervised respawn) and its
disk entries (quarantine), but the process itself is one failure
domain: a SIGKILL loses every cached operator and in-flight request.
:class:`FleetService` removes that last single point of loss by
running **N shard processes**, each a full ``SolveService`` with its
own cache, worker pool and circuit breakers, behind a front-door
router:

* **routing** — operator fingerprints are consistent-hash-routed
  (:class:`~repro.service.router.FleetRouter`) so a shard owns a
  stable arc of the operator space and its cache stays hot for it;
* **supervision** — a
  :class:`~repro.runtime.supervisor.ProcessSupervisor`, armed by every
  heartbeat, watches exit codes, SIGKILLs silent shards, and meters
  respawns;
* **failover replay** — the dead shard's in-flight requests are
  re-sent (same request id) to the surviving owner of each key,
  honoring the original end-to-end deadlines.  Request ids dedup late
  results: the first completion wins, and a duplicate *answer* for a
  replayed solve is checked bitwise against the winner — a successor
  must agree with the shard it replaced, by construction of the
  deterministic build (`OperatorSpec.build` is bitwise reproducible);
* **warm respawn** — the shards share one disk cache of sealed
  entries (one content-addressed file per operator, written through
  atomically before it is served and verified on reload), so whichever
  shard inherits a dead shard's arc, and the respawned shard itself,
  reloads factors instead of rebuilding.  Graceful leave runs the
  drain protocol (stop admissions, flush, seal) and returns the
  shard's final counters.

What is *not* carried over: a respawned shard starts with fresh
circuit breakers and retry budgets, so a known-bad operator costs at
most ``failure_threshold * (1 + build_retries)`` failed builds before
its breaker opens again.  The shard-kill probe
(``tools/fleet_chaos.py``) measures that bound, and no servable
request lost or late for it (DESIGN.md, "serving fleet").

Process topology (children of :mod:`repro.runtime.transport`)::

    FleetService (front door: client threads, one writer thread per
      │           shard, one collector, one monitor)
      ├── request pipe ──>  shard-0: main thread -- submit() --> SolveService
      │     result pipe <────────── its ``workers`` lanes (done-callbacks)
      │     heartbeat pipe <─────── beat thread
      ├── request pipe ──>  shard-1: ...
      │     ...

A shard *is* a ``SolveService`` behind a pipe: what crosses is the
service's own :class:`~repro.service.server.Request` record, stamped
by the front door with its request id and absolute deadline and passed
unchanged to :meth:`SolveService.submit`; the reply is posted by the
handle's done-callback, on the lane that settled it.  Prewarms and
occupancies are request kinds, so they meet the same breaker, retry
budget and deadline checks as a cold solve.  The front door keeps one
table of outstanding requests: one routed by key is *replayable* (its
shard's death re-sends it to the key's next owner), one addressed to a
shard (prewarm, drain) is *pinned*, and the same failover code fails
it with :class:`ShardFailedError`.

Heartbeats keep a pipe of their own: a front door busy draining a
large result must not read as a silent shard.

The hash ring rebalances only the failed shard's arc: every other
fingerprint keeps its shard, so a failure never causes fleet-wide
cache churn.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import queue
import signal
import tempfile
import threading
import time
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from repro.runtime import transport
from repro.runtime.supervisor import ProcessFailure, ProcessSupervisor
from repro.service.cache import OperatorCache
from repro.service.errors import (
    DeadlineExpiredError,
    ServiceClosedError,
    ShardFailedError,
    ShardUnavailableError,
    reconstruct_error,
)
from repro.service.metrics import ServiceMetrics
from repro.service.router import ConsistentHashRing, FleetRouter
from repro.service.server import (
    Request,
    RequestHandle,
    SolveService,
    deadline_after,
)
from repro.service.spec import OperatorSpec

__all__ = ["FleetService", "ShardStatus"]

#: a shard silent for this many heartbeat intervals is SIGKILLed
HEARTBEAT_TIMEOUT_BEATS = 10
#: sends per replayable request before failover gives up on it
MAX_REPLAYS = 3
#: the failover counters ``FleetService.report`` carries, in its key order
_REPORTED_COUNTERS = (
    "failovers", "requests_replayed", "stale_results",
    "replay_verified_identical", "replay_verified_close", "replay_mismatch",
)


def _set_process_title(title: str) -> None:
    """Best-effort ``PR_SET_NAME`` so chaos jobs can ``pgrep`` shards
    (comm is capped at 15 chars; failure is harmless)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(15, title.encode()[:15], 0, 0, 0)  # PR_SET_NAME = 15
    except Exception:  # pragma: no cover - non-Linux / no libc
        pass


# ----------------------------------------------------------------------
# shard child process
# ----------------------------------------------------------------------


def _shard_main(
    name: str,
    epoch: int,
    config: dict,
    req_conn,
    res_conn,
    beat_conn,
) -> None:
    """One shard: a full SolveService behind a request pipe.

    Threads: this one (reads frames, submits), the beat thread, and
    the service's ``workers`` lanes — which also post the replies, from
    each handle's done-callback, sharing the result pipe under an
    in-process lock (a SIGKILL can never orphan a lock any *other*
    shard depends on).  Replies are tagged ``(name, epoch, request
    id)`` so the front door can dedup late results from a previous
    life of this shard name.
    """
    _set_process_title(f"tlr-{name}")
    cache = OperatorCache(**config["cache"])
    svc = SolveService(cache=cache, **config["service"])
    res_lock = threading.Lock()

    def _post(msg: tuple) -> None:
        with suppress(OSError), res_lock:  # OSError: parent is gone
            res_conn.send(msg)

    def _reply(handle: RequestHandle) -> None:
        exc = handle.exception()
        if exc is None:
            _post(("ok", name, epoch, handle.request_id, handle.result()))
        else:  # by name and text: errors.reconstruct_error rebuilds it
            error = (type(exc).__name__, str(exc))
            _post(("err", name, epoch, handle.request_id, *error))

    info = {"disk_entries": len(cache.disk_fingerprints())}
    _post(("ready", name, epoch, os.getpid(), info))

    stop = threading.Event()

    def _beat_loop() -> None:
        last_seal = time.monotonic()
        while not stop.is_set():
            try:
                beat_conn.send(
                    {
                        "inflight": svc.inflight,
                        "entries": len(cache),
                        "completed": svc.metrics.counter("completed"),
                    }
                )
            except OSError:  # parent is gone
                stop.set()
                return
            now = time.monotonic()
            if now - last_seal >= config["checkpoint_interval"]:
                # periodic durability flush: retry the write-throughs
                # that failed since the last interval
                with suppress(OSError):  # disk trouble
                    cache.seal()
                last_seal = now
            stop.wait(config["heartbeat_interval"])

    beater = threading.Thread(target=_beat_loop, name=f"{name}-beat", daemon=True)
    beater.start()

    try:
        # frames are Request records, until the ("stop",) sentinel or
        # the front door's death (EOF)
        for req in transport.frames(req_conn):
            if req == ("stop",):
                break
            if req.kind == "drain":
                summary = svc.drain()
                summary["counters"] = dict(svc.metrics.to_dict()["counters"])
                summary["cache"] = cache.stats()
                _post(("ok", name, epoch, req.request_id, summary))
                break
            try:
                handle = svc.submit(req)
            except Exception as exc:  # refused at admission
                handle = RequestHandle(req.request_id, req.kind)
                handle.set_exception(exc)
            handle.add_done_callback(_reply)
    finally:
        stop.set()
        # graceful exits complete accepted work: each lane posts its
        # replies before close() joins it (after a drain none is left)
        svc.close()
        beater.join(timeout=2.0)


# ----------------------------------------------------------------------
# front door
# ----------------------------------------------------------------------


@dataclass
class _Pending:
    """Routing state around one outstanding request, until its handle
    settles.  The record itself (kind, spec, rhs, id, deadline) is the
    :class:`Request` the shard receives."""

    request: Request
    handle: RequestHandle
    #: what the ring routes (and re-routes) on; None pins the request
    #: to the one shard that can answer it
    route_key: str | None
    #: the shard (this life of it) the latest dispatch targeted, so a
    #: stale writer-thread failure can tell whether the request has
    #: already been re-homed
    home: _ShardHandle | None = None
    attempts: int = 0  # successful sends: more than one = replayed
    #: its shard is gone (or never took it): the monitor re-homes it
    parked: bool = False


@dataclass
class _ShardHandle:
    name: str
    epoch: int
    #: the shard process and its pipes: requests down, results on
    #: reply channel 0, heartbeats on reply channel 1
    child: transport.Child
    #: outbound request queue drained by this shard's writer thread —
    #: the only thread that sends on the request pipe, so a full pipe
    #: to a hung shard can never block the monitor or a client thread
    out_q: queue.Queue = field(default_factory=queue.Queue)
    writer: threading.Thread | None = None
    state: str = "starting"  # starting | live | dead | removed
    last_beat: dict | None = None
    #: when the life this one replaces was found dead (None = a join)
    respawn_t0: float | None = None


@dataclass(frozen=True)
class ShardStatus:
    """One shard's externally visible condition (``FleetService.status``)."""

    name: str
    state: str
    pid: int | None
    epoch: int
    inflight: int
    cache_entries: int
    completed: int


class FleetService:
    """Front door over N supervised shard processes.

    Mirrors the :class:`SolveService` client API (``submit_solve`` /
    ``submit_logdet`` returning handles) so callers migrate by
    swapping the constructor; everything fleet-specific (join/leave,
    chaos hooks, shard status) is additive.

    Parameters
    ----------
    shards:
        Initial shard process count.
    cache_dir:
        Shared sealed-cache directory, which warm respawns reload from.
        ``None`` creates a private temporary directory for the fleet's
        lifetime — respawns still start warm, persistence across
        fleets doesn't.
    workers_per_shard, backlog, max_batch, max_inflight, factor_workers:
        Forwarded to each shard's ``SolveService``.
    byte_budget:
        Per-shard resident-bytes LRU budget (None = unbounded).
    heartbeat_interval:
        Shard beat cadence; a shard silent for
        :data:`HEARTBEAT_TIMEOUT_BEATS` intervals is SIGKILLed.
    checkpoint_interval:
        Seconds between periodic cache seals inside each shard.  Every
        build is written through before it is served, so a seal only
        retries write-throughs that failed; the interval is also the
        bound the respawn-to-ready time is tested against.
    max_respawns:
        Fleet-lifetime shard respawn budget (default ``2*shards + 2``).
    start:
        Spawn shards and block until all are serving.  ``False`` for
        tests that stage the fleet manually (call :meth:`start`).
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        cache_dir=None,
        workers_per_shard: int = 2,
        backlog: int = 256,
        max_batch: int = 32,
        max_inflight: int | None = None,
        factor_workers: int | None = None,
        byte_budget: int | None = None,
        heartbeat_interval: float = 0.1,
        checkpoint_interval: float = 5.0,
        max_respawns: int | None = None,
        metrics: ServiceMetrics | None = None,
        start: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if heartbeat_interval <= 0.0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if max_respawns is None:
            max_respawns = 2 * shards + 2
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.checkpoint_interval = float(checkpoint_interval)
        self._tmpdir = None
        if cache_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="tlr-fleet-")
            cache_dir = self._tmpdir.name
        #: what a shard is built from: its cache's and its service's
        #: constructor arguments, and its two cadences
        self._config = {
            "cache": {"directory": str(cache_dir), "byte_budget": byte_budget},
            "service": {
                "workers": int(workers_per_shard),
                "backlog": int(backlog),
                "max_batch": int(max_batch),
                "max_inflight": max_inflight,
                "factor_workers": factor_workers,
            },
            "heartbeat_interval": float(heartbeat_interval),
            "checkpoint_interval": float(checkpoint_interval),
        }
        self._ctx = multiprocessing.get_context("fork")
        self._router = FleetRouter(ConsistentHashRing())
        self.supervisor = ProcessSupervisor(
            max_respawns=max_respawns,
            timeout=HEARTBEAT_TIMEOUT_BEATS * heartbeat_interval,
        )
        self._beats_seen = 0
        self._lock = threading.Lock()
        #: notified whenever a shard changes state or joins ``_children``
        #: (and at close): what ``wait_ready``, ``add_shard`` and an
        #: idle collector wait on
        self._changed = threading.Condition(self._lock)
        #: held while re-homing requests (``_replay``), never under ``_lock``
        self._rehoming = threading.Lock()
        self._shards: dict[str, _ShardHandle] = {}
        #: every outstanding request, replayable or pinned, by id
        self._pending: dict[int, _Pending] = {}
        #: results of replayed requests retained for dedup verification
        self._replay_results: OrderedDict[int, object] = OrderedDict()
        #: every shard process ever spawned: a dead one stays so the
        #: replies it raced out still drain, and all are torn down
        #: (and their pipes closed) together in close()
        self._children: list[transport.Child] = []
        self._respawns: list[dict] = []
        self._req_ids = itertools.count(1)
        self._shard_index = itertools.count(0)
        self._closed = False
        self._started = False
        self._n_initial = int(shards)
        self._collecting = True
        self._monitor_stop = threading.Event()
        self._collector = threading.Thread(
            target=self._collect_loop, name="tlr-fleet-collect", daemon=True
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="tlr-fleet-monitor", daemon=True
        )
        if start:
            self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self, timeout: float = 120.0) -> None:
        """Spawn the initial shards and wait until all are serving."""
        with self._lock:
            if self._started:
                return
            self._started = True
        for _ in range(self._n_initial):
            self.add_shard(wait=False)
        # after the spawns: the collector's first wait set holds them all
        self._collector.start()
        self._monitor.start()
        self.wait_ready(timeout=timeout)

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until every non-dead shard reports ready."""

        def settled() -> bool:
            states = {h.state for h in self._shards.values()}
            return "live" in states and "starting" not in states

        with self._changed:
            if not self._changed.wait_for(settled, timeout):
                raise ShardUnavailableError(
                    f"fleet failed to become ready within {timeout} s"
                )

    def close(self) -> None:
        """Stop every shard (completing accepted work) and shut down."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Stop the monitor BEFORE asking shards to exit: a shard that
        # exits cleanly on "stop" must not be mistaken for a failure
        # and respawned behind our back (the replacement would miss
        # the stop round and leak past close).  Snapshot the handles
        # only after the monitor is down, so no respawn can slip in
        # between the snapshot and the stop round.
        self._monitor_stop.set()
        if self._monitor.is_alive():
            self._monitor.join(timeout=5.0)
        with self._lock:
            handles = list(self._shards.values())
        # The stop rides each writer's queue, behind the requests
        # already accepted; the writer then retires, so that nothing
        # else sends once transport.stop repeats the stop directly
        # (for a shard whose writer could not deliver it).
        for h in handles:
            h.out_q.put(("stop",))
            h.out_q.put(None)
        # The collector goes too (promptly: the exiting shards' EOFs
        # wake it): from here on transport.stop is the one reader of
        # the result pipes, and hands what the shards still finish to
        # the same dispatch.
        with self._changed:
            self._collecting = False
            self._changed.notify_all()
        if self._collector.is_alive():
            self._collector.join(timeout=5.0)
        deadline = time.monotonic() + 2.0
        for h in handles:
            h.writer.join(timeout=max(0.0, deadline - time.monotonic()))
        transport.stop(
            self._children, ("stop",), 10.0, on_frame=self._dispatch_result
        )
        exc = ServiceClosedError("fleet closed")
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for p in pending:
            p.handle.set_exception(exc)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # shard membership
    # ------------------------------------------------------------------

    def add_shard(self, wait: bool = True, timeout: float = 120.0) -> str:
        """Join a new shard (graceful scale-up).  Its arc becomes live
        — stealing keys only from ring neighbors — once it reports
        ready; returns the shard name."""
        name = f"shard-{next(self._shard_index)}"
        self._spawn(name, epoch=0)
        if wait:
            with self._changed:
                self._changed.wait_for(
                    lambda: self._shards[name].state != "starting", timeout
                )
                if self._shards[name].state != "live":
                    raise ShardUnavailableError(f"{name} failed to become ready")
        return name

    def remove_shard(self, name: str, timeout: float = 60.0) -> dict:
        """Gracefully drain and retire one shard.

        The shard's arc is rebalanced to its ring successors *first*
        (no new traffic), then the drain protocol runs inside the
        shard: stop admissions, flush in-flight work, seal the cache.
        The returned drain summary carries the shard's final counters.
        """
        with self._lock:
            h = self._shards.get(name)
            if h is None or h.state != "live":
                raise ShardUnavailableError(f"{name} is not a live shard")
        self._router.remove_node(name)
        ctrl = self._pin(name, self._request("drain", None))
        if ctrl is None:
            raise ShardUnavailableError(f"{name} is not a live shard")
        summary = ctrl.result(timeout=timeout)
        self.supervisor.detach(name)
        h.out_q.put(None)  # drain delivered: retire the writer
        h.child.process.join(timeout=10.0)
        if h.child.process.exitcode is None:  # pragma: no cover - wedged drain
            self.supervisor.kill(h.child.process)
        with self._changed:
            h.state = "removed"
            self._changed.notify_all()
        self.metrics.count("shards_removed")
        self.metrics.merge_counters(summary.get("counters", {}), prefix="shard_")
        return summary

    def kill_shard(self, shard: str | int) -> int:
        """Chaos hook: SIGKILL one shard process, returning its pid.
        The supervisor detects the death and runs the failover path —
        this is exactly the benchmark's mid-run shard loss."""
        name = shard if isinstance(shard, str) else f"shard-{shard}"
        with self._lock:
            h = self._shards.get(name)
            if h is None or h.state not in ("starting", "live"):
                raise ShardUnavailableError(f"{name} is not a live shard")
            pid = h.child.pid
        os.kill(pid, signal.SIGKILL)
        self.metrics.count("shards_killed")
        return pid

    def _spawn(self, name: str, epoch: int, respawn_t0: float | None = None) -> None:
        child = transport.spawn(
            self._ctx,
            _shard_main,
            (name, epoch, self._config),
            f"tlr-{name}",
            up=2,
        )
        handle = _ShardHandle(name, epoch, child, respawn_t0=respawn_t0)
        handle.writer = threading.Thread(
            target=self._writer_loop,
            args=(handle,),
            name=f"tlr-{name}-send",
            daemon=True,
        )
        handle.writer.start()
        with self._changed:
            self._shards[name] = handle
            self._children.append(child)
            self._changed.notify_all()
        self.supervisor.attach(name, child.process)
        # the grace period: fork and cache recovery legitimately
        # precede the first beat, so it has one full timeout to arrive
        self.supervisor.arm(name)

    def _writer_loop(self, h: _ShardHandle) -> None:
        """Sole sender on one shard's request pipe.

        Decoupling pipe writes from the monitor and client threads
        means a hung shard whose pipe buffer fills can only wedge its
        own writer; heartbeat-staleness detection stays live on the
        monitor thread, and the SIGKILL it delivers closes the pipe's
        read end — the blocked send raises EPIPE, unblocking the
        writer, which then fails the queued work over to the failover
        path by parking it.  After the first broken send the writer
        keeps consuming (parking every request) until its ``None``
        sentinel, so one enqueued after the break is never silently
        dropped.  Items are tracked requests, or close()'s bare stop.
        """
        broken = False
        for item in iter(h.out_q.get, None):
            tracked = isinstance(item, _Pending)
            if not broken:
                broken = not h.child.send(item.request if tracked else item)
            if broken and tracked:
                with self._lock:
                    # unless the shard-failure path re-homed it first
                    item.parked = item.parked or item.home is h

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
        """Queue ``A x = rhs`` on the shard owning ``spec``.

        Validation happens at the front door (malformed requests never
        cross a process boundary); the deadline is stamped here and
        honored at every stage on the shard, exactly as in the
        single-process service.
        """
        rhs = SolveService._validate_rhs(spec, rhs)
        req = self._request("solve", timeout, spec, rhs=rhs, refine=refine)
        return self._submit(req, spec.fingerprint)

    def submit_logdet(
        self, spec: OperatorSpec, timeout: float | None = None
    ) -> RequestHandle:
        """Queue a ``log det A`` request on the shard owning ``spec``."""
        return self._submit(self._request("logdet", timeout, spec), spec.fingerprint)

    def submit_occupancy(
        self, route_key: str, seconds: float, timeout: float | None = None
    ) -> RequestHandle:
        """Queue a calibrated lane-occupancy request (no numerics).

        Holds one of the owning shard's ``workers`` lanes for
        ``seconds`` — the fleet analog of the parallel engines'
        replayed-DAG mode: it exercises the full dispatch path
        (routing, pipes, dedup, failover) with a known service time,
        isolating front-door capacity from BLAS throughput.
        ``seconds`` must be finite and >= 0: refused here, not in the
        shard's lane.
        """
        if not (math.isfinite(seconds) and seconds >= 0.0):
            raise ValueError(f"seconds must be finite and >= 0, got {seconds}")
        req = self._request("occupy", timeout, seconds=float(seconds))
        return self._submit(req, str(route_key))

    def prewarm(self, spec: OperatorSpec) -> RequestHandle:
        """Build/load ``spec`` on its primary shard now: the admin's way
        of staging an operator before a traffic cutover.  The request
        is pinned to that shard; its death fails the handle with
        :class:`ShardFailedError`."""
        decision = self._router.route(spec.fingerprint)
        if decision is not None:
            handle = self._pin(decision.primary, self._request("prewarm", None, spec))
            if handle is not None:
                return handle
        raise ShardUnavailableError("no live shard to prewarm on")

    # ------------------------------------------------------------------
    # submission internals
    # ------------------------------------------------------------------

    def _request(
        self, kind: str, timeout: float | None, spec=None, **fields
    ) -> Request:
        """The record a shard will execute, stamped here — and only
        here — with the fleet's request id and absolute deadline."""
        return Request(
            kind,
            spec,
            deadline=deadline_after(timeout),
            request_id=next(self._req_ids),
            **fields,
        )

    def _track(self, req: Request, route_key: str | None) -> _Pending:
        p = _Pending(req, RequestHandle(req.request_id, req.kind), route_key)
        with self._lock:
            if self._closed:  # nothing tracked from here on would settle
                raise ServiceClosedError("fleet is closed")
            self._pending[req.request_id] = p
        return p

    def _submit(self, req: Request, route_key: str) -> RequestHandle:
        decision = self._router.route(route_key)
        if decision is None:
            self.metrics.count("rejected_no_shard")
            raise ShardUnavailableError("no live shard to route to")
        p = self._track(req, route_key)
        self.metrics.count("submitted")
        if not self._dispatch(p, decision.primary):
            # the primary died between routing and send: the monitor
            # reroutes it as soon as the supervisor turns over
            p.parked = True
        return p.handle

    def _pin(self, shard: str, req: Request) -> RequestHandle | None:
        """Send ``req`` to ``shard`` and nowhere else; None if the
        shard is not accepting work.  It is tracked like any request,
        so the shard's death settles the handle with
        :class:`ShardFailedError` instead of leaking it."""
        p = self._track(req, None)
        if self._dispatch(p, shard):
            return p.handle
        with self._lock:
            self._pending.pop(req.request_id, None)
        return None

    def _dispatch(self, p: _Pending, shard: str) -> bool:
        """Queue ``p`` for ``shard``'s writer; False if the shard is
        not accepting work.  The pipe write itself happens on the
        shard's writer thread, so this never blocks: a broken pipe
        surfaces asynchronously, by the writer parking the request for
        the monitor to re-home."""
        with self._lock:
            h = self._shards.get(shard)
            if h is None or h.state not in ("starting", "live"):
                return False
            p.home, p.parked = h, False
            p.attempts += 1
        h.out_q.put(p)
        return True

    # ------------------------------------------------------------------
    # result collection
    # ------------------------------------------------------------------

    def _collect_loop(self) -> None:
        # Sole reader of every result pipe, live shards' and dead
        # shards' alike, until close() hands them to transport.stop.
        while True:
            with self._changed:
                self._changed.wait_for(
                    lambda: not self._collecting
                    or any(c.ups[0] is not None for c in self._children)
                )
                if not self._collecting:
                    return
                children = list(self._children)
            # bounded, so that a shard spawned meanwhile joins the set
            for _, msg in transport.recv_ready(children, 0.2):
                self._dispatch_result(msg)

    def _dispatch_result(self, msg: tuple) -> None:
        tag = msg[0]
        if tag == "ready":
            self._on_ready(*msg[1:])
        elif tag in ("ok", "err"):
            self._on_result(msg)

    def _on_ready(self, name: str, epoch: int, pid: int, info: dict) -> None:
        with self._changed:
            h = self._shards.get(name)
            if h is None or h.epoch != epoch or h.state != "starting":
                return  # a stale life of this name
            h.state = "live"
            self._changed.notify_all()
        self._router.add_node(name)
        if h.respawn_t0 is not None:
            self._respawns.append(
                {
                    "shard": name,
                    "epoch": epoch,
                    "respawn_seconds": time.monotonic() - h.respawn_t0,
                    "warm_disk_entries": info["disk_entries"],
                }
            )
        self._flush_park()

    def _on_result(self, msg: tuple) -> None:
        tag, shard, epoch, req_id = msg[:4]
        with self._lock:
            p = self._pending.pop(req_id, None)
        if p is None:
            self._on_duplicate(req_id, tag, msg)
            return
        # pinned requests are fleet housekeeping, not client traffic:
        # they stay out of the counters and histograms
        req, client = p.request, p.route_key is not None
        if tag == "err":
            err = reconstruct_error(msg[4], msg[5])
            p.handle.set_exception(err)
            if client:
                self.metrics.count(
                    "expired" if isinstance(err, DeadlineExpiredError) else "failed"
                )
            return
        p.handle.set_result(msg[4])
        if not client:
            return
        now = time.monotonic()
        self.metrics.count("completed")
        self.metrics.record_latency(req.kind, now - req.submitted_at)
        if req.deadline is not None:
            self.metrics.record_slack(req.kind, req.deadline - now)
        if p.attempts > 1:
            # retain for the dedup-verify check if the first life's
            # answer is still in flight somewhere; remember whether
            # this request ran the deterministic solo path
            # (bitwise-comparable) or a coalescible one
            with self._lock:
                self._replay_results[req_id] = (msg[4], req.batch_key is None)
                while len(self._replay_results) > 256:
                    self._replay_results.popitem(last=False)

    def _on_duplicate(self, req_id: int, tag: str, msg: tuple) -> None:
        """A result for an already-settled request id: the dead shard's
        answer raced the replay's.  First completion won; the loser is
        dropped — but if both are *answers*, they must agree.  Requests
        on the deterministic solo path (2-D solves, logdet, occupancy)
        must agree *bitwise* — same fingerprint, same deterministic
        build, same RHS.  Coalescible 1-D solves may legitimately
        differ in last-bit rounding (the replay lands in a different
        batch, and blocked BLAS solves round per column count), so they
        are held to numerical equality instead.  A genuine disagreement
        is counted loudly as a correctness alarm."""
        self.metrics.count("stale_results")
        if tag != "ok":
            return
        with self._lock:
            kept = self._replay_results.get(req_id)
        if kept is None:
            return
        kept_value, solo = kept
        a, b = np.asarray(kept_value), np.asarray(msg[4])
        if np.array_equal(a, b):
            self.metrics.count("replay_verified_identical")
        elif not solo and a.shape == b.shape and np.allclose(
            a, b, rtol=1e-9, atol=0.0
        ):
            self.metrics.count("replay_verified_close")
        else:
            self.metrics.count("replay_mismatch")

    # ------------------------------------------------------------------
    # supervision and failover
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        # Runs against its own stop event so close() can retire the
        # monitor BEFORE stopping shards: otherwise a clean exit
        # during shutdown reads as a failure and gets respawned.
        interval = self._config["heartbeat_interval"] / 2.0
        while not self._monitor_stop.wait(interval):
            self._drain_beats()
            for failure in self.supervisor.poll():
                self._on_shard_failure(failure)
            self._flush_park()

    def _drain_beats(self) -> None:
        with self._lock:
            beating = {
                h.child: h
                for h in self._shards.values()
                if h.state in ("starting", "live")
            }
        # a dead shard's beat pipe just retires here; its death shows
        # up in the exit-code poll
        for child, payload in transport.recv_ready(beating, 0, channel=1):
            beating[child].last_beat = payload
            self._beats_seen += 1
            self.supervisor.arm(beating[child].name)

    def _on_shard_failure(self, failure: ProcessFailure) -> None:
        shard = failure.key
        with self._changed:
            if self._closed:
                return  # close() owns shutdown; exits are not failures
            h = self._shards.get(shard)
            if h is None or h.state in ("dead", "removed"):
                return
            # A respawn is about to replace this handle; replies the
            # dying shard raced out still drain from ``_children``
            # through the normal dedup-verify path.
            h.state = "dead"
            self._changed.notify_all()
            victims = [p for p in self._pending.values() if p.home is h]
            for p in victims:
                p.parked = True  # for the flush below: the one re-homing path
        self.metrics.count("shard_failures")
        if failure.hung:
            self.metrics.count("shards_hung_killed")
        # rebalance ONLY the dead shard's arc: every other fingerprint
        # keeps its shard (the consistent-hashing contract)
        self._router.remove_node(shard)
        if any(p.route_key is not None for p in victims):
            self.metrics.count("failovers")
        self._flush_park()
        # Retire the dead handle's writer once its backlog drains;
        # it parks nothing the flush above already re-homed.
        h.out_q.put(None)
        if self.supervisor.can_respawn():
            self.supervisor.record_respawn()
            # warm out of a crash: the sealed shared cache restores the
            # factors
            self._spawn(shard, epoch=h.epoch + 1, respawn_t0=time.monotonic())
            self.metrics.count("shards_respawned")
        else:
            self.metrics.count("respawn_budget_exhausted")

    def _give_up(self, p: _Pending, exc: BaseException, *counters: str) -> None:
        with self._lock:
            self._pending.pop(p.request.request_id, None)
        p.handle.set_exception(exc)
        for name in counters:
            self.metrics.count(name)

    def _replay(self, p: _Pending) -> None:
        """Re-home one outstanding request whose shard died — or, if it
        was pinned to that shard, fail it: no other can answer."""
        if p.handle.done():
            return
        req = p.request
        if p.route_key is None:
            self._give_up(
                p,
                ShardFailedError(
                    f"{req.kind} request {req.request_id} lost {p.home.name}"
                ),
            )
            return
        if req.expired():
            self._give_up(
                p,
                DeadlineExpiredError(
                    f"request {req.request_id} expired during failover"
                ),
                "expired",
                "shed_failover",
            )
            return
        if p.attempts >= MAX_REPLAYS:
            self._give_up(
                p,
                ShardFailedError(
                    f"request {req.request_id} lost {p.attempts} shard(s); "
                    "replay attempts exhausted"
                ),
                "failed",
            )
            return
        decision = self._router.route(p.route_key)
        if decision is not None:
            if self._dispatch(p, decision.primary):
                self.metrics.count("requests_replayed")
            else:
                p.parked = True
            return
        # Park only while recovery is possible: a shard is coming up,
        # or the respawn budget could still produce one.  With an empty
        # ring and no replacement ever coming, re-parking would strand
        # a no-deadline caller forever — settle the handle instead.
        with self._lock:
            recovering = any(
                s.state in ("starting", "live") for s in self._shards.values()
            )
        if recovering or self.supervisor.can_respawn():
            p.parked = True
            return
        self._give_up(
            p,
            ShardUnavailableError(
                f"request {req.request_id}: no live shard and the "
                "respawn budget is exhausted"
            ),
            "failed",
            "shed_no_shard",
        )

    def _flush_park(self) -> None:
        # one thread re-homes at a time: the monitor and the collector both flush
        with self._rehoming:
            with self._lock:
                parked = [p for p in self._pending.values() if p.parked]
            for p in parked:
                self._replay(p)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def live_shards(self) -> list[str]:
        with self._lock:
            return sorted(
                n for n, h in self._shards.items() if h.state == "live"
            )

    def status(self) -> list[ShardStatus]:
        """Per-shard condition from the latest heartbeats."""
        with self._lock:
            shards = [(h, h.last_beat or {}) for _, h in sorted(self._shards.items())]
        return [
            ShardStatus(
                name=h.name,
                state=h.state,
                pid=h.child.pid,
                epoch=h.epoch,
                inflight=int(beat.get("inflight", 0)),
                cache_entries=int(beat.get("entries", 0)),
                completed=int(beat.get("completed", 0)),
            )
            for h, beat in shards
        ]

    def report(self) -> dict:
        """Fleet-level robustness accounting (benchmark evidence)."""
        counters = self.metrics.to_dict()["counters"]
        return {
            "supervisor": {
                **self.supervisor.report(),
                "beats_seen": self._beats_seen,
            },
            "respawns": list(self._respawns),
            **{name: counters.get(name, 0) for name in _REPORTED_COUNTERS},
        }
