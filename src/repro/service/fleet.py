"""Sharded serving fleet: failover routing, replication, warm handoff.

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
* **replication** — operators with proven traffic are prewarmed on the
  next ``replication - 1`` shards clockwise, which are exactly the
  shards that inherit the arc if the primary dies: a shard loss
  degrades latency (one disk reload at worst), not availability;
* **supervision** — a
  :class:`~repro.runtime.supervisor.ProcessSupervisor`, armed by every
  heartbeat, watches exit codes, SIGKILLs silent shards, and meters
  respawns;
* **failover replay** — the dead shard's in-flight requests are
  re-sent (same request id) to the surviving owner of each key,
  honoring the original end-to-end deadlines.  Request ids dedup late
  results: the first completion wins, and a duplicate *answer* for a
  replayed solve is checked bitwise against the winner — replicas must
  agree with the shard they replaced, by construction of the
  deterministic build (`OperatorSpec.build` is bitwise reproducible);
* **warm handoff** — the shards share one sealed disk cache
  (crash-safe manifests, content-addressed filenames, atomic writes),
  so a respawned shard reloads factors instead of rebuilding, and each
  heartbeat piggybacks the shard's breaker/retry-budget state so even
  a *crash* hands off warm (:meth:`SolveService.export_handoff`).
  Graceful leave runs the full drain protocol (stop admissions, flush,
  seal) and returns the same handoff payload.

Process topology (children of :mod:`repro.runtime.transport`, like
the mp execution engine's workers)::

    FleetService (front door)
      ├── request pipe ──>  shard-0: SolveService + cache + breakers
      │     result pipe <───────┘  │
      │     heartbeat pipe <───────┘
      ├── request pipe ──>  shard-1: ...
      │     ...

Heartbeats keep a pipe of their own: a front door busy draining a
large result must not read as a silent shard.

The hash ring rebalances only the failed shard's arc: every other
fingerprint keeps its shard, so a failure never causes fleet-wide
cache churn.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.runtime import transport
from repro.runtime.supervisor import ProcessFailure, ProcessSupervisor
from repro.service.errors import (
    DeadlineExpiredError,
    ServiceClosedError,
    ShardFailedError,
    ShardUnavailableError,
    reconstruct_error,
)
from repro.service.metrics import ServiceMetrics
from repro.service.router import ConsistentHashRing, FleetRouter
from repro.service.server import RequestHandle, SolveService
from repro.service.spec import OperatorSpec

__all__ = ["FleetService", "ShardStatus"]


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
    handoff: dict | None,
    req_conn,
    res_conn,
    beat_conn,
) -> None:
    """One shard: a full SolveService behind a request pipe.

    Replies are tagged with ``(name, epoch, request id)`` so the front
    door can dedup late results from a previous life of this shard
    name.  Forwarder threads share the result pipe under an in-process
    lock, so a SIGKILL can never orphan a lock any *other* shard
    depends on.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.service.cache import OperatorCache

    _set_process_title(f"tlr-{name}")
    cache = OperatorCache(
        directory=config["cache_dir"],
        byte_budget=config["byte_budget"],
    )
    svc = SolveService(
        cache=cache,
        workers=config["workers"],
        backlog=config["backlog"],
        max_batch=config["max_batch"],
        max_inflight=config["max_inflight"],
        factor_workers=config["factor_workers"],
        factor_engine=config["factor_engine"],
        build_retries=config["build_retries"],
        build_backoff=config["build_backoff"],
    )
    imported = svc.import_handoff(handoff)
    res_lock = threading.Lock()

    def _post(msg: tuple) -> None:
        try:
            with res_lock:
                res_conn.send(msg)
        except OSError:  # parent is gone
            pass

    _post(
        (
            "ready",
            name,
            epoch,
            os.getpid(),
            {
                "disk_entries": len(cache.disk_fingerprints()),
                "imported_breaker_keys": imported["breaker_keys"],
            },
        )
    )

    stop = threading.Event()
    completed = itertools.count()
    ncompleted = [0]

    def _beat_loop() -> None:
        last_seal = time.monotonic()
        while not stop.is_set():
            try:
                beat_conn.send(
                    {
                        "t": time.monotonic(),
                        "pid": os.getpid(),
                        "inflight": svc.inflight,
                        "entries": len(cache),
                        "completed": ncompleted[0],
                        # breaker/retry-budget state rides every beat:
                        # a SIGKILL later recovers from the last beat
                        "handoff": svc.export_handoff(),
                    }
                )
            except OSError:  # parent is gone
                stop.set()
                return
            now = time.monotonic()
            if now - last_seal >= config["checkpoint_interval"]:
                # periodic checkpoint: seal anything built since the
                # last interval so a crash still hands off warm
                try:
                    cache.seal()
                except OSError:  # pragma: no cover - disk trouble
                    pass
                last_seal = now
            stop.wait(config["heartbeat_interval"])

    beater = threading.Thread(target=_beat_loop, name=f"{name}-beat", daemon=True)
    beater.start()

    # forwarders wait on service handles and post replies; +2 so a
    # full complement of busy lanes still leaves a slot for prewarms
    forwarders = ThreadPoolExecutor(
        max_workers=config["workers"] + 2, thread_name_prefix=f"{name}-fwd"
    )
    # occupancy requests model a busy lane without BLAS: exactly
    # ``workers`` may sleep concurrently, like real solves
    occupancy = threading.BoundedSemaphore(config["workers"])

    def _reply_ok(req_id: int, value) -> None:
        ncompleted[0] = next(completed) + 1
        _post(("ok", name, epoch, req_id, value))

    def _reply_err(req_id: int, exc: BaseException) -> None:
        _post(("err", name, epoch, req_id, type(exc).__name__, str(exc)))

    def _await(req_id: int, handle) -> None:
        try:
            _reply_ok(req_id, handle.result())
        except BaseException as exc:
            _reply_err(req_id, exc)

    def _prewarm(req_id: int, spec) -> None:
        try:
            cache.get_or_build(spec)
            _reply_ok(req_id, spec.fingerprint)
        except BaseException as exc:
            _reply_err(req_id, exc)

    def _occupy(req_id: int, seconds: float, deadline: float | None) -> None:
        try:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExpiredError(f"request {req_id} deadline passed")
            with occupancy:
                time.sleep(seconds)
            _reply_ok(req_id, seconds)
        except BaseException as exc:
            _reply_err(req_id, exc)

    def _timeout_of(deadline: float | None) -> float | None:
        # CLOCK_MONOTONIC is machine-wide on Linux, so the absolute
        # deadline stamped by the front door is meaningful here
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            raise DeadlineExpiredError("deadline passed before shard dispatch")
        return remaining

    draining = False
    try:
        # the loop also ends when the front door dies (EOF)
        for msg in transport.frames(req_conn):
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "drain":
                req_id = msg[1]
                summary = svc.drain(timeout=config["drain_timeout"])
                summary["counters"] = dict(
                    svc.metrics.to_dict()["counters"]
                )
                summary["cache"] = cache.stats()
                _reply_ok(req_id, summary)
                draining = True
                break
            if kind == "prewarm":
                forwarders.submit(_prewarm, msg[1], msg[2])
                continue
            if kind == "occupy":
                _, req_id, seconds, deadline = msg
                forwarders.submit(_occupy, req_id, seconds, deadline)
                continue
            if kind == "solve":
                _, req_id, spec, rhs, deadline, refine = msg
                try:
                    handle = svc.submit_solve(
                        spec, rhs, timeout=_timeout_of(deadline), refine=refine
                    )
                except BaseException as exc:
                    _reply_err(req_id, exc)
                    continue
                forwarders.submit(_await, req_id, handle)
                continue
            if kind == "logdet":
                _, req_id, spec, deadline = msg
                try:
                    handle = svc.submit_logdet(
                        spec, timeout=_timeout_of(deadline)
                    )
                except BaseException as exc:
                    _reply_err(req_id, exc)
                    continue
                forwarders.submit(_await, req_id, handle)
                continue
    finally:
        forwarders.shutdown(wait=True)
        stop.set()
        # graceful exits complete accepted work; a drain already did
        svc.close(drain=not draining)
        beater.join(timeout=2.0)


# ----------------------------------------------------------------------
# front door
# ----------------------------------------------------------------------


@dataclass
class _Pending:
    """One admitted fleet request, tracked until its handle settles."""

    req_id: int
    kind: str  # "solve" | "logdet" | "occupy"
    route_key: str
    handle: RequestHandle
    shard: str
    spec: OperatorSpec | None = None
    payload: object = None  # rhs array / occupancy seconds
    refine: bool = False
    deadline: float | None = None
    attempts: int = 1  # successful sends (replays increment)
    replayed: bool = False
    #: epoch of the shard handle the latest dispatch targeted, so a
    #: stale writer-thread failure can tell whether the request has
    #: already been re-homed
    sent_epoch: int = 0
    submitted_at: float = field(default_factory=time.monotonic)


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
    out_q: queue.Queue
    writer: threading.Thread | None = None
    state: str = "starting"  # starting | live | dead | removed
    spawned_at: float = field(default_factory=time.monotonic)
    last_beat: dict | None = None
    ready_info: dict | None = None


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
    replication:
        Preference-list length for hot operators: the primary plus
        ``replication - 1`` prewarmed replicas (1 = no replication).
    hot_threshold:
        Requests after which an operator's replicas are prewarmed.
    cache_dir:
        Shared sealed-cache directory (the warm-handoff medium).
        ``None`` creates a private temporary directory for the fleet's
        lifetime — handoff still works, persistence across fleets
        doesn't.
    workers_per_shard, backlog, max_batch, max_inflight,
    factor_workers, factor_engine, build_retries, build_backoff:
        Forwarded to each shard's ``SolveService``.
    byte_budget:
        Per-shard resident-bytes LRU budget (None = unbounded).
    heartbeat_interval / heartbeat_timeout:
        Shard beat cadence and the staleness bound after which a
        silent shard is SIGKILLed (default: 10 intervals).
    checkpoint_interval:
        Seconds between periodic cache seals inside each shard — the
        bound the respawn-to-warm-serving time is measured against.
    max_respawns:
        Fleet-lifetime shard respawn budget (default ``2*shards + 2``,
        the worker-supervision convention).
    max_replays:
        Send attempts per request before failover gives up with
        :class:`ShardFailedError`.
    start:
        Spawn shards and block until all are serving.  ``False`` for
        tests that stage the fleet manually (call :meth:`start`).
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        replication: int = 2,
        hot_threshold: int = 2,
        cache_dir=None,
        workers_per_shard: int = 2,
        backlog: int = 256,
        max_batch: int = 32,
        max_inflight: int | None = None,
        factor_workers: int | None = None,
        factor_engine: str | None = None,
        build_retries: int = 1,
        build_backoff: float = 0.05,
        byte_budget: int | None = None,
        heartbeat_interval: float = 0.1,
        heartbeat_timeout: float | None = None,
        checkpoint_interval: float = 5.0,
        drain_timeout: float = 30.0,
        max_respawns: int | None = None,
        max_replays: int = 3,
        vnodes: int = 128,
        metrics: ServiceMetrics | None = None,
        start: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if replication > shards:
            replication = shards  # can't replicate wider than the fleet
        if heartbeat_interval <= 0.0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if heartbeat_timeout is None:
            heartbeat_timeout = 10.0 * heartbeat_interval
        if max_respawns is None:
            max_respawns = 2 * shards + 2
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.replication = int(replication)
        self.checkpoint_interval = float(checkpoint_interval)
        self.max_replays = int(max_replays)
        self._tmpdir = None
        if cache_dir is None:
            import tempfile

            self._tmpdir = tempfile.TemporaryDirectory(prefix="tlr-fleet-")
            cache_dir = self._tmpdir.name
        self._config = {
            "cache_dir": str(cache_dir),
            "workers": int(workers_per_shard),
            "backlog": int(backlog),
            "max_batch": int(max_batch),
            "max_inflight": max_inflight,
            "factor_workers": factor_workers,
            "factor_engine": factor_engine,
            "build_retries": int(build_retries),
            "build_backoff": float(build_backoff),
            "byte_budget": byte_budget,
            "heartbeat_interval": float(heartbeat_interval),
            "checkpoint_interval": float(checkpoint_interval),
            "drain_timeout": float(drain_timeout),
        }
        self._ctx = multiprocessing.get_context("fork")
        self._router = FleetRouter(
            ConsistentHashRing(vnodes=vnodes),
            replication=self.replication,
            hot_threshold=hot_threshold,
        )
        self.supervisor = ProcessSupervisor(
            max_respawns=max_respawns, timeout=heartbeat_timeout
        )
        self._beats_seen = 0
        self._lock = threading.Lock()
        self._shards: dict[str, _ShardHandle] = {}
        self._pending: dict[int, _Pending] = {}
        #: request id -> (handle, target shard); the shard is recorded
        #: so a shard death settles its controls instead of leaking them
        self._controls: dict[int, tuple[RequestHandle, str]] = {}
        self._park: list[_Pending] = []
        #: results of replayed requests retained for dedup verification
        self._replay_results: OrderedDict[int, object] = OrderedDict()
        #: every shard process ever spawned: a dead one stays so the
        #: replies it raced out still drain, and all are torn down
        #: (and their pipes closed) together in close()
        self._children: list[transport.Child] = []
        self._respawns: list[dict] = []
        self._respawn_t0: dict[str, float] = {}
        self._req_ids = itertools.count(1)
        self._shard_index = itertools.count(0)
        self._closed = False
        self._started = False
        self._n_initial = int(shards)
        self._stop_event = threading.Event()
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
        self._collector.start()
        self._monitor.start()
        for _ in range(self._n_initial):
            self.add_shard(wait=False)
        self.wait_ready(timeout=timeout)

    def wait_ready(self, timeout: float = 120.0) -> None:
        """Block until every non-dead shard reports ready."""
        give_up = time.monotonic() + timeout
        while time.monotonic() < give_up:
            with self._lock:
                states = [h.state for h in self._shards.values()]
            if states and all(s in ("live", "dead", "removed") for s in states):
                if any(s == "live" for s in states):
                    return
            time.sleep(0.01)
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
            h.out_q.put((("stop",), None))
            h.out_q.put(None)
        # The collector goes too (promptly: the exiting shards' EOFs
        # wake it): from here on transport.stop is the one reader of
        # the result pipes, and hands what the shards still finish to
        # the same dispatch.
        self._stop_event.set()
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
            controls = [c for c, _ in self._controls.values()]
            self._controls.clear()
            parked = list(self._park)
            self._park.clear()
        for p in pending + parked:
            if not p.handle.done():
                p.handle.set_exception(exc)
        for c in controls:
            if not c.done():
                c.set_exception(exc)
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
        self._spawn(name, epoch=0, handoff=None)
        if wait:
            give_up = time.monotonic() + timeout
            while time.monotonic() < give_up:
                with self._lock:
                    h = self._shards.get(name)
                    if h is not None and h.state == "live":
                        return name
                    if h is not None and h.state in ("dead", "removed"):
                        break
                time.sleep(0.01)
            raise ShardUnavailableError(f"{name} failed to become ready")
        return name

    def remove_shard(self, name: str, timeout: float = 60.0) -> dict:
        """Gracefully drain and retire one shard (warm handoff).

        The shard's arc is rebalanced to its ring successors *first*
        (no new traffic), then the drain protocol runs inside the
        shard: stop admissions, flush in-flight work, seal the cache.
        The returned summary carries the shard's handoff payload
        (breaker/retry-budget state) and final counters.
        """
        with self._lock:
            h = self._shards.get(name)
            if h is None or h.state != "live":
                raise ShardUnavailableError(f"{name} is not a live shard")
        self._router.remove_node(name)
        ctrl = RequestHandle(next(self._req_ids), "drain")
        with self._lock:
            self._controls[ctrl.request_id] = (ctrl, name)
        h.out_q.put(
            (
                ("drain", ctrl.request_id),
                lambda: self._fail_control(ctrl.request_id, name),
            )
        )
        summary = ctrl.result(timeout=timeout)
        self.supervisor.detach(name)
        h.out_q.put(None)  # drain delivered: retire the writer
        h.child.process.join(timeout=10.0)
        if h.child.process.exitcode is None:  # pragma: no cover - wedged drain
            self.supervisor.kill(h.child.process)
        with self._lock:
            h.state = "removed"
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

    def _spawn(self, name: str, epoch: int, handoff: dict | None) -> None:
        child = transport.spawn(
            self._ctx,
            _shard_main,
            (name, epoch, self._config, handoff),
            f"tlr-{name}",
            up=2,
        )
        handle = _ShardHandle(
            name=name, epoch=epoch, child=child, out_q=queue.Queue()
        )
        handle.writer = threading.Thread(
            target=self._writer_loop,
            args=(handle,),
            name=f"tlr-{name}-send",
            daemon=True,
        )
        handle.writer.start()
        with self._lock:
            self._shards[name] = handle
            self._children.append(child)
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
        path via each item's ``on_fail`` callback.  After the first
        broken send the writer keeps consuming (failing every item)
        until its ``None`` sentinel, so a message enqueued after the
        break is never silently dropped.
        """
        broken = False
        while True:
            item = h.out_q.get()
            if item is None:
                return
            msg, on_fail = item
            if not broken:
                if h.child.send(msg):
                    continue
                broken = True
            if on_fail is not None:
                on_fail()

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
        return self._submit(
            kind="solve",
            route_key=spec.fingerprint,
            spec=spec,
            payload=rhs,
            refine=refine,
            timeout=timeout,
        )

    def submit_logdet(
        self, spec: OperatorSpec, timeout: float | None = None
    ) -> RequestHandle:
        """Queue a ``log det A`` request on the shard owning ``spec``."""
        return self._submit(
            kind="logdet",
            route_key=spec.fingerprint,
            spec=spec,
            timeout=timeout,
        )

    def submit_occupancy(
        self, route_key: str, seconds: float, timeout: float | None = None
    ) -> RequestHandle:
        """Queue a calibrated lane-occupancy request (no numerics).

        Holds one of the owning shard's ``workers`` lanes for
        ``seconds`` — the fleet analog of the parallel engines'
        replayed-DAG mode: it exercises the full dispatch path
        (routing, pipes, dedup, failover) with a known service time,
        isolating front-door capacity from BLAS throughput.  Used by
        the scaling benchmark and as a health probe.
        """
        if seconds < 0.0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        return self._submit(
            kind="occupy",
            route_key=str(route_key),
            payload=float(seconds),
            timeout=timeout,
        )

    def prewarm(self, spec: OperatorSpec, replicas: bool = True) -> list[RequestHandle]:
        """Build/load ``spec`` on its primary (and replica) shards now,
        returning one handle per prewarmed shard.  The benchmark's way
        of paying cold builds before timing, and the admin's way of
        staging an operator before a traffic cutover."""
        decision = self._router.route(spec.fingerprint, count=False)
        if decision is None:
            raise ShardUnavailableError("no live shard to prewarm on")
        targets = [decision.primary] + (decision.replicas if replicas else [])
        handles = []
        for name in targets:
            h = self._send_control(name, "prewarm", spec)
            if h is not None:
                handles.append(h)
        return handles

    # ------------------------------------------------------------------
    # submission internals
    # ------------------------------------------------------------------

    def _deadline(self, timeout: float | None) -> float | None:
        if timeout is None:
            return None
        if timeout <= 0.0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        return time.monotonic() + timeout

    def _submit(
        self,
        kind: str,
        route_key: str,
        spec: OperatorSpec | None = None,
        payload=None,
        refine: bool = False,
        timeout: float | None = None,
    ) -> RequestHandle:
        with self._lock:
            if self._closed:
                raise ServiceClosedError("fleet is closed")
        decision = self._router.route(route_key)
        if decision is None:
            self.metrics.count("rejected_no_shard")
            raise ShardUnavailableError("no live shard to route to")
        req = _Pending(
            req_id=next(self._req_ids),
            kind=kind,
            route_key=route_key,
            handle=RequestHandle(0, kind),
            shard=decision.primary,
            spec=spec,
            payload=payload,
            refine=refine,
            deadline=self._deadline(timeout),
        )
        req.handle.request_id = req.req_id
        with self._lock:
            self._pending[req.req_id] = req
        self.metrics.count("submitted")
        if decision.became_hot and spec is not None:
            # first crossing of the hot threshold: warm each replica
            # once, so the failover target already holds the factor
            for replica in decision.replicas:
                if self._send_control(replica, "prewarm", spec) is not None:
                    self.metrics.count("prewarms_sent")
        if not self._dispatch(req, decision.primary):
            # the primary died between routing and send: park it; the
            # monitor reroutes as soon as the supervisor turns over
            with self._lock:
                self._park.append(req)
        return req.handle

    def _wire_message(self, req: _Pending) -> tuple:
        if req.kind == "solve":
            return (
                "solve",
                req.req_id,
                req.spec,
                req.payload,
                req.deadline,
                req.refine,
            )
        if req.kind == "logdet":
            return ("logdet", req.req_id, req.spec, req.deadline)
        if req.kind == "occupy":
            return ("occupy", req.req_id, req.payload, req.deadline)
        raise AssertionError(f"unknown kind {req.kind!r}")

    def _dispatch(self, req: _Pending, shard: str) -> bool:
        """Queue ``req`` for ``shard``'s writer; False if the shard is
        not accepting work.  The pipe write itself happens on the
        shard's writer thread, so this never blocks: a broken pipe
        surfaces asynchronously by parking the request for the monitor
        to re-home."""
        with self._lock:
            h = self._shards.get(shard)
            if h is None or h.state not in ("starting", "live"):
                return False
            req.shard = shard
            req.sent_epoch = h.epoch
        h.out_q.put(
            (
                self._wire_message(req),
                lambda: self._park_failed_send(req, shard, h.epoch),
            )
        )
        return True

    def _park_failed_send(self, req: _Pending, shard: str, epoch: int) -> None:
        """Writer-thread callback: ``req``'s send hit a dead pipe.
        Park it for re-homing unless it already settled or the
        shard-failure path re-dispatched it first."""
        with self._lock:
            if req.handle.done():
                return
            if self._pending.get(req.req_id) is not req:
                return
            if req.shard != shard or req.sent_epoch != epoch:
                return  # already re-homed by failover
            if any(p is req for p in self._park):
                return
            self._park.append(req)

    def _send_control(self, shard: str, kind: str, spec) -> RequestHandle | None:
        """Fire a control request (prewarm) at one shard; None if the
        shard is not accepting work.  The control is tracked against
        its target shard, so a shard death settles the handle with
        :class:`ShardFailedError` instead of leaking it."""
        with self._lock:
            h = self._shards.get(shard)
            if h is None or h.state not in ("starting", "live"):
                return None
        ctrl = RequestHandle(next(self._req_ids), kind)
        with self._lock:
            self._controls[ctrl.request_id] = (ctrl, shard)
        h.out_q.put(
            (
                (kind, ctrl.request_id, spec),
                lambda: self._fail_control(ctrl.request_id, shard),
            )
        )
        return ctrl

    def _fail_control(self, req_id: int, shard: str) -> None:
        """Settle one control handle whose target shard is gone."""
        with self._lock:
            entry = self._controls.pop(req_id, None)
        if entry is None:
            return
        ctrl, _ = entry
        if not ctrl.done():
            ctrl.set_exception(
                ShardFailedError(
                    f"{ctrl.kind} request {req_id} lost shard {shard}"
                )
            )

    # ------------------------------------------------------------------
    # result collection
    # ------------------------------------------------------------------

    def _collect_loop(self) -> None:
        # Sole reader of every result pipe, live shards' and dead
        # shards' alike, until close() hands them to transport.stop.
        while not self._stop_event.is_set():
            with self._lock:
                children = list(self._children)
            if all(c.ups[0] is None for c in children):
                self._stop_event.wait(0.05)  # nothing to wait on yet
                continue
            for _, msg in transport.recv_ready(children, 0.2):
                self._dispatch_result(msg)

    def _dispatch_result(self, msg: tuple) -> None:
        tag = msg[0]
        if tag == "ready":
            self._on_ready(*msg[1:])
        elif tag in ("ok", "err"):
            self._on_result(msg)

    def _on_ready(self, name: str, epoch: int, pid: int, info: dict) -> None:
        with self._lock:
            h = self._shards.get(name)
            if h is None or h.epoch != epoch or h.state != "starting":
                return  # a stale life of this name
            h.state = "live"
            h.ready_info = info
        self._router.add_node(name)
        t0 = self._respawn_t0.pop(name, None)
        if t0 is not None:
            self._respawns.append(
                {
                    "shard": name,
                    "epoch": epoch,
                    "respawn_seconds": time.monotonic() - t0,
                    "warm_disk_entries": info.get("disk_entries", 0),
                    "imported_breaker_keys": info.get(
                        "imported_breaker_keys", 0
                    ),
                }
            )
        self._flush_park()

    def _on_result(self, msg: tuple) -> None:
        tag, shard, epoch, req_id = msg[:4]
        with self._lock:
            entry = self._controls.pop(req_id, None)
        if entry is not None:
            ctrl, _ = entry
            if tag == "ok":
                ctrl.set_result(msg[4])
            else:
                ctrl.set_exception(reconstruct_error(msg[4], msg[5]))
            return
        with self._lock:
            req = self._pending.pop(req_id, None)
        if req is None:
            self._on_duplicate(req_id, tag, msg)
            return
        if tag == "ok":
            value = msg[4]
            req.handle.set_result(value)
            self.metrics.count("completed")
            self.metrics.record_latency(
                req.kind, time.monotonic() - req.submitted_at
            )
            if req.deadline is not None:
                self.metrics.record_slack(
                    req.kind, req.deadline - time.monotonic()
                )
            if req.replayed:
                # retain for the dedup-verify check if the first
                # life's answer is still in flight somewhere;
                # remember whether this request ran the deterministic
                # solo path (bitwise-comparable) or a coalescible one
                solo = req.kind != "solve" or (
                    getattr(req.payload, "ndim", 1) == 2
                )
                with self._lock:
                    self._replay_results[req_id] = (value, solo)
                    while len(self._replay_results) > 256:
                        self._replay_results.popitem(last=False)
        else:
            err = reconstruct_error(msg[4], msg[5])
            req.handle.set_exception(err)
            self.metrics.count(
                "expired" if isinstance(err, DeadlineExpiredError) else "failed"
            )

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
        with self._lock:
            if self._closed:
                return  # close() owns shutdown; exits are not failures
            h = self._shards.get(shard)
            if h is None or h.state in ("dead", "removed"):
                return
            # A respawn is about to replace this handle; replies the
            # dying shard raced out still drain from ``_children``
            # through the normal dedup-verify path.
            h.state = "dead"
            victims = [p for p in self._pending.values() if p.shard == shard]
            dead_ctrl_ids = [
                rid for rid, (_, s) in self._controls.items() if s == shard
            ]
        self.metrics.count("shard_failures")
        if failure.hung:
            self.metrics.count("shards_hung_killed")
        # rebalance ONLY the dead shard's arc: every other fingerprint
        # keeps its shard (the consistent-hashing contract)
        self._router.remove_node(shard)
        # Controls (prewarm/drain) are pinned to their shard — no
        # surviving replica can answer them — so settle their handles
        # rather than leaving callers blocked forever.
        for rid in dead_ctrl_ids:
            self._fail_control(rid, shard)
        if victims:
            self.metrics.count("failovers")
        for p in victims:
            self._replay(p)
        # Retire the dead handle's writer once its backlog drains;
        # every leftover item fails through on_fail, which defers to
        # the replay the loop above already performed.
        h.out_q.put(None)
        if self.supervisor.can_respawn():
            self.supervisor.record_respawn()
            self._respawn_t0[shard] = time.monotonic()
            # warm handoff out of a crash: the sealed shared cache
            # restores the factors; the last beat restores the
            # breaker/retry-budget protection state
            self._spawn(
                shard,
                epoch=h.epoch + 1,
                handoff=(h.last_beat or {}).get("handoff"),
            )
            self.metrics.count("shards_respawned")
        else:
            self.metrics.count("respawn_budget_exhausted")

    def _replay(self, req: _Pending) -> None:
        """Re-home one in-flight request from a dead shard."""
        if req.handle.done():
            return
        now = time.monotonic()
        if req.deadline is not None and now >= req.deadline:
            with self._lock:
                self._pending.pop(req.req_id, None)
            req.handle.set_exception(
                DeadlineExpiredError(
                    f"request {req.req_id} expired during failover"
                )
            )
            self.metrics.count("expired")
            self.metrics.count("shed_failover")
            return
        if req.attempts >= self.max_replays:
            with self._lock:
                self._pending.pop(req.req_id, None)
            req.handle.set_exception(
                ShardFailedError(
                    f"request {req.req_id} lost {req.attempts} shard(s); "
                    "replay attempts exhausted"
                )
            )
            self.metrics.count("failed")
            return
        decision = self._router.route(req.route_key, count=False)
        if decision is None:
            # Park only while recovery is possible: a shard is coming
            # up, or the respawn budget could still produce one.  With
            # an empty ring and no replacement ever coming, re-parking
            # would strand a no-deadline caller forever — settle the
            # handle instead.
            with self._lock:
                recovering = any(
                    s.state in ("starting", "live")
                    for s in self._shards.values()
                )
            if not recovering and not self.supervisor.can_respawn():
                with self._lock:
                    self._pending.pop(req.req_id, None)
                req.handle.set_exception(
                    ShardUnavailableError(
                        f"request {req.req_id}: no live shard and the "
                        "respawn budget is exhausted"
                    )
                )
                self.metrics.count("failed")
                self.metrics.count("shed_no_shard")
                return
            with self._lock:
                self._park.append(req)
            return
        req.replayed = True
        if self._dispatch(req, decision.primary):
            req.attempts += 1
            self.metrics.count("requests_replayed")
        else:
            with self._lock:
                self._park.append(req)

    def _flush_park(self) -> None:
        with self._lock:
            if not self._park:
                return
            parked = list(self._park)
            self._park.clear()
        for req in parked:
            self._replay(req)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def shard_names(self) -> list[str]:
        with self._lock:
            return sorted(self._shards)

    def live_shards(self) -> list[str]:
        with self._lock:
            return sorted(
                n for n, h in self._shards.items() if h.state == "live"
            )

    def status(self) -> list[ShardStatus]:
        """Per-shard condition from the latest heartbeats."""
        out = []
        with self._lock:
            for name in sorted(self._shards):
                h = self._shards[name]
                beat = h.last_beat or {}
                out.append(
                    ShardStatus(
                        name=name,
                        state=h.state,
                        pid=h.child.pid,
                        epoch=h.epoch,
                        inflight=int(beat.get("inflight", 0)),
                        cache_entries=int(beat.get("entries", 0)),
                        completed=int(beat.get("completed", 0)),
                    )
                )
        return out

    def report(self) -> dict:
        """Fleet-level robustness accounting (benchmark evidence)."""
        counters = self.metrics.to_dict()["counters"]
        return {
            "supervisor": {
                **self.supervisor.report(),
                "beats_seen": self._beats_seen,
            },
            "respawns": list(self._respawns),
            "failovers": counters.get("failovers", 0),
            "requests_replayed": counters.get("requests_replayed", 0),
            "stale_results": counters.get("stale_results", 0),
            "replay_verified_identical": counters.get(
                "replay_verified_identical", 0
            ),
            "replay_verified_close": counters.get("replay_verified_close", 0),
            "replay_mismatch": counters.get("replay_mismatch", 0),
            "hot_fingerprints": len(self._router.hot_fingerprints()),
        }
