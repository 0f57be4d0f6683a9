"""True-parallel process-pool execution of a task graph.

``ParallelExecutionEngine`` (threads) loses most of the hardware on
real numerics: the Python glue between BLAS calls — tile dispatch,
operand stacking, trace records — serializes on the GIL.
This module replaces threads with *processes*, the asynchronous-runtime
model of the fan-both Cholesky solvers: one-sided, message-driven task
execution with no global lock.

Architecture
------------

* **Tile arena** — all tile payloads live in
  :class:`~repro.linalg.arena.TileArena` shared-memory segments,
  created by the coordinator before forking.  Workers map the same
  physical pages; task messages carry ``(task index, expected operand
  checksums, dispatch epoch)`` — kernel id and tile keys, never tile
  payloads.
* **Workers** — children of :mod:`repro.runtime.transport`, forked so
  they inherit the registered kernels and the task graph (closures
  need no pickling).  Each loops: take a task from its *own* lane
  pipe, run the kernel against arena-backed tile views (fault
  injection, retry with arena-byte rollback, and operand checksum
  verification all happen *in the worker*), and send a small
  retirement message back on its own reply pipe.  A worker whose
  coordinator dies reads EOF and exits, releasing the arena segments.
* **Coordinator** — the caller's thread drives the same scheduling
  core as the other executors (:class:`~repro.runtime.engine._Run`)
  around its lane messages: the scheduler policy orders the ready
  pool, and at most one task per idle worker is in flight, so priority
  order is respected.  Retirement goes through the core with a
  ``materialize`` hook that copies the task's written tiles out of the
  arena into the caller's matrix (a private copy, immune to later
  in-place slot rewrites) before they are ledgered and checkpointed.
* **Supervisor** — per-lane pipes make the coordinator's view of
  worker state exact: it always knows which task each worker holds.
  :class:`~repro.runtime.supervisor.ProcessSupervisor` watches pid
  liveness and per-task hang budgets; a worker lost to a real
  ``SIGKILL`` (or wedged past the hang budget, which earns it one) is
  *recovered*, not fatal: its in-flight task is requeued, the task's
  write slots are rewound from the coordinator's private tiles (an
  in-place kernel may have torn them), and a replacement process is
  forked onto the existing arena segments.  The factor stays bitwise
  identical because replayed tasks see exactly the operands the dead
  worker saw.

Invariants preserved from the threaded engine:

* **bitwise-identical factors** at any worker count — arena copy-in /
  views / copy-out all preserve memory order (C vs Fortran), so every
  kernel sees byte- and layout-identical operands to the serial run;
* **per-task retry with tile-snapshot rollback** — worker-side,
  through the arena's own byte-level ``snapshot``/``restore`` (slots
  are rewritten in place, so reference snapshots would alias);
* **fault injection** — the plan is a pure function of
  ``(seed, rule, task, attempt)``, so worker-side decisions replay the
  serial sequence exactly; counters are merged back per retirement.
  Process-fate kinds additionally shift by the dispatch epoch, so a
  respawned replacement is not doomed to re-die on the same task;
* **checkpoint capture** and **ABFT checksum verification** — operand
  digests ride along with the task message; the worker checksums a
  private copy of each operand and hands the kernel that copy, so a
  concurrent in-place rewrite of the slot cannot reach it; a corrupt
  operand fails the task in the worker, and the coordinator heals the
  arena from the checkpoint's last-known-good tile and re-dispatches;
* a worker hard-crash (``os._exit(137)`` fault kind) still takes the
  coordinator down with the same exit code — SIGKILL semantics — after
  unlinking the shared segments, so recovery flows through the
  checkpoint/restart layer just like the in-process engines.  Only
  *real* signal deaths (negative exit codes) and hangs are supervised.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from collections import deque

from repro.runtime import transport
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.dag import TaskGraph
from repro.runtime.engine import ExecutionEngine, _Run
from repro.runtime.faults import (
    FaultInjector,
    RetryPolicy,
    TaskFailedError,
    TileCorruptionError,
)
from repro.runtime.parallel import scaled_stall_timeout
from repro.runtime.scheduler import Scheduler
from repro.runtime.supervisor import ProcessSupervisor
from repro.runtime.task import Task
from repro.runtime.tracing import Trace

__all__ = ["MultiprocessExecutionEngine", "WorkerCrashError"]

#: coordinator poll granularity while waiting on retirements
_POLL_SECONDS = 0.05

#: heal-and-redispatch budget per task (checksum-verified runs)
_MAX_HEALS_PER_TASK = 2


class WorkerCrashError(RuntimeError):
    """A worker process died and supervision could not (or may not)
    recover it — respawn budget exhausted or supervision disabled."""


def _picklable(exc: BaseException) -> BaseException:
    """``exc`` if it round-trips through pickle, else a summary."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class MultiprocessExecutionEngine(ExecutionEngine):
    """Executes a task graph with ``workers`` forked processes.

    Requires the ``fork`` start method (POSIX): kernels are inherited,
    not pickled, and the tile arena's handles ride through the fork.
    Construction raises :class:`RuntimeError` elsewhere — callers can
    fall back to the threaded engine.

    Data stores with tile accessors (``tile``/``set_tile``/iteration —
    :class:`~repro.linalg.tile_matrix.TLRMatrix` and friends) are
    shared through the arena and written back tile-by-tile as tasks
    retire.  Stores without them (e.g. ``None`` for replay benchmarks)
    are simply inherited by each worker: kernels run true-parallel but
    worker-side writes to such a store stay process-local.

    Parameters mirror :class:`~repro.runtime.parallel.
    ParallelExecutionEngine`, plus:

    spill_factor:
        Scales the arena's over-cap spill region (default
        ``$REPRO_ARENA_SPILL`` or 1.5x the all-dense payload size).
    supervise:
        Recover from real worker deaths (``SIGKILL``, OOM kills) and
        hangs by requeueing the lost task, rewinding its write slots,
        and re-forking a replacement onto the existing arena.  Injected
        hard crashes (exit 137) are still mirrored — that is the
        checkpoint/restart contract.  ``False`` restores the fail-fast
        behavior (:class:`WorkerCrashError` on any silent death).
    max_respawns:
        Total replacement workers per run (default ``2 * workers + 2``)
        — a crash loop surfaces instead of respawning forever.
    hang_timeout:
        Seconds one task may hold a worker before the supervisor
        declares it hung and SIGKILLs it into the recovery path.
        Default: 80% of the (cost-model-scaled) stall timeout when one
        is configured, else disabled.
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        workers: int = 2,
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        stall_timeout: float | None = None,
        verify_tiles: bool | None = None,
        spill_factor: float | None = None,
        supervise: bool = True,
        max_respawns: int | None = None,
        hang_timeout: float | None = None,
    ) -> None:
        super().__init__(
            scheduler,
            fault_injector=fault_injector,
            retry=retry,
            verify_tiles=verify_tiles,
        )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if stall_timeout is not None and stall_timeout <= 0.0:
            raise ValueError(
                f"stall_timeout must be positive or None, got {stall_timeout}"
            )
        if max_respawns is not None and max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0 or None, got {max_respawns}"
            )
        if hang_timeout is not None and hang_timeout <= 0.0:
            raise ValueError(
                f"hang_timeout must be positive or None, got {hang_timeout}"
            )
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "MultiprocessExecutionEngine needs the 'fork' start method "
                "(POSIX); use the threaded ParallelExecutionEngine here"
            )
        self.workers = int(workers)
        self.stall_timeout = stall_timeout
        self.spill_factor = spill_factor
        self.supervise = bool(supervise)
        self.max_respawns = max_respawns
        self.hang_timeout = hang_timeout
        #: lane -> OS pid of the worker that ran it (filled per run,
        #: updated when a lane is respawned)
        self.worker_pids: dict[int, int] = {}
        #: supervision counters of the most recent run (respawns,
        #: hung_killed, tasks_requeued, tiles_restored, stale_results)
        self.last_run_supervision: dict[str, int] = {}

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _worker_main(self, lane, graph, data, arena, tasks, results) -> None:
        """Worker process body: serve tasks until told to stop (or the
        coordinator is gone)."""
        store = arena if arena is not None else data
        injector = self.fault_injector
        if injector is not None:
            # Arms the whole-worker fault kinds (worker_kill /
            # worker_hang): only a forked worker may act on them.
            injector.in_worker = True
        for idx, digests, epoch in transport.frames(tasks):
            task = graph.tasks[idx]
            if injector is not None:
                injector.epoch = epoch
            counter_base = dict(injector.counters) if injector else None
            report_base = [set(r) for r in self._reports]
            start = time.perf_counter()
            try:
                # Digests ride on the message; healing is the
                # coordinator's job, on redispatch.
                attempts = self._dispatch(
                    task, store, None if digests is None else digests.get
                )
            except BaseException as exc:
                try:
                    results.send(
                        (lane, idx, epoch, None, _picklable(exc), None, None,
                         0.0, 0.0)
                    )
                except OSError:  # coordinator is gone
                    return
                continue
            end = time.perf_counter()
            counters = None
            if injector is not None:
                counters = {
                    key: count - counter_base.get(key, 0)
                    for key, count in injector.counters.items()
                    if count != counter_base.get(key, 0)
                }
            reports = [
                {key: r[key] for key in r.keys() - base} or None
                for r, base in zip(self._reports, report_base)
            ]
            try:
                results.send(
                    (lane, idx, epoch, attempts, None, counters, reports,
                     start, end)
                )
            except OSError:  # coordinator is gone
                return

    # ------------------------------------------------------------------
    # coordinator side
    # ------------------------------------------------------------------

    def _heal_operands(self, task: Task, arena, data, ledger, checkpoint) -> bool:
        """Restore corrupt operand slots from last-known-good tiles.

        True when every operand slot now hashes clean (healed here, or
        already healed on behalf of another reader) and the task can be
        redispatched; False when one is unhealable and the failure must
        surface.
        """
        if arena is None or checkpoint is None:
            return False
        for key in sorted(set(task.reads)):
            if ledger.matches(key, arena.tile(*key)):
                continue
            if not checkpoint.heal(data, key):
                return False
            good = data.tile(*key)
            if not ledger.matches(key, good):
                return False
            arena.set_tile(*key, good)
        return True

    def _rewind_writes(self, task: Task, arena, data) -> int:
        """Restore the pre-task bytes of a lost task's write slots and
        return how many were restored.

        ``data`` always holds the last *retired* value of every tile
        (retirement materializes arena -> data, and the DAG's WAW/RAW
        edges guarantee the previous writer retired before this task
        dispatched), so republishing ``data``'s tiles rewinds any
        partial in-place write the dead worker left in the arena.
        Read-only operands need no rewind: kernels never mutate them.
        """
        if arena is None:
            return 0
        keys = sorted(set(task.writes))
        for key in keys:
            arena.set_tile(*key, data.tile(*key))
        return len(keys)

    def run(
        self,
        graph: TaskGraph,
        data: object,
        trace: Trace | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> Trace:
        """Execute every task across the worker processes.

        Same contract as the threaded engine: fail-fast on the first
        kernel exception, ``KeyError`` for unregistered task classes,
        diagnostic ``ValueError`` on stalls, checkpoint frontiers
        skipped and flushed on cadence.  A worker killed by a real
        signal (or hung past ``hang_timeout``) is supervised back to
        health — task requeued, torn tiles rewound, replacement forked
        — up to ``max_respawns`` times, after which (or with
        ``supervise=False``) :class:`WorkerCrashError` surfaces.  Exit
        code 137 (the injected hard crash) is still mirrored.
        """
        self.last_run_supervision = {}
        self.worker_pids = {}
        run = _Run(self, graph, data, trace, checkpoint)
        if not run.target:
            return run.finish()

        from repro.linalg.arena import TileArena

        arena_mode = (
            hasattr(data, "tile")
            and hasattr(data, "set_tile")
            and hasattr(data, "__iter__")
        )
        arena = (
            TileArena.from_store(data, spill_factor=self.spill_factor)
            if arena_mode
            else None
        )
        if arena is not None:
            run.materialize = arena.materialize

        stall_timeout = scaled_stall_timeout(self.stall_timeout, graph)
        hang_timeout = self.hang_timeout
        if hang_timeout is None and self.supervise and stall_timeout is not None:
            # Fire before the run-level stall watchdog would: a single
            # wedged worker should be recovered, not abort the run.
            hang_timeout = 0.8 * stall_timeout

        ctx = multiprocessing.get_context("fork")
        num_workers = min(self.workers, run.target)
        budget = (
            self.max_respawns
            if self.max_respawns is not None
            else 2 * num_workers + 2
        ) if self.supervise else 0
        supervisor = ProcessSupervisor(max_respawns=budget, timeout=hang_timeout)
        #: lane -> its current worker
        lanes: dict[int, transport.Child] = {}
        #: every worker of this run: a replaced one stays until its
        #: reply pipe has drained, and all are torn down together
        children: list[transport.Child] = []
        tasks_requeued = tiles_restored = stale_results = 0

        def spawn(lane: int) -> None:
            # Fresh pipes per (re)spawn: a task message the dead worker
            # never pulled must not reach its replacement — the
            # coordinator requeues it explicitly, exactly once.
            child = transport.spawn(
                ctx,
                self._worker_main,
                (lane, graph, data, arena),
                f"tlr-mp-worker-{lane}",
            )
            lanes[lane] = child
            children.append(child)
            self.worker_pids[lane] = child.pid
            supervisor.attach(lane, child.process)

        for lane in range(num_workers):
            spawn(lane)

        #: task index -> dispatch epoch (bumped per supervised requeue;
        #: a stale retirement from a killed worker carries the old
        #: epoch and is dropped instead of double-retiring the task)
        task_epoch: dict[int, int] = {}
        idle: set[int] = set(range(num_workers))
        #: results received but not yet processed
        inbox: deque = deque()
        heals: dict[int, int] = {}
        mirror_hard_crash = False

        def dispatch() -> None:
            while idle and (i := run.pop(min(idle))) is not None:
                lane = run.in_flight[i]
                idle.remove(lane)
                supervisor.arm(lane)
                digests = None
                if run.expected is not None:
                    digests = {
                        key: run.expected(key)
                        for key in set(graph.tasks[i].reads)
                    }
                # a failed send is a dead worker: the supervisor's to report
                lanes[lane].send((i, digests, task_epoch.get(i, 0)))

        def recover(lane: int) -> None:
            """Supervised recovery of one dead/hung lane.  Frames the
            dying worker raced out still drain through ``children``;
            the epoch bump below makes them stale."""
            nonlocal tasks_requeued, tiles_restored
            idle.discard(lane)
            idx = next((i for i, ln in run.in_flight.items() if ln == lane), None)
            if idx is not None:
                tiles_restored += self._rewind_writes(
                    graph.tasks[idx], arena, data
                )
                task_epoch[idx] = task_epoch.get(idx, 0) + 1
                run.requeue(idx)
                tasks_requeued += 1
            if arena is not None:
                # The dead worker may have held the spill-allocator
                # lock (a microseconds-wide window, but a SIGKILL can
                # land anywhere); break it rather than deadlock every
                # surviving worker's next spill allocation.
                arena.break_lock()
            lanes[lane].process.join(timeout=1.0)
            spawn(lane)
            supervisor.record_respawn()
            idle.add(lane)
            run.last_progress = time.perf_counter()

        try:
            while not run.over:
                dispatch()
                if not run.in_flight:
                    # A lane is always idle here, so the pool is empty too.
                    run.fail(run.stall_error())
                    break
                if not inbox:
                    inbox.extend(
                        msg
                        for _, msg in transport.recv_ready(children, _POLL_SECONDS)
                    )
                if not inbox:
                    failures = supervisor.poll()
                    for f in failures:
                        if f.exitcode == 137:
                            # The fault injector's ``os._exit(137)``:
                            # mirrored, not recovered, preserving the
                            # checkpoint/restart SIGKILL semantics.
                            mirror_hard_crash = True
                            return run.trace  # finally-block handles teardown
                        if not supervisor.can_respawn():
                            detail = (
                                "hung past the "
                                f"{hang_timeout:.3g}s hang budget"
                                if f.hung
                                else f"died (exit {f.exitcode})"
                            )
                            run.fail(WorkerCrashError(
                                f"worker lane {f.key} (pid {f.pid}) {detail}"
                                + (
                                    f"; respawn budget "
                                    f"({supervisor.max_respawns}) exhausted"
                                    if self.supervise
                                    else "; supervision disabled"
                                )
                                + "".join(
                                    f"; in flight: {graph.tasks[i]}"
                                    for i in run.in_flight
                                )
                            ))
                            break
                        recover(f.key)
                    if (
                        not failures
                        and stall_timeout is not None
                        and run.stalled(stall_timeout)
                    ):
                        run.fail(run.stall_error(stall_timeout))
                    continue

                msg = inbox.popleft()
                lane, idx, epoch, attempts, exc, counters, reports, start, end = msg
                stale = epoch != task_epoch.get(idx, 0)
                if stale or run.in_flight.get(idx) != lane:
                    # Stale retirement: a worker we already declared
                    # dead/hung (and whose task we requeued) raced its
                    # own result out before the SIGKILL landed.  The
                    # replay owns the task now — dropping the stale
                    # message is what keeps exactly-once retirement.
                    stale_results += 1
                    continue
                idle.add(lane)
                supervisor.disarm(lane)

                if exc is not None:
                    if (
                        isinstance(exc, TaskFailedError)
                        and isinstance(exc.cause, TileCorruptionError)
                        and heals.get(idx, 0) < _MAX_HEALS_PER_TASK
                        and self._heal_operands(
                            graph.tasks[idx], arena, data, run.ledger, checkpoint
                        )
                    ):
                        heals[idx] = heals.get(idx, 0) + 1
                        run.retries += exc.attempts
                        run.requeue(idx)
                    else:
                        run.fail(exc, idx)
                    continue

                if counters:
                    injector = self.fault_injector
                    with injector._lock:
                        for key, delta in counters.items():
                            injector.counters[key] += delta
                if reports:
                    for report, delta in zip(self._reports, reports):
                        if delta:
                            report.update(delta)
                run.retire(
                    idx, attempts, start, end, lane, self.worker_pids.get(lane, 0)
                )
        finally:
            transport.stop(children, None, 5.0)
            if arena is not None:
                # Written tiles were already copied out per retirement;
                # the segments hold nothing the caller still needs.
                arena.close()
                arena.unlink()
            if mirror_hard_crash:
                # A worker took the injected SIGKILL; mirror its exit
                # code so the process-level crash semantics (and the
                # checkpoint/restart recovery story) match the
                # in-process engines.  Segments were just unlinked.
                os._exit(137)

        self.last_run_supervision = {
            **supervisor.report(),
            "tasks_requeued": tasks_requeued,
            "tiles_restored": tiles_restored,
            "stale_results": stale_results,
        }
        return run.finish()
