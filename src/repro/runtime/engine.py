"""The scheduling core and the serial executor.

One runtime owns the DAG — readiness, retirement, integrity, the
checkpoint frontier, stall diagnostics — and only *who executes a task
body* varies (PaRSEC's shape in the source paper):

``_Run``
    The scheduling state of one ``run`` call, written once.  A passive
    monitor object: the executor calls ``pop`` / ``capture`` /
    ``release`` / ``finish`` from whatever thread it likes and supplies
    its own mutual exclusion (none for the serial executor, a
    condition variable for the threaded one).
``ExecutionEngine._dispatch``
    One task through fault injection, operand verification and
    retry/rollback.  Runs unchanged in the caller or a worker thread.
``ExecutionEngine``
    The serial executor: the caller's thread pops, dispatches and
    retires.  On one node this is a faithful (serialized) PaRSEC
    analogue, and its trace calibrates the distributed simulator.

:mod:`repro.runtime.parallel` (threads) is the other executor.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable

from repro.linalg.integrity import tile_checksum
from repro.runtime.checkpoint import (
    CheckpointManager,
    ChecksumLedger,
    verify_tiles_from_env,
)
from repro.runtime.dag import TaskGraph
from repro.runtime.faults import (
    FaultInjector,
    RetryPolicy,
    TaskFailedError,
    TileCorruptionError,
    restore_writes,
    snapshot_writes,
)
from repro.runtime.scheduler import Scheduler, PriorityScheduler
from repro.runtime.task import Task
from repro.runtime.tracing import Trace, TraceEvent

__all__ = ["ExecutionEngine"]

#: A kernel takes (task, data_store) and mutates the store.
Kernel = Callable[[Task, object], None]

#: Retry disabled: a transient failure immediately becomes TaskFailedError.
_NO_RETRY = RetryPolicy(max_retries=0)


def _verified(
    keys: Iterable, store, expected: Callable, heal: Callable | None, what: str
) -> dict:
    """Checksum tiles against ``expected(key)``; heal or raise.

    Returns the tile objects that hashed clean: the caller consumes
    those, so "verified" and "consumed" can never differ.  Keys
    without a recorded digest pass.
    """
    clean = {}
    for key in sorted(keys):
        tile = store.tile(*key)
        want = expected(key)
        if want is not None and tile_checksum(tile) != want:
            if heal is not None and heal(key):
                tile = store.tile(*key)
            if tile_checksum(tile) != want:
                raise TileCorruptionError(
                    f"{what}: tile {key} failed checksum verification — "
                    "silent data corruption detected; its bytes must not "
                    "be used"
                )
        clean[key] = tile
    return clean


class _PinnedReads:
    """Store proxy handing a kernel exactly the operands that were verified.

    Checking ``store.tile(key)`` and then letting the kernel fetch
    ``store.tile(key)`` again leaves a window for a concurrent at-rest
    flip to land in — and for a heal to undo it afterwards, which
    republishes the *same* clean reference, so comparing identities
    before and after is ABA-unsafe.  Built only when verification is
    on; everything but ``tile`` / ``set_tile`` falls through.
    """

    __slots__ = ("_store", "_pinned")

    def __init__(self, store, pinned: dict) -> None:
        self._store = store
        self._pinned = pinned

    def tile(self, m: int, k: int):
        tile = self._pinned.get((m, k))
        return self._store.tile(m, k) if tile is None else tile

    def set_tile(self, m: int, k: int, tile) -> None:
        self._pinned.pop((m, k), None)  # read-after-write sees the new tile
        self._store.set_tile(m, k, tile)

    def __getattr__(self, name: str):
        return getattr(self._store, name)


class _Run:
    """Scheduling state of one ``run`` call — the one copy of the DAG
    state machine.

    Passive: it starts no thread and takes no lock.  The serial
    executor calls it from a single thread; the threaded executor calls
    ``pop`` / ``release`` / ``fail`` under its condition variable and
    ``capture`` (which hashes tiles) outside it.
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        graph: TaskGraph,
        data: object,
        trace: Trace | None,
        checkpoint: CheckpointManager | None,
    ) -> None:
        self.engine = engine
        self.graph = graph
        self.tasks = graph.tasks
        self.data = data
        self.trace = trace if trace is not None else Trace()
        self.checkpoint = checkpoint
        self.scheduler = engine.scheduler
        engine.last_run_retries = engine.last_run_resumed = 0
        missing = {t.klass for t in graph.tasks} - set(engine._kernels)
        if missing:
            raise KeyError(
                f"no kernel registered for task class(es) {sorted(missing)}"
            )
        n = len(graph)
        self.indegree = [graph.in_degree(i) for i in range(n)]
        skipped = self._frontier()
        engine.last_run_resumed = len(skipped)
        #: tasks that must retire this run (graph minus the frontier)
        self.target = n - len(skipped)
        self.completed = 0
        self.retries = 0
        #: popped and not yet retired: task index -> worker lane
        self.in_flight: dict[int, int] = {}
        self.failure: BaseException | None = None

        # A checkpoint manager always brings its ledger (its files
        # carry the recorded checksums); verification without one gets a
        # run-local ledger seeded from the operator's initial tiles.
        verify = engine.verify_tiles
        verify = verify_tiles_from_env() if verify is None else bool(verify)
        self.ledger: ChecksumLedger | None = None
        if checkpoint is not None:
            self.ledger = checkpoint.ledger
        elif verify:
            self.ledger = ChecksumLedger()
            if hasattr(data, "tile") and hasattr(data, "__iter__"):
                self.ledger.seed(data)
        #: operand-digest lookup for ``_dispatch`` (None: verification off)
        self.expected = self.ledger.expected if verify else None
        #: in-place healer for ``_dispatch`` (None: nothing to heal from)
        self.heal = (
            (lambda key: checkpoint.heal(data, key))
            if checkpoint is not None
            else None
        )

        for i in range(n):
            if self.indegree[i] == 0 and graph.tasks[i].uid not in skipped:
                self.scheduler.push(i, graph.tasks[i])
        #: ``perf_counter`` stamps: run start, and the last retirement
        #: (watchdog input; a pop always directly follows one)
        self.t0 = self.last_progress = time.perf_counter()

    def _frontier(self) -> frozenset:
        """Adopt the checkpoint frontier: pre-retire its completed tasks.

        Binds the manager (a no-op if ``tlr_cholesky(resume_from=...)``
        already did).  The frontier is downward-closed — a task only
        retires after its predecessors — so what remains is exactly
        the unfinished work.
        """
        if self.checkpoint is None:
            return frozenset()
        self.checkpoint.bind(self.graph, self.data)
        completed = self.checkpoint.completed_uids
        if completed:
            for i, task in enumerate(self.tasks):
                if task.uid in completed:
                    for j in self.graph.successors.get(i, ()):
                        self.indegree[j] -= 1
        return completed

    @property
    def over(self) -> bool:
        """Failed or complete: nothing further may start."""
        return self.failure is not None or self.completed == self.target

    def pop(self, worker: int = 0) -> int | None:
        """Start the next ready task on ``worker``; ``None`` when the
        pool is empty or the run has already failed."""
        if self.failure is not None or len(self.scheduler) == 0:
            return None
        i = self.scheduler.pop()
        self.in_flight[i] = worker
        return i

    def capture(self, i: int) -> bool:
        """Record task ``i``'s outputs; True when a checkpoint is due.

        Must run before :meth:`release` publishes the successors: until
        then no other task can replace the tiles this one wrote, so
        the ledgered and checkpointed references are exactly its
        outputs.  Hashes tiles, so call it outside any lock.
        """
        task = self.tasks[i]
        if self.ledger is not None:
            for key in set(task.writes):
                self.ledger.record(key, self.data.tile(*key))
        return self.checkpoint is not None and self.checkpoint.task_retired(
            task, self.data
        )

    def release(
        self,
        i: int,
        attempts: int,
        start: float,
        end: float,
        worker: int = 0,
    ) -> None:
        """Retire task ``i``: trace it, count it, publish its successors.

        ``start`` / ``end`` are ``time.perf_counter()`` stamps.
        """
        task = self.tasks[i]
        self.trace.record(
            TraceEvent(
                task.klass,
                task.params,
                start - self.t0,
                end - self.t0,
                flops=task.flops,
                worker=worker,
            )
        )
        del self.in_flight[i]
        self.completed += 1
        self.retries += attempts
        self.last_progress = end
        for j in self.graph.successors.get(i, ()):
            self.indegree[j] -= 1
            if self.indegree[j] == 0:
                self.scheduler.push(j, self.tasks[j])

    def retire(self, i: int, attempts: int, start: float, end: float) -> None:
        """capture + release + due flush, for an executor that holds no lock."""
        flush_due = self.capture(i)
        self.release(i, attempts, start, end)
        if flush_due:
            self.checkpoint.flush(self.data)

    def fail(self, exc: BaseException, i: int | None = None) -> None:
        """Record a failure (the first one wins); ``i`` leaves flight."""
        if i is not None:
            self.in_flight.pop(i, None)
        if self.failure is None:
            self.failure = exc

    def stalled(self, timeout: float) -> bool:
        """No task started or retired for ``timeout`` seconds."""
        return time.perf_counter() - self.last_progress >= timeout

    def stall_error(self, timeout: float | None = None) -> ValueError:
        """The diagnostic for a run that cannot or does not progress.

        Without ``timeout``: logical starvation — nothing ready, nothing
        in flight, tasks remain — naming the blocked tasks.  With it:
        the watchdog's "nothing moved for this long".
        """
        lanes = "; ".join(
            f"lane {lane}: running {self.tasks[i]}"
            for i, lane in sorted(self.in_flight.items(), key=lambda kv: kv[1])
        ) or "nothing in flight"
        if timeout is not None:
            return ValueError(
                f"execution stalled: no task dispatched or retired in "
                f"{time.perf_counter() - self.last_progress:.3g}s "
                f"(stall_timeout={timeout:.3g}s) with "
                f"{self.target - self.completed} of {self.target} tasks "
                f"outstanding [{lanes}]"
            )
        # Blocked = a predecessor never retired.  (Frontier tasks sit at
        # indegree 0: their predecessors are in the frontier too.)
        stuck = [
            str(t) for t, deg in zip(self.tasks, self.indegree) if deg > 0
        ]
        shown = ", ".join(stuck[:8])
        if len(stuck) > 8:
            shown += f", ... ({len(stuck) - 8} more)"
        return ValueError(
            f"execution stalled with {len(stuck)} of {self.target} tasks "
            f"blocked (cycle or unsatisfiable dependencies): {shown} [{lanes}]"
        )

    def finish(self) -> Trace:
        """Epilogue: raise the failure, else sweep and return the trace."""
        self.engine.last_run_retries = self.retries
        if self.failure is None and self.completed != self.target:
            self.failure = self.stall_error()
        if self.failure is not None:
            # Drain the ready pool so a reused scheduler starts clean.
            while self.scheduler:
                self.scheduler.pop()
            raise self.failure
        if self.expected is not None:
            # Tiles whose final value no task read (e.g. the last
            # writer's output) are invisible to the per-read checks.
            _verified(
                self.ledger.keys(),
                self.data,
                self.expected,
                self.heal,
                "post-run integrity sweep",
            )
        if self.checkpoint is not None:
            # A retirement that fell due while another worker was
            # writing skipped its flush, and after the last one no
            # "next retirement" retries it.
            self.checkpoint.flush(self.data)
        return self.trace


class ExecutionEngine:
    """Schedules and executes a task graph with registered kernels.

    Parameters
    ----------
    scheduler:
        Ready-queue ordering policy (default: priority).
    fault_injector:
        Optional :class:`~repro.runtime.faults.FaultInjector` wrapping
        every kernel dispatch (testing / chaos engineering).
    retry:
        Optional :class:`~repro.runtime.faults.RetryPolicy`.  When
        set, a transient kernel failure rolls the task's output tiles
        back to their pre-attempt state and re-runs with backoff, so a
        retried run is bitwise identical to a fault-free one.
        Exhausted retries (and, with no policy, any transient failure)
        raise :class:`~repro.runtime.faults.TaskFailedError`.
    verify_tiles:
        Verify every operand tile's SHA-256 checksum before each
        kernel consumes it, and sweep every tile once at run end —
        ABFT-style silent-data-corruption detection.  ``None``
        (default) defers to ``$REPRO_VERIFY_TILES``.  A mismatch first
        tries to heal from the checkpoint manager's last-known-good
        reference, then raises
        :class:`~repro.runtime.faults.TileCorruptionError` (a
        transient, so the retry policy applies).
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        verify_tiles: bool | None = None,
    ) -> None:
        self.scheduler = scheduler if scheduler is not None else PriorityScheduler()
        self.fault_injector = fault_injector
        self.retry = retry
        self.verify_tiles = verify_tiles
        #: retried attempts accumulated over the most recent run
        self.last_run_retries = 0
        #: tasks skipped by the checkpoint frontier on the last run
        self.last_run_resumed = 0
        self._kernels: dict[str, Kernel] = {}

    def register(self, klass: str, kernel: Kernel) -> None:
        """Bind a task class name to its computational kernel."""
        if klass in self._kernels:
            raise ValueError(f"kernel for task class {klass!r} already registered")
        self._kernels[klass] = kernel

    def _dispatch(
        self,
        task: Task,
        store: object,
        expected: Callable | None = None,
        heal: Callable | None = None,
    ) -> int:
        """Run one task through fault injection and retry/rollback.

        Returns the number of retries performed.  Exceptions outside
        the retry policy's transient set propagate unchanged
        (fail-fast); transient ones that exhaust the budget are
        wrapped in :class:`TaskFailedError`.

        ``expected`` (key -> digest) switches on operand verification:
        before each attempt every operand is checksummed — a corrupt
        one healed through ``heal(key)`` or failed as a transient
        :class:`TileCorruptionError` — and the kernel is handed the
        very objects that hashed clean.
        """
        kernel = self._kernels[task.klass]
        injector = self.fault_injector
        if injector is None and self.retry is None and expected is None:
            kernel(task, store)
            return 0
        retry = self.retry if self.retry is not None else _NO_RETRY
        # Snapshot only when a rollback can actually be replayed: with
        # retry disabled the first transient failure is terminal
        # (TaskFailedError, factor discarded), so pre-attempt snapshots
        # would be pure overhead on every clean dispatch.
        rollback = retry.max_retries > 0
        attempt = 0
        while True:
            snapshot = snapshot_writes(task, store) if rollback else None
            pinned: dict = {}
            try:
                operands = store
                if expected is not None:
                    pinned = _verified(
                        set(task.reads), store, expected, heal, f"{task}: operand"
                    )
                    operands = _PinnedReads(store, dict(pinned))
                if injector is not None:
                    injector.invoke(kernel, task, operands, attempt)
                else:
                    kernel(task, operands)
                return attempt
            except Exception as exc:
                if not isinstance(exc, retry.retry_on):
                    # A kernel that blew up (say LinAlgError from POTRF)
                    # on operands that no longer hash clean was fed
                    # corruption: surface that, typed, so retry/heal
                    # applies.  With clean operands — and always with
                    # verification off — the original propagates.
                    bad = [
                        key
                        for key, tile in pinned.items()
                        if expected(key) not in (None, tile_checksum(tile))
                    ]
                    if not bad:
                        raise
                    corruption = TileCorruptionError(
                        f"{task}: operand tile(s) {sorted(bad)} failed "
                        f"checksum verification after the kernel raised "
                        f"{type(exc).__name__}: {exc}"
                    )
                    corruption.__cause__ = exc
                    exc = corruption
                    if not isinstance(exc, retry.retry_on):
                        raise exc
                restore_writes(task, store, snapshot)
                if attempt >= retry.max_retries:
                    raise TaskFailedError(task, attempt + 1, exc) from exc
                pause = retry.delay(attempt)
                if pause > 0.0:
                    time.sleep(pause)
                attempt += 1

    def run(
        self,
        graph: TaskGraph,
        data: object,
        trace: Trace | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> Trace:
        """Execute every task in dependency order.

        Returns the trace (a fresh one unless ``trace`` is supplied).
        Raises the first kernel exception (fail-fast), ``KeyError``
        before any kernel runs if a task class has no registered
        kernel, and ``ValueError`` if the graph stalls (a cycle, or
        dependencies nothing can satisfy).  With ``checkpoint``, tasks inside
        the manager's completed frontier are skipped and a checkpoint
        is flushed whenever the manager's cadence says one is due.
        """
        run = _Run(self, graph, data, trace, checkpoint)
        try:
            while (i := run.pop()) is not None:
                start = time.perf_counter()
                attempts = self._dispatch(
                    run.tasks[i], data, run.expected, run.heal
                )
                run.retire(i, attempts, start, time.perf_counter())
        except BaseException as exc:  # re-raised by finish()
            run.fail(exc)
        return run.finish()
