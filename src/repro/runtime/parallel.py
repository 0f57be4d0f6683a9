"""The threaded executor, and engine selection.

The paper's runtime (PaRSEC) extracts the concurrency of the tile
Cholesky DAG across worker threads; ``ParallelExecutionEngine`` is the
in-process analogue: N worker threads each call the scheduling core
(:class:`~repro.runtime.engine._Run`) under one condition variable —
no dispatcher thread, no hand-off per task:

* a task enters the ready pool the moment its last predecessor
  retires, and the pluggable :class:`~repro.runtime.scheduler.Scheduler`
  policies order the pool exactly as they order the serial traversal;
* the first kernel exception *fails fast*: queued tasks are abandoned,
  idle workers wake and exit, and the exception is re-raised in the
  calling thread once in-flight kernels retire;
* starvation is detected, not hung on: if every worker is idle, the
  ready pool is empty, and unfinished tasks remain, the run aborts
  with a diagnostic ``ValueError`` naming the stuck tasks.

Correctness leans on :func:`~repro.runtime.dag.build_graph`'s
RAW/WAR/WAW edges: two concurrently running tasks never touch the same
tile, so kernels need no per-tile locks.  ``debug=True`` *asserts*
that invariant at runtime with a per-tile ownership table instead of
trusting it silently.

The NumPy/SciPy tile kernels release the GIL inside BLAS/LAPACK, so
worker threads genuinely overlap on multicore hardware with no
pickling or shared-memory machinery.
"""

from __future__ import annotations

import os
import threading
import time
import warnings

from repro.config import (
    debug_from_env,
    stall_timeout_from_env,
    workers_from_env,
)
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.dag import TaskGraph
from repro.runtime.engine import ExecutionEngine, _Run
from repro.runtime.faults import FaultInjector, RetryPolicy
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import Task
from repro.runtime.tracing import Trace

__all__ = [
    "ParallelExecutionEngine",
    "resolve_workers",
    "resolve_engine",
    "engine_for",
    "stall_timeout_from_env",
    "scaled_stall_timeout",
]

#: Accepted executor names -> canonical form.  "mp" named the
#: process-pool executor deleted in PR 23 (it never beat serial on real
#: numerics); the frozen benchmark still spells it, so it runs threads.
_ENGINE_ALIASES = {"threads": "threads", "serial": "serial", "mp": "threads"}


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit value > $REPRO_WORKERS > 1.

    ``workers <= 0`` (explicit or from the environment) means "one per
    CPU core".
    """
    if workers is None:
        workers = workers_from_env()
        if workers is None:
            return 1
    workers = int(workers)
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


#: Safety multiplier applied to the longest-kernel estimate when
#: scaling the stall timeout.  Generous on purpose: the estimate is a
#: compute-bound floor calibrated for Shaheen-II cores, and CI machines
#: are slower and noisier.
_STALL_SAFETY = 25.0

#: The estimate's kernel, one Shaheen II core: 4 us of task overhead,
#: then the flops at the TLR kernel rate (30 % of 29 Gflop/s dgemm).
#: The roofline's memory term would only lengthen it, so it is left out.
_KERNEL_OVERHEAD_S, _KERNEL_FLOP_RATE = 4.0e-6, 29.0e9 * 0.30


def scaled_stall_timeout(base: float | None, graph) -> float | None:
    """Scale a stall timeout by the predicted longest kernel in ``graph``.

    A fixed ``$REPRO_STALL_TIMEOUT`` tuned on small tiles false-fires
    on large-tile POTRF/GEMM tasks that are still making progress —
    the watchdog only sees "no retirement in T seconds", and a single
    8192-tile POTRF legitimately takes that long.  The fix: never let
    the effective timeout drop below ``_STALL_SAFETY`` times the
    estimate for the most expensive single task in the graph.

    ``base is None`` (watchdog disabled) stays ``None``; the scaled
    value is never *smaller* than ``base``, so tightening is
    impossible — only false-positive relief.
    """
    if base is None:
        return None
    base = float(base)
    tasks = getattr(graph, "tasks", None)
    if not tasks:
        return base
    flops = max(max(float(t.flops) for t in tasks), 0.0)
    longest = _KERNEL_OVERHEAD_S + flops / _KERNEL_FLOP_RATE
    return max(base, _STALL_SAFETY * longest)


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an executor name (default threads) to ``"threads"`` or
    ``"serial"``; raises ``ValueError`` on anything else."""
    if engine is None:
        return "threads"
    name = str(engine).strip().lower()
    canonical = _ENGINE_ALIASES.get(name)
    if canonical is None:
        raise ValueError(
            f"unknown execution backend {engine!r}; expected one of "
            f"{sorted(set(_ENGINE_ALIASES.values()))}"
        )
    if canonical != name:
        warnings.warn(
            f"engine={engine!r}: the process-pool executor was removed in "
            f"PR 23; running the {canonical!r} executor instead",
            DeprecationWarning,
            stacklevel=2,
        )
    return canonical


def engine_for(
    workers: int | None,
    scheduler: Scheduler | None = None,
    fault_injector: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    verify_tiles: bool | None = None,
    engine: str | None = None,
) -> ExecutionEngine:
    """The cheapest engine that honours ``workers`` and ``engine``.

    One worker gets the serial :class:`ExecutionEngine` (no locks, no
    threads); more get a :class:`ParallelExecutionEngine` (GIL-bound
    Python glue, BLAS overlaps).  ``engine="serial"`` forces the
    serial engine at any worker count.  Fault injection, retry policy,
    and checksum verification are threaded into both.
    """
    n = resolve_workers(workers)
    backend = resolve_engine(engine)
    if n <= 1 or backend == "serial":
        return ExecutionEngine(
            scheduler,
            fault_injector=fault_injector,
            retry=retry,
            verify_tiles=verify_tiles,
        )
    return ParallelExecutionEngine(
        scheduler,
        workers=n,
        debug=debug_from_env(),
        fault_injector=fault_injector,
        retry=retry,
        stall_timeout=stall_timeout_from_env(),
        verify_tiles=verify_tiles,
    )


class ParallelExecutionEngine(ExecutionEngine):
    """Executes a task graph with ``workers`` threads.

    Kernel registration, scheduler policy, the scheduling core and the
    per-task dispatch are inherited from :class:`ExecutionEngine`; only
    who calls them is replaced.  A run produces the same per-tile
    arithmetic as the serial engine — every write sequence to a tile is
    ordered by the graph's edges — so factors are bitwise-reproducible
    across worker counts.

    Parameters
    ----------
    scheduler:
        Ready-pool ordering policy (default: priority).
    workers:
        Worker thread count (>= 1).
    debug:
        Verify the no-concurrent-tile-access invariant on every
        dispatch/retire (cheap: two dict passes per task under the
        already-held lock).  A violation aborts the run with
        ``ValueError`` — it means the graph builder under-constrained
        the DAG, and the factorization cannot be trusted.
    fault_injector / retry:
        Fault injection and transient-failure retry/rollback (see
        :class:`ExecutionEngine`).  Retry backoff sleeps happen in the
        worker thread, outside the pool lock.
    stall_timeout:
        Watchdog timeout in seconds (default: ``$REPRO_STALL_TIMEOUT``
        via :func:`engine_for`, else disabled).  If no task is
        dispatched or retired for this long while tasks remain, the
        run is aborted with a diagnostic ``ValueError`` reporting
        per-worker lane state — catching hung kernels that the logical
        starvation check (which needs every worker idle) cannot see.
        In-flight kernels cannot be interrupted; the error surfaces
        once they return.  Choose a timeout well above the slowest
        expected kernel (and above any retry backoff).
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        workers: int = 2,
        debug: bool = False,
        fault_injector: FaultInjector | None = None,
        retry: RetryPolicy | None = None,
        stall_timeout: float | None = None,
        verify_tiles: bool | None = None,
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
        self.workers = int(workers)
        self.debug = bool(debug)
        self.stall_timeout = stall_timeout

    # ------------------------------------------------------------------
    # debug-mode tile ownership: key -> [writer task | None, n_readers]
    # ------------------------------------------------------------------

    @staticmethod
    def _claim(owners: dict, task: Task) -> None:
        """Register ``task``'s tile accesses; raise on any overlap."""
        for acc in task.accesses:
            slot = owners.setdefault(acc.key, [None, 0])
            writer, readers = slot
            if acc.mode.writes:
                if writer is not None or readers:
                    raise ValueError(
                        f"tile ownership violation: {task} writes tile "
                        f"{acc.key} while it is held by "
                        f"{'a writer' if writer is not None else f'{readers} reader(s)'}"
                        " — the task graph under-constrains the DAG"
                    )
                slot[0] = task
            else:
                if writer is not None:
                    raise ValueError(
                        f"tile ownership violation: {task} reads tile "
                        f"{acc.key} while {writer} is writing it — the "
                        "task graph under-constrains the DAG"
                    )
                slot[1] += 1

    @staticmethod
    def _unclaim(owners: dict, task: Task) -> None:
        for acc in task.accesses:
            slot = owners[acc.key]
            if acc.mode.writes:
                slot[0] = None
            else:
                slot[1] -= 1

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------

    def run(
        self,
        graph: TaskGraph,
        data: object,
        trace: Trace | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> Trace:
        """Execute every task; returns the (thread-safely filled) trace.

        Same contract as :meth:`ExecutionEngine.run`, plus — in debug
        mode — ``ValueError`` when two concurrent tasks touch one tile.
        Due checkpoints are flushed by whichever worker notices,
        outside the pool lock.
        """
        run = _Run(self, graph, data, trace, checkpoint)
        if run.target:
            self._work(run)
        return run.finish()

    def _work(self, run: _Run) -> None:
        """Start the workers (and the watchdog) and join them."""
        graph, data = run.graph, run.data
        cond = threading.Condition()  # guards every run.* call but capture
        owners: dict = {}

        def worker(lane: int) -> None:
            while True:
                with cond:
                    while (i := run.pop(lane)) is None:
                        if run.over:
                            return
                        if not run.in_flight:
                            # Nothing ready, nothing in flight, tasks
                            # remain: the graph can never finish.
                            run.fail(run.stall_error())
                            cond.notify_all()
                            return
                        cond.wait()
                    task = graph.tasks[i]
                    if self.debug:
                        try:
                            self._claim(owners, task)
                        except ValueError as exc:
                            run.fail(exc, i)
                            cond.notify_all()
                            return
                start = time.perf_counter()
                try:
                    attempts = self._dispatch(task, data, run.expected, run.heal)
                    end = time.perf_counter()
                    flush_due = run.capture(i)
                except BaseException as exc:  # re-raised by finish()
                    with cond:
                        run.fail(exc, i)
                        cond.notify_all()
                    return
                with cond:
                    if self.debug:
                        self._unclaim(owners, task)
                    run.release(i, attempts, start, end, lane)
                    cond.notify_all()
                if flush_due:
                    # Single-writer inside flush(); concurrent callers
                    # return immediately and the due flag persists, so
                    # a skipped flush happens at the next retirement.
                    run.checkpoint.flush(data)

        stop_watchdog = threading.Event()

        def watchdog(timeout: float) -> None:
            poll = max(min(timeout / 5.0, 0.25), 0.005)
            while not stop_watchdog.wait(poll):
                with cond:
                    if run.over:
                        return
                    if run.stalled(timeout):
                        run.fail(run.stall_error(timeout))
                        cond.notify_all()
                        return

        threads = [
            threading.Thread(
                target=worker, args=(lane,), name=f"tlr-worker-{lane}"
            )
            for lane in range(min(self.workers, run.target))
        ]
        monitor = None
        if self.stall_timeout is not None:
            monitor = threading.Thread(
                target=watchdog,
                args=(scaled_stall_timeout(self.stall_timeout, graph),),
                name="tlr-stall-watchdog",
                daemon=True,
            )
            monitor.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if monitor is not None:
            stop_watchdog.set()
            monitor.join()
