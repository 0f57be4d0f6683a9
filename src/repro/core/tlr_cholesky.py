"""Numeric TLR Cholesky driver over the in-process runtime engine.

Builds the (optionally trimmed) left-looking task graph, registers the
four TLR kernels against the matrix, and lets the engine execute the
DAG under the chosen scheduler.  Every target tile receives all of its
updates from one task — ``SYRK(n)`` or ``GEMM(m, n)`` reads the tile's
whole panel list — so an off-diagonal tile is rounded exactly once, on
its way to its TRSM.  The factorization happens in place: on return
the matrix's lower triangle holds the TLR Cholesky factor (diagonal
tiles hold dense ``L[k,k]``; off-diagonal tiles hold compressed
``L[m,k]``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.analysis import TrimmingAnalysis, analyze_ranks
from repro.core.trimming import cholesky_tasks
from repro.runtime.checkpoint import Checkpoint, CheckpointManager, load_checkpoint
from repro.linalg.kernels_dense import DiagonalShiftPolicy
from repro.linalg.kernels_tlr import (
    gemm_update,
    potrf_tile,
    potrf_tile_shifted,
    syrk_update,
    trsm_tile,
)
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.dag import TaskGraph, build_graph
from repro.runtime.engine import ExecutionEngine
from repro.runtime.faults import FaultInjector, RetryPolicy
from repro.runtime.parallel import engine_for
from repro.runtime.scheduler import PriorityScheduler, Scheduler
from repro.runtime.task import Task
from repro.runtime.tracing import Trace

__all__ = ["FactorizationResult", "tlr_cholesky", "register_cholesky_kernels"]


@dataclass
class FactorizationResult:
    """Everything a caller or benchmark needs from one factorization."""

    #: the matrix, now holding the TLR Cholesky factor in place
    factor: TLRMatrix
    #: the executed task graph
    graph: TaskGraph
    #: per-task execution trace
    trace: Trace
    #: trimming analysis (None for untrimmed runs)
    analysis: TrimmingAnalysis | None
    #: wall-clock seconds for graph construction + analysis
    setup_seconds: float
    #: wall-clock seconds for task execution
    execute_seconds: float
    #: diagonal shifts applied by the degradation policy, keyed by
    #: diagonal tile index k (empty when no POTRF needed regularizing)
    diagonal_shifts: dict[int, float] = field(default_factory=dict)
    #: transient-failure retries performed by the execution engine
    retries: int = 0
    #: tasks skipped by resuming from a checkpoint frontier
    resumed_tasks: int = 0
    #: checkpoints written during this run
    checkpoints_written: int = 0
    #: corrupt tiles healed in place from last-known-good references
    tiles_healed: int = 0

    @property
    def elapsed(self) -> float:
        return self.setup_seconds + self.execute_seconds

    def residual(self, dense_a: np.ndarray) -> float:
        """Relative Frobenius residual ``||A - L L^T|| / ||A||``."""
        l = np.tril(self.factor.to_dense(symmetrize=False))
        return float(
            np.linalg.norm(dense_a - l @ l.T) / np.linalg.norm(dense_a)
        )


def register_cholesky_kernels(
    engine: ExecutionEngine,
    shift_policy: DiagonalShiftPolicy | None = None,
    shift_report: dict[int, float] | None = None,
) -> None:
    """Bind POTRF/TRSM/SYRK/GEMM to their TLR tile kernels.

    The data store is the :class:`TLRMatrix` itself; kernels read and
    replace tiles through its accessors, so null-tile no-ops (in
    untrimmed runs) still pass through the runtime — that per-task
    overhead is exactly what DAG trimming removes.  SYRK and GEMM are
    the accumulating kernels: their operands are the task's read-only
    accesses, in declared (ascending-panel) order.

    With a ``shift_policy``, a non-SPD diagonal tile is regularized by
    escalating diagonal shifts instead of aborting; nonzero shifts are
    recorded into ``shift_report`` keyed by diagonal tile index (each
    POTRF task writes a distinct key, so the dict needs no lock).
    """

    def k_potrf(task: Task, a: TLRMatrix) -> None:
        (k,) = task.params
        if shift_policy is None:
            a.set_tile(k, k, potrf_tile(a.tile(k, k)))
            return
        l_kk, shift = potrf_tile_shifted(a.tile(k, k), shift_policy)
        a.set_tile(k, k, l_kk)
        if shift and shift_report is not None:
            shift_report[k] = shift

    def k_trsm(task: Task, a: TLRMatrix) -> None:
        m, k = task.params
        a.set_tile(m, k, trsm_tile(a.tile(k, k), a.tile(m, k)))

    def k_syrk(task: Task, a: TLRMatrix) -> None:
        (n,) = task.params
        panels = [a.tile(*key) for key in task.inputs]
        a.set_tile(n, n, syrk_update(a.tile(n, n), panels))

    def k_gemm(task: Task, a: TLRMatrix) -> None:
        m, n = task.params
        # inputs are (m, k), (n, k) for each contributing k, ascending
        operands = [a.tile(*key) for key in task.inputs]
        a.set_tile(
            m,
            n,
            gemm_update(
                a.tile(m, n),
                zip(operands[0::2], operands[1::2]),
                tol=a.accuracy,
                max_rank=a.max_rank,
            ),
        )

    engine.register("POTRF", k_potrf)
    engine.register("TRSM", k_trsm)
    engine.register("SYRK", k_syrk)
    engine.register("GEMM", k_gemm)


def tlr_cholesky(
    a: TLRMatrix,
    trim: bool = True,
    scheduler: Scheduler | None = None,
    workers: int | None = None,
    fault_injector: FaultInjector | None = None,
    retry: RetryPolicy | None = None,
    shift_policy: DiagonalShiftPolicy | None = None,
    checkpoint: CheckpointManager | str | os.PathLike | None = None,
    resume_from: Checkpoint | str | os.PathLike | None = None,
    verify_tiles: bool | None = None,
    engine: str | None = None,
) -> FactorizationResult:
    """Factorize a TLR matrix in place: ``A = L L^T``.

    Left-looking: tile ``(m, n)`` is produced by one ``GEMM(m, n)``
    task that subtracts every contributing panel product in one dense
    accumulation and rounds the result once (the build's exact-rank
    compression: gesdd's rank at ``a.accuracy``), then by its
    ``TRSM(m, n)``; ``O(NT^2)`` tasks.  The factor is a pure function
    of the operator's tiles.

    Parameters
    ----------
    a:
        The compressed SPD operator (mutated into the factor).
    trim:
        Run Algorithm 1 and trim the DAG (the paper's optimization):
        panel lists hold only symbolically non-zero pairs and null
        tiles get no task.  ``False`` reproduces the baseline full
        dense DAG (every ``k < n``, every ``m > n``); same factor.
    scheduler:
        Ready-queue policy (default: priority, PaRSEC-like).
    workers:
        Worker threads executing the DAG.  ``None`` defaults to
        ``$REPRO_WORKERS`` (else 1, the serial engine); ``<= 0`` means
        one per CPU core.  The DAG's RAW/WAR/WAW edges order every
        tile access, so the computed factor is identical across worker
        counts.

    fault_injector:
        Optional deterministic fault injection wrapping every kernel
        dispatch (see :mod:`repro.runtime.faults`).
    retry:
        Per-task transient-failure retry with tile rollback and capped
        exponential backoff; a retried run produces a factor bitwise
        identical to a fault-free run.  Without a policy, an injected
        transient fault raises
        :class:`~repro.runtime.faults.TaskFailedError`.
    shift_policy:
        Numerical degradation for borderline-SPD operators: a non-SPD
        POTRF retries with escalating diagonal shifts, reported in
        ``result.diagonal_shifts``.  ``None`` (default) keeps the
        strict fail-on-indefinite behavior below.
    checkpoint:
        A :class:`~repro.runtime.checkpoint.CheckpointManager` (or a
        directory, wrapping one with default cadence) persisting the
        completed-task frontier + dirty tiles so a killed run can be
        resumed.
    resume_from:
        A loaded :class:`~repro.runtime.checkpoint.Checkpoint` or a
        path to a checkpoint directory/file.  ``a`` must be the
        *pristine* operator, rebuilt exactly as the interrupted run
        built it; the checkpoint's tiles are overlaid and only
        unfinished tasks execute, so the resumed factor is bitwise
        identical to an uninterrupted run.  A nonexistent/empty
        directory simply runs from scratch (crash-before-first-
        checkpoint friendly); a checkpoint from a *different*
        factorization raises ``ValueError``.
    verify_tiles:
        Per-kernel SHA-256 operand verification + end-of-run sweep
        (default: ``$REPRO_VERIFY_TILES``); see
        :class:`~repro.runtime.engine.ExecutionEngine`.
    engine:
        Executor at ``workers > 1``: ``"threads"`` (default; GIL-bound
        Python glue, BLAS overlaps) or ``"serial"``.  Both produce
        bitwise-identical factors.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a diagonal tile loses positive definiteness — typically the
        compression accuracy is too loose for the operator's
        conditioning (tighten ``accuracy``, increase the generator's
        ``nugget``, or pass a ``shift_policy``).
    repro.runtime.faults.TaskFailedError
        If a task exhausts its transient-failure retry budget.
    """
    t0 = time.perf_counter()
    nt = a.n_tiles
    ranks = a.rank_matrix()
    analysis = analyze_ranks(ranks, nt) if trim else None
    rows = ranks.tolist()  # Python ints: one list lookup per rank read
    tasks = cholesky_tasks(
        nt,
        analysis=analysis,
        tile_size=a.tile_size,
        rank_of=lambda m, k: rows[m][k],
    )
    graph = build_graph(tasks)

    manager: CheckpointManager | None
    if checkpoint is None or isinstance(checkpoint, CheckpointManager):
        manager = checkpoint
    else:
        manager = CheckpointManager(checkpoint)
    if resume_from is not None and not isinstance(resume_from, Checkpoint):
        resume_from = load_checkpoint(resume_from)  # None when dir is empty
    if resume_from is not None:
        if manager is None:
            # Resuming without a manager still needs frontier/heal
            # bookkeeping; keep writing alongside the old checkpoints.
            manager = CheckpointManager(resume_from.path.parent)
        manager.bind(graph, a, resume=resume_from)
    setup = time.perf_counter() - t0

    eng = engine_for(
        workers,
        scheduler if scheduler is not None else PriorityScheduler(),
        fault_injector=fault_injector,
        retry=retry,
        verify_tiles=verify_tiles,
        engine=engine,
    )
    shifts: dict[int, float] = {}
    register_cholesky_kernels(
        eng, shift_policy=shift_policy, shift_report=shifts
    )
    t1 = time.perf_counter()
    trace = eng.run(graph, a, checkpoint=manager)
    execute = time.perf_counter() - t1

    return FactorizationResult(
        factor=a,
        graph=graph,
        trace=trace,
        analysis=analysis,
        setup_seconds=setup,
        execute_seconds=execute,
        diagonal_shifts=shifts,
        retries=eng.last_run_retries,
        resumed_tasks=manager.resumed_tasks if manager is not None else 0,
        checkpoints_written=(
            manager.checkpoints_written if manager is not None else 0
        ),
        tiles_healed=manager.tiles_healed if manager is not None else 0,
    )
