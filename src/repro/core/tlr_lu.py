"""TLR LU factorization — the framework's non-symmetric path.

Demonstrates the paper's generality claim on the LU factorization
used by the group's acoustic-BEM solver (ref. [11]): the same task
classes, trimming analysis and runtime machinery apply, with the
symmetric panel replaced by separate left (L) and top (U) panels.

``tlr_lu`` factorizes a :class:`~repro.linalg.general_matrix.
GeneralTLRMatrix` in place: after the call, tile ``(k, k)`` holds the
packed ``L\\U`` factors, tiles below the diagonal hold ``L[m,k]``,
and tiles above hold ``U[k,n]``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from repro.config import DTYPE
from repro.linalg.general_matrix import GeneralTLRMatrix
from repro.linalg.kernels_lu import (
    gemm_lu_tile,
    getrf_tile,
    trsm_l_tile,
    trsm_u_tile,
)
from repro.linalg.tile import DenseTile, LowRankTile, NullTile
from repro.runtime.dag import TaskGraph, build_graph
from repro.runtime.parallel import engine_for
from repro.runtime.scheduler import PriorityScheduler
from repro.runtime.task import Task, make_task
from repro.runtime.tracing import Trace

__all__ = ["LUAnalysis", "analyze_ranks_lu", "lu_tasks", "tlr_lu",
           "LUFactorizationResult", "solve_lu"]


@dataclass
class LUAnalysis:
    """Algorithm 1 generalized to LU (independent L and U panels)."""

    nt: int
    #: rows m > k with non-zero (m, k) at panel-k time
    left: list[list[int]]
    #: cols n > k with non-zero (k, n) at panel-k time
    top: list[list[int]]
    final_nonzero: np.ndarray
    initial_nonzero: np.ndarray

    def final_density(self) -> float:
        nt = self.nt
        if nt < 2:
            return 1.0
        off = nt * nt - nt
        return (int(self.final_nonzero.sum()) - nt) / off

    def task_counts(self) -> dict[str, int]:
        n_gemm = sum(
            len(self.left[k]) * len(self.top[k]) for k in range(self.nt)
        )
        return {
            "GETRF": self.nt,
            "TRSM_L": sum(len(v) for v in self.left),
            "TRSM_U": sum(len(v) for v in self.top),
            "GEMM": n_gemm,
        }


def analyze_ranks_lu(rank: np.ndarray, nt: int) -> LUAnalysis:
    """Symbolic LU factorization of the full-grid rank pattern.

    Fill rule: ``(m, n)`` becomes non-zero when panel ``k`` has both
    ``(m, k)`` and ``(k, n)`` non-zero — the outer-product update of
    the LU Schur complement.
    """
    rank = np.asarray(rank)
    if rank.shape != (nt, nt):
        raise ValueError(f"rank must be (NT, NT), got {rank.shape}")
    nonzero = rank > 0
    nonzero = nonzero.copy()
    np.fill_diagonal(nonzero, True)
    initial = nonzero.copy()
    left: list[list[int]] = [[] for _ in range(nt)]
    top: list[list[int]] = [[] for _ in range(nt)]
    for k in range(nt - 1):
        rows = [m for m in range(k + 1, nt) if nonzero[m, k]]
        cols = [n for n in range(k + 1, nt) if nonzero[k, n]]
        left[k] = rows
        top[k] = cols
        if rows and cols:
            nonzero[np.ix_(rows, cols)] = True
    return LUAnalysis(nt, left, top, nonzero, initial)


def lu_tasks(nt: int, analysis: LUAnalysis | None = None) -> list[Task]:
    """Sequential enumeration of tile-LU tasks (full or trimmed)."""
    if nt < 1:
        raise ValueError(f"nt must be >= 1, got {nt}")
    tasks: list[Task] = []

    def prio(klass: str, k: int) -> float:
        base = float((nt - k) * 10)
        return base + {"GETRF": 9.0, "TRSM_L": 6.0, "TRSM_U": 6.0, "GEMM": 2.0}[
            klass
        ]

    def mk(klass, params, **kw):
        t = make_task(klass, params, **kw)
        return Task(t.klass, t.params, t.accesses, priority=prio(klass, params[-1]))

    for k in range(nt):
        tasks.append(mk("GETRF", (k,), rw=[(k, k)]))
        rows = analysis.left[k] if analysis else list(range(k + 1, nt))
        cols = analysis.top[k] if analysis else list(range(k + 1, nt))
        for m in rows:
            tasks.append(mk("TRSM_L", (m, k), reads=[(k, k)], rw=[(m, k)]))
        for n in cols:
            tasks.append(mk("TRSM_U", (k, n), reads=[(k, k)], rw=[(k, n)]))
        for m in rows:
            for n in cols:
                tasks.append(
                    mk("GEMM", (m, n, k), reads=[(m, k), (k, n)], rw=[(m, n)])
                )
    return tasks


@dataclass
class LUFactorizationResult:
    factor: GeneralTLRMatrix
    graph: TaskGraph
    trace: Trace
    analysis: LUAnalysis | None
    elapsed: float

    def residual(self, dense_a: np.ndarray) -> float:
        """``||A - L U|| / ||A||`` from the packed factor."""
        packed = self.factor.to_dense()
        l = np.tril(packed, -1) + np.eye(self.factor.n)
        u = np.triu(packed)
        return float(
            np.linalg.norm(dense_a - l @ u) / np.linalg.norm(dense_a)
        )


def tlr_lu(
    a: GeneralTLRMatrix,
    trim: bool = True,
    workers: int | None = None,
    engine: str | None = None,
) -> LUFactorizationResult:
    """Factorize ``A = L U`` in place over the runtime engine.

    ``workers`` and ``engine`` follow the same conventions as
    :func:`~repro.core.tlr_cholesky.tlr_cholesky`: ``workers=None``
    defers to ``$REPRO_WORKERS`` (else serial), ``<= 0`` means one per
    core; ``engine`` is ``"threads"`` (default) or ``"serial"``.
    """
    t0 = time.perf_counter()
    nt = a.n_tiles
    analysis = analyze_ranks_lu(a.rank_matrix(), nt) if trim else None
    graph = build_graph(lu_tasks(nt, analysis))

    eng = engine_for(workers, PriorityScheduler(), engine=engine)

    def k_getrf(task: Task, m: GeneralTLRMatrix) -> None:
        (k,) = task.params
        m.set_tile(k, k, getrf_tile(m.tile(k, k)))

    def k_trsm_l(task: Task, mat: GeneralTLRMatrix) -> None:
        m, k = task.params
        mat.set_tile(m, k, trsm_l_tile(mat.tile(k, k), mat.tile(m, k)))

    def k_trsm_u(task: Task, mat: GeneralTLRMatrix) -> None:
        k, n = task.params
        mat.set_tile(k, n, trsm_u_tile(mat.tile(k, k), mat.tile(k, n)))

    def k_gemm(task: Task, mat: GeneralTLRMatrix) -> None:
        m, n, k = task.params
        mat.set_tile(
            m,
            n,
            gemm_lu_tile(
                mat.tile(m, n),
                mat.tile(m, k),
                mat.tile(k, n),
                tol=mat.accuracy,
                max_rank=mat.max_rank,
            ),
        )

    eng.register("GETRF", k_getrf)
    eng.register("TRSM_L", k_trsm_l)
    eng.register("TRSM_U", k_trsm_u)
    eng.register("GEMM", k_gemm)
    trace = eng.run(graph, a)
    return LUFactorizationResult(
        factor=a,
        graph=graph,
        trace=trace,
        analysis=analysis,
        elapsed=time.perf_counter() - t0,
    )


def _apply_tile(tile, x: np.ndarray) -> np.ndarray:
    if isinstance(tile, NullTile):
        return np.zeros((tile.shape[0], x.shape[1]), dtype=DTYPE)
    if isinstance(tile, LowRankTile):
        return tile.u @ (tile.v.T @ x)
    return tile.data @ x


def solve_lu(factor: GeneralTLRMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the packed TLR LU factor."""
    x = np.asarray(b, dtype=DTYPE)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    x = x.copy()
    if x.shape[0] != factor.n:
        raise ValueError(f"rhs has {x.shape[0]} rows, order is {factor.n}")
    bs = factor.tile_size
    nt = factor.n_tiles

    # forward: L y = b (unit lower)
    for k in range(nt):
        lo, hi = k * bs, min((k + 1) * bs, factor.n)
        diag = factor.tile(k, k)
        if not isinstance(diag, DenseTile):
            raise TypeError("diagonal factor tiles must be dense")
        x[lo:hi] = sla.solve_triangular(
            diag.data, x[lo:hi], lower=True, unit_diagonal=True,
            check_finite=False,
        )
        for m in range(k + 1, nt):
            tile = factor.tile(m, k)
            if tile.is_null:
                continue
            mlo, mhi = m * bs, min((m + 1) * bs, factor.n)
            x[mlo:mhi] -= _apply_tile(tile, x[lo:hi])

    # backward: U x = y
    for k in range(nt - 1, -1, -1):
        lo, hi = k * bs, min((k + 1) * bs, factor.n)
        for n in range(k + 1, nt):
            tile = factor.tile(k, n)
            if tile.is_null:
                continue
            nlo, nhi = n * bs, min((n + 1) * bs, factor.n)
            x[lo:hi] -= _apply_tile(tile, x[nlo:nhi])
        diag = factor.tile(k, k)
        x[lo:hi] = sla.solve_triangular(
            diag.data, x[lo:hi], lower=False, check_finite=False
        )
    return x[:, 0] if squeeze else x
