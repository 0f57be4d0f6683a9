"""Enumeration of the tile-Cholesky task graphs, full or trimmed.

Two enumerations of the same factorization live here, with different
customers:

* :func:`cholesky_tasks` — the **left-looking** graph the numeric
  driver executes.  Every target tile is updated by *one* task that
  reads all of its contributing panels (``SYRK(n)`` for a diagonal
  tile, ``GEMM(m, n)`` for an off-diagonal one), so the accumulated
  update is rounded once and the graph has ``O(NT^2)`` tasks.
* :func:`ptg_cholesky_tasks` — the paper's **right-looking** PTG, one
  task per ``(m, n, k)`` triple (``O(NT^3)``).  It is what the machine
  simulator, the Fig. 2/3/6 scripts and the functional distributed
  executor model; nothing numeric in-process runs it.

Without an analysis, the *entire dense DAG* is enumerated — every
task exists even if it operates on null tiles, and the runtime pays
task-management, scheduling and dependency-release overhead for each
(this is Lorapo's behaviour, Section VI).  With a
:class:`~repro.core.analysis.TrimmingAnalysis`, execution spaces are
restricted to the symbolically non-zero tiles: the DAG is *trimmed*
and the overhead disappears with the tasks.  In the left-looking graph
Algorithm 1's lists prune the panel lists (and the null tiles' tasks)
instead of ``(m, n, k)`` triples; the analysis itself is unchanged.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace

from repro.core.analysis import TrimmingAnalysis
from repro.linalg import flops as fl
from repro.runtime.scheduler import cholesky_priority
from repro.runtime.task import AccessMode, DataAccess, Task, make_task

__all__ = ["cholesky_tasks", "ptg_cholesky_tasks"]

RankOf = Callable[[int, int], int]


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``."""

    def __init__(self, make: Callable) -> None:
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


def _trsm_flops(b: int, rank: int) -> float:
    """One left-looking TRSM on a tile of (capped) rank ``rank``."""
    if rank == 0:
        return 0.0
    return fl.trsm_dense_flops(b) if rank >= b else fl.trsm_tlr_flops(b, rank)


def _syrk_flops(b: int, ranks: Iterable[int]) -> float:
    """One left-looking SYRK over panels of (capped) ranks ``ranks``."""
    total = 0.0
    for rank in ranks:
        if rank >= b:
            total += fl.syrk_dense_flops(b)
        elif rank > 0:
            total += fl.syrk_tlr_flops(b, rank)
    return total


def _flops_for(
    klass: str,
    params: tuple[int, ...],
    b: int,
    rank_of: RankOf,
    panels: Sequence[int] = (),
) -> float:
    """Static flop estimate for one left-looking task from current
    rank estimates; ``panels`` is the task's k-list (SYRK and GEMM)."""

    def r(m: int, k: int) -> int:
        return b if m == k else min(int(rank_of(m, k)), b)

    if klass == "POTRF":
        return fl.potrf_flops(b)
    if klass == "TRSM":
        return _trsm_flops(b, r(*params))
    if klass == "SYRK":
        (n,) = params
        return _syrk_flops(b, [r(n, k) for k in panels])
    if klass == "GEMM":
        m, n = params
        return fl.gemm_accumulated_flops(
            b, [(r(m, k), r(n, k)) for k in panels], max(1, r(m, n))
        )
    raise ValueError(f"unknown task class {klass!r}")


def _ptg_flops_for(
    klass: str, params: tuple[int, ...], b: int, rank_of: RankOf
) -> float:
    """Flop estimate for one right-looking PTG instance: one panel per
    SYRK, HiCMA's modelled recompressing kernel per GEMM."""
    if klass == "SYRK":
        m, k = params
        return _flops_for("SYRK", (m,), b, rank_of, (k,))
    if klass == "GEMM":
        m, n, k = params
        ka, kb, kc = (min(int(rank_of(*mk)), b) for mk in ((m, k), (n, k), (m, n)))
        if ka == 0 or kb == 0:
            return 0.0
        if ka >= b and kb >= b:
            return fl.gemm_dense_flops(b)
        return fl.gemm_tlr_flops(b, ka, kb, max(1, kc))
    return _flops_for(klass, params, b, rank_of)


def _ptg_priority(task: Task, n_tiles: int) -> float:
    """PaRSEC-style priority for the right-looking instances.

    Tasks of earlier panels are deeper on the critical path and must
    run first; within a panel, POTRF > TRSM > SYRK > GEMM, and the
    critical-path TRSM/SYRK (first subdiagonal) outrank the rest.
    """
    k = task.params[-1] if task.klass != "POTRF" else task.params[0]
    base = float((n_tiles - k) * 10)
    if task.klass == "POTRF":
        return base + 9.0
    if task.klass == "TRSM":
        m = task.params[0]
        return base + (8.0 if m == k + 1 else 6.0)
    if task.klass == "SYRK":
        m = task.params[0]
        return base + (7.0 if m == k + 1 else 4.0)
    return base + 2.0  # GEMM


def _check(nt: int, analysis: TrimmingAnalysis | None) -> None:
    if nt < 1:
        raise ValueError(f"nt must be >= 1, got {nt}")
    if analysis is not None and analysis.nt != nt:
        raise ValueError(f"analysis.nt={analysis.nt} != nt={nt}")


def cholesky_tasks(
    nt: int,
    analysis: TrimmingAnalysis | None = None,
    tile_size: int | None = None,
    rank_of: RankOf | None = None,
) -> list[Task]:
    """Sequential enumeration of the left-looking tile-Cholesky tasks.

    For column ``n`` in order: ``SYRK(n)`` reads ``(n, k)`` for every
    contributing panel ``k`` and updates ``(n, n)``; ``POTRF(n)``; then
    for each row ``m`` of the column, ``GEMM(m, n)`` reads ``(m, k)``
    and ``(n, k)`` for every contributing ``k`` and updates ``(m, n)``,
    followed by ``TRSM(m, n)``.  A SYRK/GEMM whose panel list is empty
    is not emitted.  The read-only accesses are declared in ascending
    ``k`` (GEMM: ``(m, k), (n, k)`` pair by pair) — that is the operand
    order the accumulating kernels consume (``Task.inputs``), and it
    fixes the summation order, hence the factor's bits.

    Parameters
    ----------
    nt:
        Number of tile rows/columns.
    analysis:
        If given, panel lists and column rows come from Algorithm 1
        (Section VI); otherwise every ``k < n`` and every ``m > n``.
    tile_size, rank_of:
        Optional flop-estimation inputs: tile edge ``b`` and a rank
        lookup ``rank_of(m, k)`` (e.g. from the compressed matrix's
        initial ranks or the synthetic rank field).  Without them all
        tasks carry ``flops=0``.

    Returns
    -------
    Tasks in the canonical left-looking order, with Cholesky
    priorities attached.
    """
    _check(nt, analysis)
    estimate = tile_size is not None and rank_of is not None
    # Each task is built once: one access object per (tile, mode), shared
    # (they are immutable), and one rank lookup per tile.  Without the
    # estimate inputs, b = 0 and rank 0 make every formula read 0.0.
    b = tile_size if estimate else 0
    read = _Memo(lambda key: DataAccess(key, AccessMode.READ))
    rw = _Memo(lambda key: DataAccess(key, AccessMode.RW))
    r = _Memo(lambda key: min(int(rank_of(*key)), b) if estimate else 0)
    tasks: list[Task] = []

    def add(klass: str, params: tuple[int, ...], accesses: tuple, flops: float) -> None:
        tasks.append(Task(klass, params, accesses, cholesky_priority(klass, params, nt), flops))

    for n in range(nt):
        before = range(n)
        diag = rw[n, n]
        panels = before if analysis is None else analysis.syrk_panels(n)
        if panels:
            accesses = (*[read[n, k] for k in panels], diag)
            add("SYRK", (n,), accesses, _syrk_flops(b, [r[n, k] for k in panels]))
        add("POTRF", (n,), (diag,), fl.potrf_flops(b))
        rows = range(n + 1, nt) if analysis is None else analysis.trsm_rows(n)
        for m in rows:
            target = rw[m, n]
            panels = before if analysis is None else analysis.gemm_panels(m, n)
            if panels:
                accesses = (*[a for k in panels for a in (read[m, k], read[n, k])], target)
                pairs = [(r[m, k], r[n, k]) for k in panels]
                add("GEMM", (m, n), accesses, fl.gemm_accumulated_flops(b, pairs, max(1, r[m, n])))
            add("TRSM", (m, n), (read[n, n], target), _trsm_flops(b, r[m, n]))
    return tasks


def ptg_cholesky_tasks(
    nt: int,
    analysis: TrimmingAnalysis | None = None,
    tile_size: int | None = None,
    rank_of: RankOf | None = None,
) -> list[Task]:
    """Sequential enumeration of the paper's right-looking PTG.

    Same parameters as :func:`cholesky_tasks`; one ``TRSM(m, k)`` /
    ``SYRK(m, k)`` per non-zero panel tile and one ``GEMM(m, n, k)``
    per pair of them, in the canonical right-looking order with
    PaRSEC-style priorities.  A model input (simulator, figures,
    distributed executor) — the numeric driver runs
    :func:`cholesky_tasks`.
    """
    _check(nt, analysis)
    estimate = tile_size is not None and rank_of is not None

    def mk(klass: str, params: tuple[int, ...], **kw) -> Task:
        t = make_task(klass, params, **kw)
        fls = _ptg_flops_for(klass, params, tile_size, rank_of) if estimate else 0.0
        return replace(t, priority=_ptg_priority(t, nt), flops=fls)

    tasks: list[Task] = []
    for k in range(nt):
        tasks.append(mk("POTRF", (k,), rw=[(k, k)]))
        if analysis is None:
            trsm_rows = list(range(k + 1, nt))
        else:
            trsm_rows = analysis.trsm_rows(k)
        for m in trsm_rows:
            tasks.append(mk("TRSM", (m, k), reads=[(k, k)], rw=[(m, k)]))
        for m in trsm_rows:
            tasks.append(mk("SYRK", (m, k), reads=[(m, k)], rw=[(m, m)]))
        # GEMM execution space: all (m, n) pairs in the untrimmed DAG,
        # only pairs of non-zero panel tiles when trimmed.
        for i in range(1, len(trsm_rows)):
            m = trsm_rows[i]
            for j in range(i):
                n = trsm_rows[j]
                tasks.append(
                    mk("GEMM", (m, n, k), reads=[(m, k), (n, k)], rw=[(m, n)])
                )
    return tasks
