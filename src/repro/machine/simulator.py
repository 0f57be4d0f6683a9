"""Discrete-event simulator of distributed task-graph execution.

Simulates a PaRSEC-style run of a :class:`~repro.runtime.dag.TaskGraph`
over ``P`` processes: each process has ``cores_per_node`` workers and
one network injection link; tasks run where the *execution*
distribution maps their output tile (breaking owner-computes when an
execution distribution different from the data distribution is given,
Section VII-B); messages flow along dependency edges crossing
processes, deduplicated per (producer, destination) like PaRSEC's
broadcast collectives, and serialized on the sender's injection link.

The simulator is exact w.r.t. the model (no statistical shortcuts) and
is used for small/medium graphs; paper-scale estimates come from
:mod:`repro.machine.analytic`, which is validated against this
simulator at overlapping sizes (see tests).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.distribution.base import Distribution
from repro.machine.costmodel import CostModel
from repro.machine.models import MachineModel
from repro.runtime.dag import TaskGraph
from repro.runtime.task import Task

__all__ = ["DistributedSimulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulated run."""

    makespan: float
    n_tasks: int
    n_messages: int
    comm_bytes: float
    #: core-seconds of kernel execution per process
    busy_per_process: np.ndarray
    time_by_class: dict[str, float]
    writeback_bytes: float


def operand_ranks(task: Task, rank_of: Callable[[int, int], int]) -> tuple[int, ...]:
    """The ranks ``task`` is priced at (:meth:`CostModel.node_time`):
    none for POTRF, tile ``(m, k)`` for TRSM/SYRK, and ``(m, k)``,
    ``(n, k)``, the target ``(m, n)`` for GEMM."""
    if task.klass == "GEMM":
        m, n, k = task.params
        return rank_of(m, k), rank_of(n, k), rank_of(m, n)
    return () if task.klass == "POTRF" else (rank_of(*task.params),)


class DistributedSimulator:
    """Event-driven simulation of one task graph on a machine model.

    Task durations and the cores a task holds come from
    :meth:`CostModel.node_time` (nested parallelism of dense and
    sizeable kernels, as HiCMA-PaRSEC runs them).
    """

    def __init__(self, machine: MachineModel, n_processes: int) -> None:
        if n_processes < 1:
            raise ValueError(f"n_processes must be >= 1, got {n_processes}")
        self.machine = machine
        self.nproc = int(n_processes)
        self.cost = CostModel(machine)

    # ------------------------------------------------------------------

    def run(
        self,
        graph: TaskGraph,
        tile_size: int,
        rank_of: Callable[[int, int], int],
        data_dist: Distribution,
        exec_dist: Distribution | None = None,
    ) -> SimulationResult:
        """Simulate ``graph`` and return timing/communication metrics.

        Parameters
        ----------
        graph:
            The task graph (from :func:`repro.core.trimming.ptg_cholesky_tasks`
            + :func:`repro.runtime.dag.build_graph`).
        tile_size, rank_of:
            Tile edge and rank lookup (stored rank estimate per tile;
            0 = null, >= tile_size = dense).
        data_dist:
            Where tiles live (the user's distribution).
        exec_dist:
            Where tasks run (defaults to ``data_dist`` =
            owner-computes).
        """
        if data_dist.nproc != self.nproc:
            raise ValueError("data distribution nproc != simulator nproc")
        if exec_dist is not None and exec_dist.nproc != self.nproc:
            raise ValueError("exec distribution nproc != simulator nproc")
        xd = exec_dist if exec_dist is not None else data_dist
        cm = self.cost
        b = tile_size
        n = len(graph)
        cores = self.machine.cores_per_node

        # --- static task properties: one pricing call per class ------
        proc_of = np.array([xd.owner(*t.writes[0]) for t in graph.tasks], np.int64)
        dur = np.empty(n, dtype=np.float64)
        need = np.empty(n, dtype=np.int64)  # cores held
        members: dict[str, list[int]] = {}
        for i, t in enumerate(graph.tasks):
            members.setdefault(t.klass, []).append(i)
        for klass, idx in members.items():
            ranks = np.array([operand_ranks(graph.tasks[i], rank_of) for i in idx])
            dur[idx], need[idx] = cm.node_time(klass, b, *ranks.T)
        # wire size of every tile the graph touches, in one call
        tiles = list({d for t in graph.tasks for d in (*t.reads, *t.writes)})
        sizes = cm.tile_bytes(b, np.array([rank_of(*d) for d in tiles]))
        tile_bytes = dict(zip(tiles, sizes.tolist()))
        out_bytes = [tile_bytes[t.writes[0]] for t in graph.tasks]

        # --- initial data fetches ------------------------------------
        # A read with no earlier writer consumes the tile's initial
        # version, stored at its data owner; remote consumers fetch it.
        # Fetches can start at time 0 (the PTG is known up front) but
        # serialize on the owner's injection link.
        first_writer_seq: dict[tuple[int, int], int] = {}
        initial_fetch: dict[tuple[tuple[int, int], int], float] = {}
        link_free = np.zeros(self.nproc, dtype=np.float64)
        fetch_bytes = 0.0
        fetch_msgs = 0
        ready_floor = np.zeros(n, dtype=np.float64)
        for i, t in enumerate(graph.tasks):
            p = int(proc_of[i])
            for d in t.reads:
                if first_writer_seq.get(d, n + 1) < i:
                    continue  # produced earlier by another task
                owner = data_dist.owner(*d)
                if owner == p:
                    continue
                key = (d, p)
                if key not in initial_fetch:
                    size = tile_bytes[d]
                    start = link_free[owner]
                    link_free[owner] = start + size / self.machine.network_bandwidth
                    initial_fetch[key] = (
                        start + cm.transfer_time(size)
                    )
                    fetch_bytes += size
                    fetch_msgs += 1
                ready_floor[i] = max(ready_floor[i], initial_fetch[key])
            for d in t.writes:
                first_writer_seq.setdefault(d, i)
        # Tiles written remotely also need their initial version there
        # (RW access); handled above since RW tiles appear in reads.

        # --- event loop ----------------------------------------------
        remaining = np.array([graph.in_degree(i) for i in range(n)], dtype=np.int64)
        data_ready = ready_floor  # max arrival over satisfied deps
        free_cores = np.full(self.nproc, cores, dtype=np.int64)
        ready_q: list[list] = [[] for _ in range(self.nproc)]  # per-proc heaps
        seq = itertools.count()
        events: list[tuple[float, int, int, int]] = []  # (time, seq, kind, task)
        _READY, _DONE = 0, 1

        sent: dict[tuple[int, int], float] = {}
        comm_bytes = fetch_bytes
        n_messages = fetch_msgs
        busy = np.zeros(self.nproc, dtype=np.float64)
        time_by_class: dict[str, float] = {}

        for i in range(n):
            if remaining[i] == 0:
                heapq.heappush(events, (data_ready[i], next(seq), _READY, i))

        def try_start(p: int, now: float) -> None:
            # Pop ready tasks in priority order, skipping (and keeping)
            # tasks whose core requirement doesn't fit yet.
            skipped: list = []
            while free_cores[p] > 0 and ready_q[p]:
                entry = heapq.heappop(ready_q[p])
                i = entry[2]
                if need[i] > free_cores[p]:
                    skipped.append(entry)
                    continue
                free_cores[p] -= need[i]
                end = now + dur[i]
                busy[p] += dur[i] * need[i]
                t = graph.tasks[i]
                time_by_class[t.klass] = time_by_class.get(t.klass, 0.0) + dur[i]
                heapq.heappush(events, (end, next(seq), _DONE, i))
            for entry in skipped:
                heapq.heappush(ready_q[p], entry)

        makespan = 0.0
        n_done = 0
        while events:
            now, _, kind, i = heapq.heappop(events)
            p = int(proc_of[i])
            if kind == _READY:
                t = graph.tasks[i]
                heapq.heappush(ready_q[p], (-t.priority, next(seq), i))
                try_start(p, now)
                continue
            # task done
            n_done += 1
            makespan = max(makespan, now)
            free_cores[p] += need[i]
            for j in graph.successors.get(i, ()):
                q = int(proc_of[j])
                if q == p:
                    arrival = now
                else:
                    key = (i, q)
                    if key in sent:
                        arrival = sent[key]  # one message per (producer, dest)
                    else:
                        size = out_bytes[i]
                        start = max(now, link_free[p])
                        link_free[p] = start + size / self.machine.network_bandwidth
                        arrival = start + cm.transfer_time(size)
                        sent[key] = arrival
                        comm_bytes += size
                        n_messages += 1
                data_ready[j] = max(data_ready[j], arrival)
                remaining[j] -= 1
                if remaining[j] == 0:
                    heapq.heappush(
                        events, (data_ready[j], next(seq), _READY, j)
                    )
            try_start(p, now)

        if n_done != n:
            raise RuntimeError(f"simulated {n_done} of {n} tasks (deadlock?)")

        # --- write-back of remotely-executed tiles --------------------
        # Breaking owner-computes costs at most one extra transfer per
        # tile to return the final version to its data owner (overlapped
        # with computation; reported, not added to makespan).
        writeback = 0.0
        seen_wb: set[tuple[int, int]] = set()
        for i, t in enumerate(graph.tasks):
            w = t.writes[0]
            if w in seen_wb:
                continue
            seen_wb.add(w)
            if data_dist.owner(*w) != int(proc_of[i]):
                writeback += tile_bytes[w]

        return SimulationResult(
            makespan=makespan,
            n_tasks=n,
            n_messages=n_messages,
            comm_bytes=comm_bytes,
            busy_per_process=busy,
            time_by_class=time_by_class,
            writeback_bytes=writeback,
        )
