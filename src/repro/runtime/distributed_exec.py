"""Functional distributed-memory execution over OS processes.

The simulators in :mod:`repro.machine` model *performance*; this
module executes the factorization *functionally distributed*: each
worker is a separate OS process owning exactly the tiles its data
distribution assigns (genuine memory isolation — no worker ever holds
the whole matrix), and tiles move between workers only along
dependency edges, exactly like MPI ranks under PaRSEC.

The coordinator walks the task graph in topological order, moving
operand tiles to the executing worker on demand (with a simple
ownership/copy coherence: a write invalidates remote copies) and
recording the traffic.  Scheduling is sequential by design — the goal
is *distribution correctness*, not speed: the distributed factor must
be bit-identical to the single-process one, which the tests assert.
"""

from __future__ import annotations

import multiprocessing as mp
from dataclasses import dataclass, field

from repro.distribution.base import Distribution
from repro.linalg.tile import Tile
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime import transport
from repro.runtime.dag import TaskGraph

__all__ = ["DistributedExecutor", "DistributedRunResult"]


# ----------------------------------------------------------------------
# rank process
# ----------------------------------------------------------------------


def _rank_main(accuracy: float, max_rank, seed_root: int, commands, replies) -> None:
    """Rank loop: owns a local tile store, executes the left-looking
    kernels on it (the ones :func:`repro.core.tlr_cholesky` registers),
    and answers every command with one reply until told to stop (or
    the coordinator is gone)."""
    from repro.linalg.kernels_tlr import (
        gemm_update,
        potrf_tile,
        syrk_update,
        trsm_tile,
    )
    from repro.linalg.lowrank import derive_tile_seed

    store: dict[tuple[int, int], Tile] = {}
    for msg in transport.frames(commands):
        op = msg[0]
        reply = ("ok",)
        if op == "put":
            _, key, tile = msg
            store[key] = tile
        elif op == "get":
            reply = ("tile", store[msg[1]])
        elif op == "drop":
            store.pop(msg[1], None)
        elif op == "exec":
            _, klass, params, inputs = msg
            try:
                operands = [store[key] for key in inputs]
                if klass == "POTRF":
                    (k,) = params
                    store[(k, k)] = potrf_tile(store[(k, k)])
                elif klass == "TRSM":
                    m, k = params
                    store[(m, k)] = trsm_tile(store[(k, k)], store[(m, k)])
                elif klass == "SYRK":
                    (n,) = params
                    store[(n, n)] = syrk_update(store[(n, n)], operands)
                elif klass == "GEMM":
                    m, n = params
                    store[(m, n)] = gemm_update(
                        store[(m, n)], zip(operands[0::2], operands[1::2]),
                        tol=accuracy, max_rank=max_rank,
                        seed=derive_tile_seed(seed_root, m, n, gen=1),
                    )
                else:
                    raise ValueError(f"unknown task class {klass!r}")
            except Exception as exc:  # surface kernel failures
                reply = ("error", repr(exc))
        else:
            reply = ("error", f"unknown op {op!r}")
        try:
            replies.send(reply)
        except OSError:  # coordinator is gone
            return


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------


@dataclass
class DistributedRunResult:
    """Outcome of a functional distributed factorization."""

    factor: TLRMatrix
    n_tasks: int
    #: tiles moved between workers (dedup-coherent transfers)
    n_transfers: int
    transfer_bytes: int
    #: tasks executed per worker
    tasks_per_worker: list[int] = field(default_factory=list)


class DistributedExecutor:
    """Coordinator for functionally-distributed TLR Cholesky."""

    def __init__(self, n_processes: int) -> None:
        if n_processes < 1:
            raise ValueError(f"n_processes must be >= 1, got {n_processes}")
        self.nproc = int(n_processes)

    def run(
        self,
        a: TLRMatrix,
        graph: TaskGraph,
        data_dist: Distribution,
        exec_dist: Distribution | None = None,
    ) -> DistributedRunResult:
        """Execute ``graph`` on ``a`` across worker processes.

        ``a`` is consumed: its tiles are scattered to the workers and
        the gathered factor is returned as a fresh matrix.
        """
        if data_dist.nproc != self.nproc:
            raise ValueError("distribution nproc != executor nproc")
        xd = exec_dist if exec_dist is not None else data_dist
        seed_root = a.compression.seed_root if a.compression is not None else 0
        ranks = [
            transport.spawn(
                mp.get_context("fork"),
                _rank_main,
                (a.accuracy, a.max_rank, seed_root),
                f"tlr-rank-{p}",
            )
            for p in range(self.nproc)
        ]

        def ask(p: int, *msg):
            # a dead rank reads as a failed send or as EOF before the reply
            if ranks[p].send(msg):
                for _, reply in transport.recv_ready([ranks[p]], None):
                    if reply[0] == "error":
                        raise RuntimeError(f"worker {p}: {reply[1]}")
                    return reply
            ranks[p].process.join(timeout=1.0)
            held = msg[:2] if msg[0] == "put" else msg  # not the payload
            raise transport.WorkerCrashError(
                f"rank {p} (pid {ranks[p].pid}) died (exit "
                f"{ranks[p].process.exitcode}) holding {held}"
            )

        try:
            # ---- scatter: each worker gets its owned tiles ----------
            home: dict[tuple[int, int], int] = {}
            for (m, k), tile in a:
                p = data_dist.owner(m, k)
                home[(m, k)] = p
                ask(p, "put", (m, k), tile)
            # copies[d] = set of workers holding a current copy
            copies = {d: {p} for d, p in home.items()}

            n_transfers = 0
            transfer_bytes = 0
            tasks_per_worker = [0] * self.nproc

            def ensure_at(d: tuple[int, int], p: int) -> None:
                nonlocal n_transfers, transfer_bytes
                if p in copies[d]:
                    return
                src = next(iter(copies[d]))
                _, tile = ask(src, "get", d)
                ask(p, "put", d, tile)
                copies[d].add(p)
                n_transfers += 1
                transfer_bytes += tile.nbytes

            # ---- execute in topological order -----------------------
            order = graph.topological_order()
            for i in order:
                task = graph.tasks[i]
                out = task.writes[0]
                p = xd.owner(*out)
                for d in task.reads:
                    ensure_at(d, p)
                ask(p, "exec", task.klass, task.params, task.inputs)
                tasks_per_worker[p] += 1
                # the write invalidates every other copy
                stale = copies[out] - {p}
                for q in stale:
                    ask(q, "drop", out)
                copies[out] = {p}

            # ---- gather the factor ----------------------------------
            tiles: dict[tuple[int, int], Tile] = {}
            for d in home:
                src = next(iter(copies[d]))
                _, tiles[d] = ask(src, "get", d)
            factor = TLRMatrix(
                a.n, a.tile_size, tiles, a.accuracy, a.max_rank
            )
            return DistributedRunResult(
                factor=factor,
                n_tasks=len(graph),
                n_transfers=n_transfers,
                transfer_bytes=transfer_bytes,
                tasks_per_worker=tasks_per_worker,
            )
        finally:
            transport.stop(ranks, None, 10.0)
