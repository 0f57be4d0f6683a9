"""Tasks and data accesses — the vertices of the DAG.

A task is an instance of a *task class* (POTRF, TRSM, SYRK, GEMM, ...)
identified by its class name and integer parameters, exactly like a
PaRSEC PTG task ``TRSM(k, m)``.  Each task declares which data items
(tiles) it reads and writes; the DAG builder derives edges from these
declarations, so communication in the distributed simulator is
implicit — derived from dependencies — as in PaRSEC.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["AccessMode", "DataAccess", "Task"]

#: Data items are tiles addressed by (row, col) tile coordinates.
DataKey = tuple[int, int]


class AccessMode(enum.Enum):
    """Direction of a task's access to a data item."""

    READ = "R"
    WRITE = "W"
    RW = "RW"

    @property
    def reads(self) -> bool:
        return self in (AccessMode.READ, AccessMode.RW)

    @property
    def writes(self) -> bool:
        return self in (AccessMode.WRITE, AccessMode.RW)


@dataclass(frozen=True)
class DataAccess:
    """One declared access of a task to one tile."""

    key: DataKey
    mode: AccessMode


@dataclass(frozen=True)
class Task:
    """An instance of a parameterized task class.

    Attributes
    ----------
    klass:
        Task-class name, e.g. ``"POTRF"``.
    params:
        Class parameters, e.g. ``(k,)`` for POTRF or ``(m, n)`` for
        GEMM — together with ``klass`` they uniquely identify the task.
    accesses:
        Declared tile accesses.  The order of the read-only ones is the
        operand order the task's kernel consumes (see :attr:`inputs`).
    priority:
        Larger runs earlier under the priority scheduler.
    flops:
        Estimated floating-point work (cost-model input); 0 if unknown.
    """

    klass: str
    params: tuple[int, ...]
    accesses: tuple[DataAccess, ...]
    priority: float = 0.0
    flops: float = 0.0

    @property
    def uid(self) -> tuple[str, tuple[int, ...]]:
        """Unique identifier within a graph."""
        return (self.klass, self.params)

    @property
    def reads(self) -> tuple[DataKey, ...]:
        return tuple(a.key for a in self.accesses if a.mode.reads)

    @property
    def writes(self) -> tuple[DataKey, ...]:
        return tuple(a.key for a in self.accesses if a.mode.writes)

    @property
    def inputs(self) -> tuple[DataKey, ...]:
        """Tiles the task only reads, in declared order — the operand
        list of an accumulating kernel (``SYRK(n)``, ``GEMM(m, n)``)."""
        return tuple(a.key for a in self.accesses if a.mode is AccessMode.READ)

    def __str__(self) -> str:
        args = ", ".join(map(str, self.params))
        return f"{self.klass}({args})"


def make_task(
    klass: str,
    params: tuple[int, ...],
    reads: list[DataKey] = (),
    rw: list[DataKey] = (),
    writes: list[DataKey] = (),
    priority: float = 0.0,
    flops: float = 0.0,
) -> Task:
    """Convenience constructor assembling the access tuple."""
    accesses = tuple(
        [DataAccess(k, AccessMode.READ) for k in reads]
        + [DataAccess(k, AccessMode.RW) for k in rw]
        + [DataAccess(k, AccessMode.WRITE) for k in writes]
    )
    return Task(klass, tuple(params), accesses, priority, flops)
