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
from dataclasses import dataclass, field, fields

__all__ = ["AccessMode", "DataAccess", "Task"]

#: Data items are tiles addressed by (row, col) tile coordinates.
DataKey = tuple[int, int]


class AccessMode(enum.Enum):
    """Direction of a task's access to a data item."""

    READ = "R"
    WRITE = "W"
    RW = "RW"

    @property
    def writes(self) -> bool:
        return self in (AccessMode.WRITE, AccessMode.RW)


#: bound once: an enum member lookup per access would dominate Task()
_READ, _WRITE = AccessMode.READ, AccessMode.WRITE


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
    uid, reads, writes, inputs:
        Derived once, at construction; no part of equality, hashing or
        pickling.  ``inputs`` are the read-only keys in declared order:
        an accumulating kernel's operand list.
    """

    klass: str
    params: tuple[int, ...]
    accesses: tuple[DataAccess, ...]
    priority: float = 0.0
    flops: float = 0.0
    uid: tuple[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    reads: tuple[DataKey, ...] = field(init=False, repr=False, compare=False)
    writes: tuple[DataKey, ...] = field(init=False, repr=False, compare=False)
    inputs: tuple[DataKey, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        reads, writes, inputs = [], [], []
        for a in self.accesses:
            (inputs if a.mode is _READ else writes).append(a.key)
            if a.mode is not _WRITE:
                reads.append(a.key)
        vars(self).update(  # frozen: through the instance dict
            uid=(self.klass, self.params), reads=tuple(reads), writes=tuple(writes),
            inputs=tuple(inputs))

    def __getstate__(self) -> dict:
        # the declared fields only: a pickle is the same bytes as one of
        # a task that derives nothing, so either loads into the other
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

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
