"""Ready-queue scheduling policies.

The engine asks the scheduler for the next ready task; the policy
determines the traversal of the DAG.  PaRSEC's default behaviour of
advancing the panel factorization eagerly is captured by the priority
scheduler with the Cholesky priority function (smaller column index
= deeper on the critical path = runs first).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable

from repro.runtime.task import Task

__all__ = [
    "Scheduler",
    "FIFOScheduler",
    "LIFOScheduler",
    "PriorityScheduler",
    "cholesky_priority",
]


class Scheduler(ABC):
    """A mutable queue of ready tasks."""

    @abstractmethod
    def push(self, index: int, task: Task) -> None:
        """Add a ready task (graph index + task object)."""

    @abstractmethod
    def pop(self) -> int:
        """Remove and return the index of the next task to run."""

    @abstractmethod
    def __len__(self) -> int: ...

    def __bool__(self) -> bool:
        return len(self) > 0


class FIFOScheduler(Scheduler):
    """First-in first-out: breadth-first DAG traversal."""

    def __init__(self) -> None:
        self._q: deque[int] = deque()

    def push(self, index: int, task: Task) -> None:
        self._q.append(index)

    def pop(self) -> int:
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)


class LIFOScheduler(Scheduler):
    """Last-in first-out: depth-first traversal (cache-friendly)."""

    def __init__(self) -> None:
        self._q: list[int] = []

    def push(self, index: int, task: Task) -> None:
        self._q.append(index)

    def pop(self) -> int:
        return self._q.pop()

    def __len__(self) -> int:
        return len(self._q)


class PriorityScheduler(Scheduler):
    """Highest-priority-first with FIFO tie-breaking.

    ``priority(task)`` defaults to the task's own ``priority``
    attribute (set by the graph builder).
    """

    def __init__(self, priority: Callable[[Task], float] | None = None) -> None:
        self._priority = priority
        self._heap: list[tuple[float, int, int]] = []
        self._counter = 0

    def push(self, index: int, task: Task) -> None:
        p = task.priority if self._priority is None else self._priority(task)
        heapq.heappush(self._heap, (-p, self._counter, index))
        self._counter += 1

    def pop(self) -> int:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


def cholesky_priority(klass: str, params: tuple[int, ...], n_tiles: int) -> float:
    """Priority of the left-looking tile-Cholesky task ``klass(*params)``.

    The column is the last parameter of every task class (``SYRK(n)``,
    ``POTRF(n)``, ``GEMM(m, n)``, ``TRSM(m, n)``).  Earlier columns are
    deeper on the critical path and run first; within a column
    ``SYRK(n)`` feeds ``POTRF(n)`` directly and ranks above it, the
    first-subdiagonal ``GEMM``/``TRSM`` (whose tile feeds the next
    column's SYRK) outrank the other rows, and a row's TRSM outranks
    the GEMMs of the rows still to be updated.
    """
    n = params[-1]
    base = float((n_tiles - n) * 10)
    if klass == "SYRK":
        return base + 9.5
    if klass == "POTRF":
        return base + 9.0
    critical = params[0] == n + 1
    if klass == "TRSM":
        return base + (8.0 if critical else 6.0)
    return base + (7.0 if critical else 2.0)  # GEMM
