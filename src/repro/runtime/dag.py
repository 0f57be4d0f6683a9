"""DAG construction from a sequential task enumeration.

Tasks are inserted in the canonical sequential order of the algorithm
(like PaRSEC unrolling a PTG); edges are derived from data versions:

* a task reading tile ``d`` depends on the last writer of ``d``;
* a task writing tile ``d`` depends on the last writer *and* on every
  reader since that writer (write-after-read), which serializes
  conflicting updates exactly like PaRSEC's data-version tracking.

Because edges come only from the declared accesses, the same builder
produces the full dense DAG or the trimmed DAG — the trimming
procedure simply enumerates fewer tasks (Section VI).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from repro.runtime.task import Task

__all__ = ["TaskGraph", "build_graph"]


class TaskGraph:
    """An immutable DAG of tasks, by index into ``tasks``."""

    def __init__(self, tasks: list[Task], edges: dict[int, set[int]]) -> None:
        self.tasks = tasks
        #: successor indices per task index
        self.successors: dict[int, tuple[int, ...]] = {
            i: tuple(sorted(s)) for i, s in edges.items()
        }
        preds: dict[int, list[int]] = defaultdict(list)
        for src in sorted(self.successors):  # ascending: lists come out sorted
            for dst in self.successors[src]:
                preds[dst].append(src)
        #: predecessor indices per task index
        self.predecessors: dict[int, tuple[int, ...]] = {
            i: tuple(p) for i, p in preds.items()
        }
        if len({t.uid for t in tasks}) != len(tasks):
            raise ValueError("duplicate task uid in graph")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def in_degree(self, i: int) -> int:
        return len(self.predecessors.get(i, ()))

    def n_edges(self) -> int:
        return sum(len(s) for s in self.successors.values())

    def task_counts(self) -> dict[str, int]:
        """Number of task instances per task class."""
        counts: dict[str, int] = defaultdict(int)
        for t in self.tasks:
            counts[t.klass] += 1
        return dict(counts)


def build_graph(tasks: Iterable[Task]) -> TaskGraph:
    """Derive the dependency DAG from a sequential task enumeration.

    Every edge runs from an earlier task to a later one, so the
    enumeration order is a topological order."""
    tasks = list(tasks)
    last_writer: dict[tuple[int, int], int] = {}
    readers_since: dict[tuple[int, int], list[int]] = defaultdict(list)
    edges: dict[int, set[int]] = defaultdict(set)

    for i, t in enumerate(tasks):
        writes = t.writes
        for d in t.reads:
            w = last_writer.get(d)
            if w is not None:
                edges[w].add(i)
            if d not in writes:
                readers_since[d].append(i)
        for d in writes:
            w = last_writer.get(d)
            if w is not None and w != i:
                edges[w].add(i)
            # never holds i: a task reads-only what it does not write
            for r in readers_since.pop(d, ()):
                edges[r].add(i)
            last_writer[d] = i
    return TaskGraph(tasks, edges)
