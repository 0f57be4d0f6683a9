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
    """An immutable DAG of tasks with helper analytics."""

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
        self._by_uid = {t.uid: i for i, t in enumerate(tasks)}
        if len(self._by_uid) != len(tasks):
            raise ValueError("duplicate task uid in graph")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def index_of(self, task: Task) -> int:
        return self._by_uid[task.uid]

    def find(self, klass: str, params: tuple[int, ...]) -> Task | None:
        """Look up a task instance by class name and parameters."""
        i = self._by_uid.get((klass, tuple(params)))
        return None if i is None else self.tasks[i]

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

    # ------------------------------------------------------------------

    def topological_order(self) -> list[int]:
        """Kahn topological order (raises on cycles)."""
        indeg = {i: self.in_degree(i) for i in range(len(self.tasks))}
        stack = [i for i, d in indeg.items() if d == 0]
        order: list[int] = []
        while stack:
            i = stack.pop()
            order.append(i)
            for j in self.successors.get(i, ()):
                indeg[j] -= 1
                if indeg[j] == 0:
                    stack.append(j)
        if len(order) != len(self.tasks):
            raise ValueError("task graph contains a cycle")
        return order

    def critical_path(
        self, weight: callable = None
    ) -> tuple[float, list[int]]:
        """Longest path through the DAG.

        ``weight(task) -> float`` defaults to the task's ``flops``
        attribute.  Returns ``(length, path_indices)``.
        """
        if weight is None:
            weight = lambda t: t.flops
        dist = [0.0] * len(self.tasks)
        parent = [-1] * len(self.tasks)
        for i in self.topological_order():
            w = weight(self.tasks[i])
            di = dist[i] + w
            for j in self.successors.get(i, ()):
                if di > dist[j]:
                    dist[j] = di
                    parent[j] = i
        if not dist:
            return 0.0, []
        end = max(range(len(dist)), key=lambda i: dist[i] + weight(self.tasks[i]))
        length = dist[end] + weight(self.tasks[end])
        path = [end]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return length, path[::-1]

    def to_networkx(self):
        """Export as a ``networkx.DiGraph`` (nodes keyed by task uid)."""
        import networkx as nx

        g = nx.DiGraph()
        for t in self.tasks:
            g.add_node(t.uid, flops=t.flops, klass=t.klass)
        for i, succs in self.successors.items():
            for j in succs:
                g.add_edge(self.tasks[i].uid, self.tasks[j].uid)
        return g


def build_graph(tasks: Iterable[Task]) -> TaskGraph:
    """Derive the dependency DAG from a sequential task enumeration."""
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
