"""Reference walks over task graphs and trimming analyses that the
tests compare the library against."""

from __future__ import annotations


def longest_path(graph, weight) -> float:
    """Heaviest dependency chain, ``weight(task)`` per task.

    ``build_graph`` edges run from earlier to later tasks, so one pass
    in index order sees every predecessor first.
    """
    finish = [0.0] * len(graph)
    for i, task in enumerate(graph.tasks):
        finish[i] += weight(task)
        for j in graph.successors.get(i, ()):
            finish[j] = max(finish[j], finish[i])
    return max(finish, default=0.0)


def ptg_task_counts(ana) -> dict[str, int]:
    """Task instances per class of the trimmed right-looking PTG, read
    off the analysis lists (Algorithm 1)."""
    return {
        "POTRF": ana.nt,
        "TRSM": sum(map(len, ana.trsm)),
        "SYRK": sum(map(len, ana.syrk)),
        "GEMM": sum(map(len, ana.gemm.values())),
    }
