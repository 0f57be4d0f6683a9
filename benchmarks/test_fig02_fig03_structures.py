"""Figs. 2 and 3 — the paper's structural illustrations, regenerated.

Fig. 2 shows the data dependencies of the first two panel
factorizations on a 10x10 tile matrix, before and after DAG trimming;
we regenerate the task and dependency-edge counts (the quantities the
figure illustrates) for a sparsity pattern like the figure's.

Fig. 3 shows the four data distributions on a 10x10 grid with 6
processes; we regenerate the owner maps as ASCII art and verify each
distribution's defining property on exactly that configuration.
"""

import numpy as np
import pytest

from repro.core import analyze_ranks, ptg_cholesky_tasks
from repro.distribution import (
    BandDistribution,
    DiamondDistribution,
    HybridDistribution,
    TwoDBlockCyclic,
    owner_map_ascii,
)
from repro.runtime import build_graph

from figutils import write_table

NT = 10


def fig2_counts():
    """Task/edge counts of the full vs trimmed DAG on a 10x10 pattern
    with ~40% of off-diagonal tiles null (like the figure's white
    tiles)."""
    rng = np.random.default_rng(4)
    ranks = np.zeros((NT, NT), dtype=np.int64)
    for k in range(NT):
        ranks[k, k] = 10
        for m in range(k + 1, NT):
            if rng.random() < 0.6:
                ranks[m, k] = 5
    ana = analyze_ranks(ranks, NT)
    g_full = build_graph(ptg_cholesky_tasks(NT))
    g_trim = build_graph(ptg_cholesky_tasks(NT, ana))
    return g_full, g_trim, ana


def test_fig02_dag_trimming_structure(benchmark):
    g_full, g_trim, ana = benchmark.pedantic(fig2_counts, rounds=1, iterations=1)
    rows = [
        ["full DAG", len(g_full), g_full.n_edges(),
         str(g_full.task_counts())],
        ["trimmed DAG", len(g_trim), g_trim.n_edges(),
         str(g_trim.task_counts())],
    ]
    write_table(
        "fig02_dag_structure",
        f"Fig. 2: dependencies before/after DAG trimming ({NT}x{NT} tiles, "
        f"initial density {ana.initial_density():.2f})",
        ["graph", "tasks", "edges", "per class"],
        rows,
    )
    # trimming removes both tasks and their dependency edges
    assert len(g_trim) < len(g_full)
    assert g_trim.n_edges() < g_full.n_edges()
    # only eligible tasks remain: every trimmed task writes a
    # symbolically non-zero tile
    for t in g_trim.tasks:
        assert ana.is_nonzero_final(*t.writes[0])


def test_fig03_distributions(benchmark):
    def render():
        dists = {
            "a_2dbcdd": TwoDBlockCyclic(2, 3),
            "b_hybrid": HybridDistribution(2, 3),
            "c_band": BandDistribution.over_2d(2, 3),
            "d_diamond": DiamondDistribution(2, 3),
        }
        blocks = []
        for name, d in dists.items():
            blocks.append(f"({name})  nproc={d.nproc}")
            blocks.append(owner_map_ascii(d, NT))
            blocks.append("")
        return dists, "\n".join(blocks)

    dists, art = benchmark.pedantic(render, rounds=1, iterations=1)
    from figutils import RESULTS_DIR

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "fig03_distributions.txt"
    path.write_text(
        f"Fig. 3: data distributions on a {NT}x{NT} tile grid, 6 processes\n\n"
        + art
    )
    print(path.read_text())

    # defining properties on exactly the figure's configuration
    td = dists["a_2dbcdd"]
    assert td.owner(0, 0) == 0 and td.owner(1, 0) == 3
    hy = dists["b_hybrid"]
    assert [hy.owner(k, k) for k in range(6)] == list(range(6))
    bd = dists["c_band"]
    assert all(bd.owner(k + 1, k) == bd.owner(k, k) for k in range(NT - 1))
    dd = dists["d_diamond"]
    assert all(len(dd.column_group(k, NT)) <= 2 for k in range(4))
