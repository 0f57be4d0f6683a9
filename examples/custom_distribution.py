#!/usr/bin/env python
"""Extending the framework: plug in a custom data distribution.

Implements a snake (boustrophedon) column-cyclic distribution as a
user extension, validates it against the library's invariants, and
compares its load balance and simulated makespan against 2DBCDD and
the paper's rank-aware diamond distribution on a rank-decaying
workload — showing why the diamond wins.

Run:  python examples/custom_distribution.py
"""

import numpy as np

from repro import (
    DiamondDistribution,
    SHAHEEN_II,
    SyntheticRankField,
    TwoDBlockCyclic,
    analyze_ranks,
    DistributedSimulator,
)
from repro.core.rank_model import analyze_mask_fast
from repro.core.trimming import ptg_cholesky_tasks
from repro.distribution.base import Distribution, load_per_process
from repro.runtime import build_graph


class SnakeColumnCyclic(Distribution):
    """Columns assigned cyclically, reversing direction every sweep —
    a simple user-defined distribution."""

    def __init__(self, nproc: int) -> None:
        self.nproc = nproc

    def owner(self, m: int, k: int) -> int:
        if k > m or k < 0:
            raise IndexError(f"tile ({m}, {k}) outside lower triangle")
        sweep, pos = divmod(k, self.nproc)
        return pos if sweep % 2 == 0 else self.nproc - 1 - pos


def main() -> None:
    nproc, p, q = 16, 4, 4
    field = SyntheticRankField.from_parameters(300_000, 3000, 3.7e-4, 1e-4)
    nt, b = field.nt, field.tile_size
    print(f"workload: NT={nt}, tile {b}, density {field.initial_density():.3f}\n")

    mask = field.initial_mask()
    ranks = field.rank_matrix(mask)
    fm = analyze_mask_fast(mask)["final_mask"]
    for d in range(1, nt):
        idx = np.arange(nt - d)
        sel = fm[idx + d, idx] & (ranks[idx + d, idx] == 0)
        ranks[idx[sel] + d, idx[sel]] = max(2, int(field.rank_by_distance[d]))
    rank_of = lambda m, k: int(ranks[m, k]) if m != k else b
    ana = analyze_ranks(ranks, nt)
    graph = build_graph(ptg_cholesky_tasks(nt, ana, tile_size=b, rank_of=rank_of))
    print(f"trimmed task graph: {len(graph)} tasks\n")

    # flop-weighted load balance per distribution, over the OFF-BAND
    # tiles the diamond distribution is responsible for (diagonal and
    # subdiagonal balance is the band distribution's job, Sec. VII-A)
    weight = lambda m, k: float(ranks[m, k]) ** 2 if m - k > 1 else 0.0
    dists = {
        "2DBCDD": TwoDBlockCyclic(p, q),
        "snake (custom)": SnakeColumnCyclic(nproc),
        "diamond": DiamondDistribution(p, q),
    }
    print(f"{'distribution':18s} {'imbalance':>10s} {'makespan [s]':>13s}")
    for name, dist in dists.items():
        load = load_per_process(dist, nt, weight)
        imb = load.max() / load.mean()
        sim = DistributedSimulator(SHAHEEN_II, nproc)
        res = sim.run(graph, b, rank_of, TwoDBlockCyclic(p, q), dist)
        print(f"{name:18s} {imb:10.3f} {res.makespan:13.4f}")

    print("\nThe diamond distribution balances the rank-decaying load "
          "while keeping column broadcasts narrow (Sec. VII-B).")


if __name__ == "__main__":
    main()
