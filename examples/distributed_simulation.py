#!/usr/bin/env python
"""Simulate the paper's at-scale comparison: HiCMA-PaRSEC vs Lorapo.

Uses the calibrated machine models of Shaheen II and Fugaku and the
synthetic rank field of the 3D virus workload to estimate time-to-
solution at paper scale (millions of unknowns, hundreds of nodes) —
the experiment behind Figs. 9 and 10 — and prints the incremental
effect of each optimization (trimming, band, diamond).

Run:  python examples/distributed_simulation.py
"""

from repro import (
    FUGAKU,
    HICMA_PARSEC,
    LORAPO,
    SHAHEEN_II,
    AnalyticModel,
    SyntheticRankField,
)
from repro.core.hicma_parsec import BAND_ONLY, TRIM_ONLY


def main() -> None:
    n = 2_990_000  # 2.99M mesh points (the paper's Fig. 4b size)
    b = 2440
    nodes = 512
    field = SyntheticRankField.from_parameters(
        n, b, shape_parameter=3.7e-4, accuracy=1e-4
    )
    print(f"workload: N={n/1e6:.2f}M, tile {b}, NT={field.nt}, "
          f"density {field.initial_density():.4f}\n")

    for machine in (SHAHEEN_II, FUGAKU):
        print(f"=== {machine.name}, {nodes} nodes ===")
        results = {}
        for cfg in (LORAPO, TRIM_ONLY, BAND_ONLY, HICMA_PARSEC):
            model = AnalyticModel(machine, nodes, cfg)
            r = model.factorization_time(field)
            results[cfg.name] = r
            print(
                f"  {cfg.name:34s} {r.makespan:9.2f} s  "
                f"(cp {r.t_critical_path:7.2f}, work {r.t_work:7.2f}, "
                f"comm {r.t_comm:6.2f}, tasks {r.n_tasks:,})"
            )
        lo = results[LORAPO.name].makespan
        hi = results[HICMA_PARSEC.name].makespan
        eff = results[HICMA_PARSEC.name].cp_efficiency
        print(f"  -> speedup vs Lorapo: {lo/hi:.2f}x ; "
              f"critical-path efficiency {eff:.1%}\n")


if __name__ == "__main__":
    main()
