#!/usr/bin/env python
"""Solver accuracy: compression thresholds and iterative refinement.

Shows the practical accuracy story of TLR solvers:

* against the **compressed operator**, the factorization's truncation
  error is recoverable — iterative refinement drives the residual to
  machine-level regardless of the threshold;
* against the **original dense operator**, accuracy is floored by the
  compression threshold itself — no amount of refinement on the
  compressed system can beat the information the compression kept
  (the paper's point that the threshold is chosen to match the
  application's accuracy requirement).

Also demonstrates compressed-matrix persistence (compress once, reuse
across runs).

Run:  python examples/solver_accuracy.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    RBFMatrixGenerator,
    TLRMatrix,
    min_spacing,
    tlr_cholesky,
    virus_population,
)
from repro.linalg import refine_solve, tlr_matvec
from repro.linalg.serialization import load_tlr, save_tlr


def main() -> None:
    pts = virus_population(6, points_per_virus=700, cube_edge=1.7, seed=5)
    s = min_spacing(pts)
    gen = RBFMatrixGenerator(pts, 0.5 * s * 60, tile_size=150, nugget=1e-3)
    dense = gen.dense()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(gen.n)
    norm_b = np.linalg.norm(b)

    print(f"N={gen.n}, NT={-(-gen.n // 150)}, nugget 1e-3 "
          "(must dominate the loosest threshold)\n")
    print(f"{'accuracy':>9s} {'density':>8s} {'vs compressed':>14s} "
          f"{'refined':>9s} {'vs dense A':>11s}")

    for acc in (1e-4, 1e-6, 1e-8):
        a = TLRMatrix.compress(gen.tile, gen.n, 150, accuracy=acc)
        a_op = a.copy()                      # keep the operator
        factor = tlr_cholesky(a).factor      # factorize in place
        direct = refine_solve(a_op, factor, b, max_sweeps=0, rtol=0.0)
        refined = refine_solve(a_op, factor, b, max_sweeps=6, rtol=1e-12)
        vs_dense = np.linalg.norm(dense @ refined.x - b) / norm_b
        print(
            f"{acc:9.0e} {a_op.density():8.3f} {direct.residuals[-1]:14.2e} "
            f"{refined.residuals[-1]:9.2e} {vs_dense:11.2e}"
        )

    print("\n(refinement kills factorization error; the dense-operator "
          "residual stays at the compression floor)")

    # persistence: compress once, reuse
    a = TLRMatrix.compress(gen.tile, gen.n, 150, accuracy=1e-6)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "operator.tlr"
        save_tlr(a, path)
        size = path.stat().st_size / 1e6
        again = load_tlr(path)
        x = rng.standard_normal(gen.n)
        drift = np.linalg.norm(tlr_matvec(again, x) - tlr_matvec(a, x))
        print(f"\nsaved compressed operator: {size:.2f} MB "
              f"(dense lower triangle: {a.dense_bytes()/1e6:.1f} MB)")
        print(f"reload matvec drift      : {drift:.2e}")


if __name__ == "__main__":
    main()
