"""Integration tests: the full pipeline on the paper's workload shape,
plus cross-module consistency between the numeric drivers, the
symbolic analysis, the simulators and the application layer."""

import numpy as np
import pytest

from repro import (
    HICMA_PARSEC,
    DistributedSimulator,
    RBFMatrixGenerator,
    SHAHEEN_II,
    SyntheticRankField,
    TLRMatrix,
    analyze_ranks,
    hicma_parsec_factorize,
    min_spacing,
    solve_cholesky,
    tlr_cholesky,
    virus_population,
)
from repro.core.trimming import ptg_cholesky_tasks
from repro.runtime import build_graph


@pytest.fixture(scope="module")
def pipeline():
    """Full paper pipeline at laptop scale: virus population ->
    Hilbert order -> RBF operator -> compression."""
    pts = virus_population(4, points_per_virus=400, cube_edge=1.7, seed=11)
    delta = 0.5 * min_spacing(pts) * 30
    gen = RBFMatrixGenerator(pts, delta, tile_size=160, nugget=1e-4)
    a = TLRMatrix.compress(gen.tile, gen.n, 160, accuracy=1e-6)
    return pts, gen, a


class TestFullPipeline:
    def test_mixture_of_data_structures(self, pipeline):
        """After compression the operator holds dense, low-rank AND
        null tiles simultaneously — the paper's core challenge."""
        _, _, a = pipeline
        kinds = {t.kind.value for _, t in a}
        assert kinds == {"dense", "low_rank", "null"}

    def test_factorize_and_solve(self, pipeline):
        _, gen, a = pipeline
        result = hicma_parsec_factorize(a.copy())
        rng = np.random.default_rng(0)
        x_true = rng.standard_normal(gen.n)
        dense = gen.dense()
        b = dense @ x_true
        x = solve_cholesky(result.factor, b)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-2

    def test_lorapo_and_hicma_same_numerics(self, pipeline):
        _, gen, a = pipeline
        r1 = hicma_parsec_factorize(a.copy())
        r2 = tlr_cholesky(a.copy(), trim=False)  # Lorapo: the full DAG
        d = gen.dense()
        assert r1.residual(d) == pytest.approx(r2.residual(d), rel=1e-6)
        assert len(r1.graph) < len(r2.graph)

    def test_numeric_density_growth_matches_analysis(self, pipeline):
        """Initial->final density growth (fill-in) must agree between
        the numeric factorization and Algorithm 1's prediction."""
        _, _, a = pipeline
        ana = analyze_ranks(a.rank_array(), a.n_tiles)
        result = hicma_parsec_factorize(a.copy())
        numeric_final = result.factor.density()
        assert numeric_final <= ana.final_density() + 1e-9

    def test_calibrated_field_feeds_simulator(self, pipeline):
        """Real compression's ranks -> simulate at 4 nodes."""
        _, _, a = pipeline
        ranks = a.rank_matrix()
        ana = analyze_ranks(ranks, a.n_tiles)
        rank_of = lambda m, k: int(ranks[m, k]) if m != k else a.tile_size
        g = build_graph(
            ptg_cholesky_tasks(a.n_tiles, ana, tile_size=a.tile_size, rank_of=rank_of)
        )
        sim = DistributedSimulator(SHAHEEN_II, 4)
        res = sim.run(g, a.tile_size, rank_of, HICMA_PARSEC.data_distribution(4),
                      HICMA_PARSEC.exec_distribution(4))
        assert res.makespan > 0
        assert res.n_tasks == len(g)


class TestScaleConsistency:
    def test_synthetic_field_statistics_scale(self):
        """Growing N at fixed physics keeps per-distance profiles
        stable (the assumption behind at-scale extrapolation)."""
        f1 = SyntheticRankField.from_parameters(200_000, 2000, 3.7e-4, 1e-4)
        f2 = SyntheticRankField.from_parameters(800_000, 2000, 3.7e-4, 1e-4)
        # same tile size, same physics: near-diagonal ranks identical
        assert np.allclose(
            f1.rank_by_distance[:5], f2.rank_by_distance[:5], rtol=0.2
        )
