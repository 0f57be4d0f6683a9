"""Tests for the synthetic rank field."""

import numpy as np
import pytest

from repro.core.rank_model import SyntheticRankField, analyze_mask_fast
from repro.geometry import min_spacing, virus_population
from repro.kernels import RBFMatrixGenerator
from repro.linalg import TLRMatrix


@pytest.fixture(scope="module")
def workload():
    pts = virus_population(6, points_per_virus=800, cube_edge=1.7, seed=3)
    return pts, min_spacing(pts)


class TestFromParameters:
    def test_density_grows_with_shape_parameter(self, workload):
        """The central Fig. 4 behaviour."""
        pts, s = workload
        dens = [
            SyntheticRankField.from_parameters(
                len(pts), 240, 0.5 * s * mult, 1e-4, points_per_virus=800
            ).initial_density()
            for mult in (1, 10, 100)
        ]
        assert dens[0] <= dens[1] <= dens[2]
        assert dens[2] > 0.8  # large shape -> dense

    def test_rank_rises_then_falls_with_shape(self, workload):
        """Paper: labeled ranks get higher then eventually decrease."""
        pts, s = workload
        peaks = [
            SyntheticRankField.from_parameters(
                len(pts), 240, 0.5 * s * mult, 1e-4, points_per_virus=800
            ).rank_by_distance[1]
            for mult in (1, 10, 100)
        ]
        assert peaks[1] > peaks[0]
        assert peaks[1] > peaks[2]

    def test_tighter_accuracy_raises_ranks(self, workload):
        """Fig. 12: accuracy 1e-9 costs more than 1e-5."""
        pts, s = workload
        r5 = SyntheticRankField.from_parameters(
            len(pts), 240, 0.5 * s * 10, 1e-5, points_per_virus=800
        )
        r9 = SyntheticRankField.from_parameters(
            len(pts), 240, 0.5 * s * 10, 1e-9, points_per_virus=800
        )
        assert r9.rank_by_distance[1] > r5.rank_by_distance[1]
        assert r9.initial_density() >= r5.initial_density()

    def test_matches_real_compression(self, workload):
        """Model density/ranks within a factor ~2 of real compression
        at two ends of the shape spectrum."""
        pts, s = workload
        for mult in (10, 100):
            gen = RBFMatrixGenerator(pts, 0.5 * s * mult, 240, nugget=0.0)
            real = TLRMatrix.compress(gen.tile, gen.n, 240, accuracy=1e-4)
            model = SyntheticRankField.from_parameters(
                len(pts), 240, 0.5 * s * mult, 1e-4, points_per_virus=800
            )
            assert model.initial_density() == pytest.approx(
                real.density(), rel=0.6, abs=0.08
            )
            stats = real.off_diagonal_rank_stats()
            assert model.rank_by_distance[1] == pytest.approx(
                stats["max"], rel=0.6
            )

    def test_diagonal_always_dense(self, workload):
        pts, s = workload
        f = SyntheticRankField.from_parameters(len(pts), 240, 0.01, 1e-4)
        assert f.rank_by_distance[0] == 240
        assert f.density_by_distance[0] == 1.0


class TestMaskSampling:
    @pytest.fixture()
    def field(self, workload):
        pts, s = workload
        return SyntheticRankField.from_parameters(
            len(pts), 240, 0.5 * s * 10, 1e-4, points_per_virus=800
        )

    def test_mask_lower_triangular_with_unit_diagonal(self, field):
        mask = field.initial_mask()
        assert np.all(np.diag(mask))
        assert not np.any(np.triu(mask, 1))

    def test_mask_density_tracks_expectation(self, field):
        mask = field.initial_mask()
        assert field.initial_density(mask) == pytest.approx(
            field.initial_density(), abs=0.08
        )

    def test_mask_deterministic_by_seed(self, field):
        assert np.array_equal(field.initial_mask(), field.initial_mask())

    def test_rank_matrix_consistent_with_mask(self, field):
        mask = field.initial_mask()
        ranks = field.rank_matrix(mask)
        # lower-triangle ranks positive exactly where the mask is set
        low = np.tril(np.ones_like(mask, dtype=bool))
        assert np.array_equal((ranks > 0) & low, mask & low)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticRankField(4, 10, np.ones(2), np.ones(4))
        with pytest.raises(ValueError):
            SyntheticRankField(4, 10, np.ones(4), 2 * np.ones(4))
