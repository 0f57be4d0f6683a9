"""Edge-case coverage for driver internals and app options."""

import numpy as np
import pytest

from repro.apps.mesh_deformation import RBFMeshDeformation
from repro.core.trimming import _flops_for, _ptg_flops_for, cholesky_tasks
from repro.geometry import fibonacci_sphere
from repro.kernels.rbf import InverseMultiquadricRBF
from repro.runtime.dag import build_graph


class TestFlopsForEdges:
    def test_unknown_class_raises(self):
        with pytest.raises(ValueError):
            _flops_for("WHAT", (0,), 100, lambda m, k: 1)

    def test_dense_rank_uses_dense_formulas(self):
        from repro.linalg import flops as fl

        b = 64
        rank_of = lambda m, k: b  # everything dense
        assert _flops_for("TRSM", (1, 0), b, rank_of) == fl.trsm_dense_flops(b)
        assert _flops_for("SYRK", (2,), b, rank_of, (0, 1)) == 2 * fl.syrk_dense_flops(b)
        assert _flops_for("GEMM", (2, 1), b, rank_of, (0,)) == fl.gemm_dense_flops(b)
        # the right-looking PTG instances (simulator input)
        assert _ptg_flops_for("TRSM", (1, 0), b, rank_of) == fl.trsm_dense_flops(b)
        assert _ptg_flops_for("SYRK", (1, 0), b, rank_of) == fl.syrk_dense_flops(b)
        assert _ptg_flops_for("GEMM", (2, 1, 0), b, rank_of) == fl.gemm_dense_flops(b)

    def test_rank_capped_at_tile_size(self):
        b = 64
        over = _flops_for("TRSM", (1, 0), b, lambda m, k: 10 * b)
        exact = _flops_for("TRSM", (1, 0), b, lambda m, k: b)
        assert over == exact


class TestGraphEdges:
    def test_empty_graph(self):
        g = build_graph([])
        assert len(g) == 0
        assert g.n_edges() == 0 and g.task_counts() == {}

    def test_n_edges_counts(self):
        g = build_graph(cholesky_tasks(3))
        assert g.n_edges() > 0
        total = sum(len(s) for s in g.successors.values())
        assert g.n_edges() == total


class TestMeshDeformationOptions:
    @pytest.fixture(scope="class")
    def boundary(self):
        return fibonacci_sphere(400, radius=0.05)

    def test_reorder_false(self, boundary):
        s = RBFMeshDeformation(boundary, tile_size=100, reorder=False)
        assert np.array_equal(s.points, boundary)

    def test_custom_kernel(self, boundary):
        s = RBFMeshDeformation(
            boundary,
            tile_size=100,
            kernel=InverseMultiquadricRBF(),
            shape_parameter=0.02,
            accuracy=1e-8,
        )
        d = np.tile([1e-3, 0.0, 0.0], (len(boundary), 1))  # a translation
        res = s.deform(boundary[:10] * 1.01, d)
        assert res.boundary_error < 1e-4

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            RBFMeshDeformation(np.zeros((3, 3)))
