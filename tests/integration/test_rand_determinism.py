"""Randomized compression under every engine: bitwise-identical factors.

The repo's reproducibility contract says the factor is a pure function
of the operator spec — independent of engine and worker count.  The
randomized compression paths introduce sampling, so the contract
additionally rests on the deterministic per-tile seed derivation
(seed root + tile coordinates + generation: 0 for the build, 1 for the
one rounding of the tile's accumulated update).  These tests pin it
end to end: rebuilds draw identical samples, and serial and threaded
executions of the update rounding produce byte-equal factors.
"""

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from repro.core.tlr_cholesky import tlr_cholesky
from repro.geometry import virus_population
from repro.kernels.matgen import RBFMatrixGenerator
from repro.linalg.tile_matrix import TLRMatrix

TILE = 75
ACCURACY = 1e-6
SEED_ROOT = 0xC0FFEE


def _generator():
    pts = virus_population(2, points_per_virus=150, cube_edge=1.7, seed=5)
    return RBFMatrixGenerator(
        points=pts,
        shape_parameter=0.5 * pdist(pts).min() * 40,
        tile_size=TILE,
        nugget=1e-4,
    )


def _operator():
    gen = _generator()
    return TLRMatrix.compress(
        gen.tile,
        gen.n,
        TILE,
        ACCURACY,
        max_rank=40,
        compression="rand",
        seed_root=SEED_ROOT,
    )


def _tile_bytes(a):
    """Canonical byte image of every stored tile (dtype included)."""
    out = {}
    for (m, k), tile in sorted(a, key=lambda it: it[0]):
        arrays = [
            np.ascontiguousarray(arr)
            for arr in (
                (tile.u, tile.v)
                if hasattr(tile, "u")
                else (tile.data,)
                if hasattr(tile, "data")
                else ()
            )
        ]
        out[(m, k)] = tuple((a.dtype.str, a.tobytes()) for a in arrays)
    return out


class TestRebuildDeterminism:
    def test_two_builds_are_byte_identical(self):
        assert _tile_bytes(_operator()) == _tile_bytes(_operator())

    def test_seed_root_changes_samples_not_structure(self):
        gen = _generator()
        other = TLRMatrix.compress(
            gen.tile,
            gen.n,
            TILE,
            ACCURACY,
            max_rank=40,
            compression="rand",
            seed_root=SEED_ROOT + 1,
        )
        base = _operator()
        # identical rank structure and operator, different sample draws
        assert np.array_equal(base.rank_matrix(), other.rank_matrix())
        assert np.allclose(base.to_dense(), other.to_dense(), atol=1e-5)


class TestCrossEngineBitwise:
    @pytest.fixture(scope="class")
    def serial_factor(self):
        r = tlr_cholesky(_operator(), trim=True, engine="serial")
        return r.factor.to_dense(symmetrize=False)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("engine,workers", [("threads", 4)])
    def test_factor_matches_serial(self, serial_factor, engine, workers):
        r = tlr_cholesky(
            _operator(), trim=True, engine=engine, workers=workers
        )
        assert np.array_equal(
            r.factor.to_dense(symmetrize=False), serial_factor
        )
