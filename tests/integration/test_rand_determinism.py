"""The factor is a pure function of the operator's tiles.

The factorization rounds every accumulated update with the build's
certified exact-rank compression, which samples one fixed test matrix:
there is no seed and no per-tile stream.  So the factor of a spec
build equals, bitwise, the factor of the same operator after a
``save_tlr``/``load_tlr`` round trip and of the same tiles compressed
through ``TLRMatrix.compress``; rebuilds are byte-identical; and serial
and threaded executions produce byte-equal factors.
"""

import numpy as np
import pytest

from repro.core.tlr_cholesky import tlr_cholesky
from repro.geometry import min_spacing, virus_population
from repro.kernels.matgen import RBFMatrixGenerator
from repro.linalg.serialization import load_tlr, save_tlr
from repro.linalg.tile import LowRankTile
from repro.linalg.tile_matrix import TLRMatrix
from repro.service.spec import OperatorSpec

TILE = 75
ACCURACY = 1e-6


def _spec():
    pts = virus_population(2, points_per_virus=150, cube_edge=1.7, seed=5)
    return OperatorSpec(
        points=pts,
        shape_parameter=0.5 * min_spacing(pts) * 100,
        tile_size=TILE,
        accuracy=ACCURACY,
        nugget=1e-4,
    )


def _generator():
    spec = _spec()
    return RBFMatrixGenerator(
        points=spec.points,
        shape_parameter=spec.shape_parameter,
        tile_size=TILE,
        nugget=spec.nugget,
    )


def _operator():
    gen = _generator()
    return TLRMatrix.compress(gen.tile, gen.n, TILE, ACCURACY, max_rank=40)


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


@pytest.fixture(scope="module")
def built():
    return _spec().build()


class TestFactorPurity:
    @pytest.mark.parametrize("source", ["roundtrip", "compress"])
    def test_factor_depends_only_on_the_tiles(self, built, source, tmp_path):
        if source == "roundtrip":
            path = tmp_path / "operator.tlr"
            save_tlr(built.operator, path)
            operator = load_tlr(path)
        else:
            gen = _generator()
            operator = TLRMatrix.compress(gen.tile, gen.n, TILE, ACCURACY)
        assert _tile_bytes(operator) == _tile_bytes(built.operator)
        result = tlr_cholesky(operator)
        assert _tile_bytes(result.factor) == _tile_bytes(built.factor)
        # the operator exercises the rounding: GEMMs leave low-rank tiles
        gemms = [t.params for t in result.graph.tasks if t.klass == "GEMM"]
        assert any(isinstance(result.factor.tile(*mn), LowRankTile) for mn in gemms)


class TestRebuildDeterminism:
    def test_two_builds_are_byte_identical(self):
        assert _tile_bytes(_operator()) == _tile_bytes(_operator())


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
