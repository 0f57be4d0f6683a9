"""Tests for the symmetric TLR tile-matrix container."""

import numpy as np
import pytest

from repro.geometry import min_spacing, virus_population
from repro.kernels import RBFMatrixGenerator
from repro.linalg.integrity import matrix_checksums
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, TileKind
from repro.linalg.tile_matrix import TLRMatrix


class TestCompression:
    def test_roundtrip_within_tolerance(self, sparse_generator, sparse_dense_ref):
        g = sparse_generator
        a = TLRMatrix.compress(g.tile, g.n, g.tile_size, accuracy=1e-8)
        err = np.linalg.norm(a.to_dense() - sparse_dense_ref) / np.linalg.norm(
            sparse_dense_ref
        )
        assert err < 1e-6

    def test_diagonal_tiles_dense(self, sparse_tlr):
        for k in range(sparse_tlr.n_tiles):
            assert isinstance(sparse_tlr.tile(k, k), DenseTile)

    def test_has_null_tiles_in_sparse_regime(self, sparse_tlr):
        kinds = {t.kind for (m, k), t in sparse_tlr if m != k}
        assert TileKind.NULL in kinds
        assert TileKind.LOW_RANK in kinds

    def test_density_definition(self, sparse_tlr):
        """density = non-null off-diagonal tiles / off-diagonal tiles."""
        nt = sparse_tlr.n_tiles
        off = [(m, k) for k in range(nt) for m in range(k + 1, nt)]
        nonnull = sum(1 for m, k in off if not sparse_tlr.tile(m, k).is_null)
        assert sparse_tlr.density() == pytest.approx(nonnull / len(off))

    def test_from_dense_equivalent(self, sparse_generator):
        g = sparse_generator
        a1 = TLRMatrix.compress(g.tile, g.n, g.tile_size, accuracy=1e-6)
        a2 = TLRMatrix.from_dense(g.dense(), g.tile_size, accuracy=1e-6)
        assert np.array_equal(a1.rank_matrix(), a2.rank_matrix())

    def test_memory_smaller_than_dense(self, sparse_tlr):
        assert sparse_tlr.memory_bytes() < sparse_tlr.dense_bytes()

    def test_uneven_tiling(self, rng):
        """Matrix order not divisible by tile size (short last tile)."""
        n = 130
        a = rng.standard_normal((n, n))
        a = a @ a.T + n * np.eye(n)
        t = TLRMatrix.from_dense(a, tile_size=50, accuracy=1e-10)
        assert t.n_tiles == 3
        assert t.tile(2, 2).shape == (30, 30)
        assert t.tile(2, 0).shape == (30, 50)
        assert np.allclose(t.to_dense(), a, atol=1e-7)

    def test_fp64_mode_stores_no_fp32(self, sparse_generator):
        g = sparse_generator
        t = TLRMatrix.compress(g.tile, g.n, g.tile_size, 1e-6, storage="fp64")
        for _, tile in t:
            for arr in (tile.u, tile.v) if isinstance(tile, LowRankTile) else ():
                assert arr.dtype == np.float64

    def test_other_storage_is_refused(self, sparse_generator):
        g = sparse_generator
        with pytest.raises(ValueError, match="fp64"):
            TLRMatrix.compress(g.tile, g.n, g.tile_size, 1e-6, storage="mixed")


class CountingGenerator:
    """A generator that records which tiles were asked for."""

    def __init__(self, gen):
        self._gen = gen
        self.n, self.tile_size = gen.n, gen.tile_size
        self.tile_norm_bound = gen.tile_norm_bound
        self.generated = []

    def tile(self, i, j):
        self.generated.append((i, j))
        return self._gen.tile(i, j)


@pytest.fixture(scope="module")
def ragged_sparse_generator():
    """8 virions, 16 tiles with a short last one, density ~0.2."""
    pts = virus_population(8, points_per_virus=100, seed=0)[:-15]
    return RBFMatrixGenerator(
        pts, 0.5 * min_spacing(pts) * 20, tile_size=50, nugget=1e-4
    )


class TestFromGenerator:
    """The generator's norm bound spares null tiles their generation."""

    @pytest.mark.parametrize("compression", ["svd", "rand"])
    def test_same_operator_as_compress(self, ragged_sparse_generator, compression):
        g = ragged_sparse_generator
        kw = dict(compression=compression)
        a = TLRMatrix.from_generator(g, 1e-6, **kw)
        b = TLRMatrix.compress(g.tile, g.n, g.tile_size, 1e-6, **kw)
        assert a.compression_stats.bound_null > 0
        assert b.compression_stats.bound_null == 0
        assert matrix_checksums(a) == matrix_checksums(b)
        assert a.tile(15, 0).shape == b.tile(15, 0).shape == (35, 50)
        assert a.max_rank == b.max_rank

    def test_bound_certified_tiles_are_never_generated(
        self, ragged_sparse_generator
    ):
        g = CountingGenerator(ragged_sparse_generator)
        a = TLRMatrix.from_generator(g, 1e-6)
        nt = a.n_tiles
        lower = [(m, k) for k in range(nt) for m in range(k, nt)]
        certified = {
            (m, k)
            for m, k in lower
            if m != k and g.tile_norm_bound(m, k) <= a.accuracy
        }
        stats = a.compression_stats
        assert stats.bound_null == len(certified) > 0
        assert sorted(g.generated) == sorted(set(lower) - certified)
        assert all(a.tile(m, k).is_null for m, k in certified)

    def test_every_null_tile_is_certified_in_the_sparse_regime(
        self, ragged_sparse_generator
    ):
        g = ragged_sparse_generator
        for a in (
            TLRMatrix.from_generator(g, 1e-6),
            TLRMatrix.compress(g.tile, g.n, g.tile_size, 1e-6),
        ):
            nulls = sum(1 for _, t in a if t.is_null)
            stats = a.compression_stats
            assert 0.15 < a.density() < 0.25
            assert stats.screened_null + stats.bound_null == nulls
            assert stats.screened_null > 0

    def test_dense_regime_certifies_nothing(self, dense_generator):
        a = TLRMatrix.from_generator(dense_generator, 1e-7)
        assert a.density() == 1.0
        stats = a.compression_stats
        assert stats.screened_null == 0 and stats.bound_null == 0

    def test_norm_bound_ignored_on_the_diagonal(self, sparse_generator):
        g = sparse_generator
        a = TLRMatrix.compress(
            g.tile, g.n, g.tile_size, 1e-6, norm_bound=lambda i, j: 0.0
        )
        assert a.density() == 0.0
        assert all(isinstance(a.tile(k, k), DenseTile) for k in range(a.n_tiles))


class TestAccess:
    def test_upper_triangle_raises(self, sparse_tlr):
        with pytest.raises(IndexError):
            sparse_tlr.tile(0, 1)
        with pytest.raises(IndexError):
            sparse_tlr.set_tile(0, 1, DenseTile(np.zeros((200, 200))))

    def test_set_tile_shape_check(self, sparse_tlr):
        with pytest.raises(ValueError):
            sparse_tlr.copy().set_tile(1, 0, DenseTile(np.zeros((3, 3))))

    def test_set_tile_replaces(self, sparse_tlr):
        a = sparse_tlr.copy()
        shape = a.tile(1, 0).shape
        a.set_tile(1, 0, NullTile(shape))
        assert a.tile(1, 0).is_null

    def test_copy_is_independent(self, sparse_tlr):
        a = sparse_tlr.copy()
        shape = a.tile(2, 0).shape
        a.set_tile(2, 0, NullTile(shape))
        assert a.tile(2, 0).is_null != sparse_tlr.tile(2, 0).is_null or (
            sparse_tlr.tile(2, 0).is_null
        )


class TestStructureQueries:
    def test_rank_matrix_symmetric(self, sparse_tlr):
        r = sparse_tlr.rank_matrix()
        assert np.array_equal(r, r.T)

    def test_rank_array_layout(self, sparse_tlr):
        """1D layout rank[k * NT + m] must match the rank matrix."""
        nt = sparse_tlr.n_tiles
        r1 = sparse_tlr.rank_array()
        r2 = sparse_tlr.rank_matrix()
        for k in range(nt):
            for m in range(k, nt):
                assert r1[k * nt + m] == r2[m, k]

    def test_rank_stats_exclude_nulls(self, sparse_tlr):
        stats = sparse_tlr.off_diagonal_rank_stats()
        assert stats["min"] >= 1
        assert stats["max"] >= stats["avg"] >= stats["min"]


class TestValidation:
    def test_missing_tile_rejected(self):
        with pytest.raises(ValueError, match="missing tile"):
            TLRMatrix(10, 5, {}, accuracy=1e-4)

    def test_upper_tile_rejected(self):
        tiles = {(0, 0): DenseTile(np.eye(5)), (1, 1): DenseTile(np.eye(5)),
                 (1, 0): NullTile((5, 5)), (0, 1): NullTile((5, 5))}
        with pytest.raises(ValueError):
            TLRMatrix(10, 5, tiles, accuracy=1e-4)


class TestPackedStructure:
    def test_matches_brute_force(self, sparse_tlr):
        """Each non-null tile's rows of the solves' buffer, laid out row
        by row in column order, against a scan of every tile."""
        a = sparse_tlr.copy()
        m0, k0 = next((m, k) for (m, k), t in a if isinstance(t, LowRankTile))
        a.set_tile(m0, k0, DenseTile(a.tile(m0, k0).to_dense()))
        nt, rows, size = a.n_tiles, {}, 0
        for m in range(nt):
            for k in range(m):
                t = a.tile(m, k)
                if not t.is_null:
                    width = t.rank if isinstance(t, LowRankTile) else t.shape[1]
                    rows[m, k] = list(range(size, size + width))
                    size += width
        kind = {key: type(a.tile(*key)) for key in rows}
        p = a.packed()
        assert p.size == size
        for k in range(nt):
            below = [m for m in range(k + 1, nt) if (m, k) in rows]
            low = [r for m in below if kind[m, k] is LowRankTile for r in rows[m, k]]
            dense = [rows[m, k] for m in below if kind[m, k] is DenseTile]
            assert (list(p.idx[k]) if low else p.idx[k]) == (low or None)
            assert [list(range(s.start, s.stop)) for s in p.dense[k]] == dense
        assert any(p.dense)  # the tile made dense above is covered
