"""Tests for TLR matrix persistence."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.integrity import TileIntegrityError, tile_checksum
from repro.linalg.lowrank import LowRankFactor
from repro.linalg.serialization import load_tlr, read, save_tlr, write
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, TileKind
from tests.tilefile import layout, write_npz


def _patch(path, offset: int, data: bytes) -> None:
    raw = bytearray(path.read_bytes())
    raw[offset:offset + len(data)] = data
    path.write_bytes(bytes(raw))


class TestRoundtrip:
    def test_exact_roundtrip(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        back = load_tlr(path)
        assert back.n == sparse_tlr.n
        assert back.tile_size == sparse_tlr.tile_size
        assert back.accuracy == sparse_tlr.accuracy
        assert back.max_rank == sparse_tlr.max_rank
        assert np.array_equal(back.rank_matrix(), sparse_tlr.rank_matrix())
        assert np.array_equal(back.to_dense(), sparse_tlr.to_dense())

    def test_tile_kinds_preserved(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        back = load_tlr(path)
        for (m, k), tile in sparse_tlr:
            assert back.tile(m, k).kind is tile.kind

    def test_factorization_after_reload(self, sparse_tlr, sparse_dense_ref, tmp_path):
        from repro.core import hicma_parsec_factorize

        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        back = load_tlr(path)
        r = hicma_parsec_factorize(back)
        assert r.residual(sparse_dense_ref) < 1e-4

    def test_uneven_tiles(self, tmp_path, rng):
        from repro.linalg.tile_matrix import TLRMatrix

        n = 130
        a = rng.standard_normal((n, n))
        a = a @ a.T + n * np.eye(n)
        t = TLRMatrix.from_dense(a, 50, accuracy=1e-10)
        path = tmp_path / "u.tlr"
        save_tlr(t, path)
        back = load_tlr(path)
        assert back.tile(2, 2).shape == (30, 30)
        assert np.allclose(back.to_dense(), t.to_dense())

    def test_compressed_file_smaller_than_dense(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        assert path.stat().st_size < sparse_tlr.dense_bytes()

    def test_corrupt_version_rejected(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        _patch(path, 8, np.int64(99).tobytes())
        with pytest.raises(ValueError, match="version 99"):
            load_tlr(path)

    def test_file_is_version_6(self, sparse_tlr, tmp_path):
        # 6: the raw file with SHA-256 digests; the .npz files of versions
        # 1-5 (BLAKE2b digests, 4 and older rounded by the residual stop)
        # are refused by their version
        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        raw = path.read_bytes()
        assert raw[:8] == b"TLRTILES"
        assert int(np.frombuffer(raw, "<i8", 1, 8)[0]) == 6

    @pytest.mark.parametrize("version", [1, 2])
    def test_unsealed_versions_are_refused(self, sparse_tlr, tmp_path, version):
        """Versions 1 and 2 predate the seal: refused by their version."""
        path = tmp_path / "a.tlr"
        write_npz(path, version, meta=np.frombuffer(b"{}", np.uint8))
        with pytest.raises(TileIntegrityError, match="version 1-5"):
            load_tlr(path)

    def test_version_3_file_is_refused(self, sparse_tlr, tmp_path):
        """Version 3 held single-precision low-rank factors, a storage
        mode that is gone: such a file is refused by its version."""
        path = tmp_path / "a.tlr"
        write_npz(path, 3, u_matrix_1_0=np.ones((4, 2), np.float32))
        with pytest.raises(ValueError, match="version 1-5"):
            load_tlr(path)


class TestIntegrity:
    """Atomic writes, per-tile checksums and the seal."""

    def test_save_leaves_no_temp_files(self, sparse_tlr, tmp_path):
        save_tlr(sparse_tlr, tmp_path / "a.tlr")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.tlr"]

    def test_corrupted_tile_payload_raises(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        offset, _ = layout(path)["payloads"][0]
        value = np.frombuffer(path.read_bytes(), "<f8", 1, offset)[0]
        _patch(path, offset, np.float64(value + 1e-13).tobytes())  # a "silent" corruption
        with pytest.raises(TileIntegrityError, match="checksum mismatch"):
            load_tlr(path)

    def test_stripped_digest_block_is_refused(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        raw = path.read_bytes()
        at, length = layout(path)["digests"]
        path.write_bytes(raw[:at] + raw[at + length:])
        with pytest.raises(TileIntegrityError, match="bytes"):
            load_tlr(path)

    def test_checksum_count_mismatch_raises(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        count = sum(1 for _ in sparse_tlr)
        _patch(path, 32, np.int64(count - 1).tobytes())  # the header's tile count
        with pytest.raises(ValueError, match="seal"):
            load_tlr(path)

    def test_reload_preserves_memory_layout(self, sparse_tlr, tmp_path):
        """Bitwise reproducibility across save/load requires the BLAS
        input layout (C vs Fortran order, and the strides) to survive
        the round-trip: every array is read back as a view with the
        order it was written with."""
        path = tmp_path / "a.tlr"
        save_tlr(sparse_tlr, path)
        back = load_tlr(path)
        for (m, k), tile in sparse_tlr:
            if tile.kind is TileKind.LOW_RANK:
                for orig, got in ((tile.u, back.tile(m, k).u), (tile.v, back.tile(m, k).v)):
                    assert orig.flags["F_CONTIGUOUS"] == got.flags["F_CONTIGUOUS"]
                    assert orig.flags["C_CONTIGUOUS"] == got.flags["C_CONTIGUOUS"]
                    assert orig.strides == got.strides


class TestFactorRoundtripSolve:
    """Cache-persistence contract of the serving subsystem: a factor
    saved and reloaded must solve to the same answer as the in-memory
    factor, to machine precision — including null tiles."""

    @pytest.fixture(scope="class")
    def factor(self, sparse_tlr):
        from repro.core import hicma_parsec_factorize

        return hicma_parsec_factorize(sparse_tlr.copy()).factor

    def test_factor_retains_null_tiles(self, factor):
        from repro.linalg.tile import TileKind

        kinds = {t.kind for (_, _), t in factor}
        assert TileKind.NULL in kinds  # the contract covers null tiles

    def test_solve_after_roundtrip_matches_memory(self, factor, tmp_path):
        from repro.core.solver import solve_cholesky

        rng = np.random.default_rng(21)
        b = rng.standard_normal(factor.n)
        x_mem = solve_cholesky(factor, b)

        path = tmp_path / "factor.tlr"
        save_tlr(factor, path)
        x_disk = solve_cholesky(load_tlr(path), b)
        # the tiles round-trip with their bytes, order and strides, so
        # BLAS sees the same operands: the answers agree bitwise
        assert np.array_equal(x_mem, x_disk)

    def test_blocked_solve_after_roundtrip(self, factor, tmp_path):
        from repro.core.solver import solve_cholesky

        rng = np.random.default_rng(22)
        block = rng.standard_normal((factor.n, 4))
        path = tmp_path / "factor.tlr"
        save_tlr(factor, path, compressed=False)
        back = load_tlr(path)
        x_mem = solve_cholesky(factor, block)
        x_disk = solve_cholesky(back, block)
        diff = np.linalg.norm(x_mem - x_disk)
        assert diff <= 1e-13 * np.linalg.norm(x_mem)

    def test_logdet_after_roundtrip(self, factor, tmp_path):
        from repro.core.solver import logdet

        path = tmp_path / "factor.tlr"
        save_tlr(factor, path)
        assert logdet(load_tlr(path)) == pytest.approx(logdet(factor), rel=1e-14)

    def test_uncompressed_save_roundtrip_identical(self, sparse_tlr, tmp_path):
        """``compressed`` is ignored: format 6 is always raw."""
        p1 = tmp_path / "c.tlr"
        p2 = tmp_path / "u.tlr"
        save_tlr(sparse_tlr, p1, compressed=True)
        save_tlr(sparse_tlr, p2, compressed=False)
        assert np.array_equal(load_tlr(p1).to_dense(), load_tlr(p2).to_dense())
        assert p2.read_bytes() == p1.read_bytes()


def small_tlr(seed=5):
    """A 4 x 4-tile operator with null, low-rank and dense tiles."""
    from repro.linalg.tile_matrix import TLRMatrix

    rng = np.random.default_rng(seed)
    x = np.sort(rng.random(64))
    a = np.exp(-np.abs(x[:, None] - x[None, :]) / 0.05) + 64 * np.eye(64)
    t = TLRMatrix.from_dense(a, 16, accuracy=1e-8)
    t.set_tile(3, 0, NullTile((16, 16)))
    return t


def _same_tiles(back, original) -> None:
    """``back`` holds ``original``'s metadata, digests and tile values."""
    assert back.meta == original.meta and back.checksums == original.checksums
    for group, tiles in original.groups.items():
        assert list(back.groups[group]) == list(tiles)
        for key, tile in tiles.items():
            got = back.groups[group][key]
            assert got.kind is tile.kind and got.shape == tile.shape
            assert np.array_equal(got.to_dense(), tile.to_dense())


class TestSealedFile:
    """Properties of the one tile format: never trust a damaged file,
    and the same content always gives the same bytes."""

    @pytest.fixture(scope="class")
    def sealed(self, tmp_path_factory):
        from repro.linalg.serialization import save_matrices

        path = tmp_path_factory.mktemp("sealed") / "entry.tlr"
        a = small_tlr()
        kinds = {t.kind for _, t in a}
        assert kinds == set(TileKind)  # every tile kind is covered
        save_matrices(path, {"operator": a, "factor": small_tlr(6)}, tag="x")
        return path

    def _damaged(self, sealed, tmp_path, raw) -> None:
        """``raw`` is refused, or reads back as ``sealed`` does."""
        path = tmp_path / "damaged.tlr"
        path.write_bytes(bytes(raw))
        try:
            back = read(path)
        except TileIntegrityError:
            return
        _same_tiles(back, read(sealed))

    @given(
        damage=st.one_of(
            st.tuples(st.just("flip"), st.integers(0, 1 << 30), st.integers(1, 255)),
            st.tuples(st.just("truncate"), st.integers(0, 1 << 30), st.just(0)),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_damaged_file_is_refused_or_unchanged(self, sealed, tmp_path_factory, damage):
        raw = bytearray(sealed.read_bytes())
        how, offset, mask = damage
        offset %= len(raw)
        if how == "flip":
            raw[offset] ^= mask
        else:
            del raw[offset:]
        self._damaged(sealed, tmp_path_factory.mktemp("damaged"), raw)

    def test_every_byte_flip_before_the_payloads_is_refused_or_unchanged(
        self, sealed, tmp_path
    ):
        """Header, seal, index and tile table, every byte: all but the
        zero padding before the table are sealed."""
        raw = sealed.read_bytes()
        first_payload = min(offset for offset, _ in layout(sealed)["payloads"])
        for offset in range(first_payload):
            damaged = bytearray(raw)
            damaged[offset] ^= 0xFF
            self._damaged(sealed, tmp_path, damaged)

    def test_every_truncation_is_refused(self, sealed, tmp_path):
        path = tmp_path / "short.tlr"
        path.write_bytes(sealed.read_bytes())
        for size in reversed(range(path.stat().st_size)):
            os.truncate(path, size)
            with pytest.raises(TileIntegrityError):
                read(path)

    def test_byte_265_flip_is_refused(self, sealed, tmp_path):
        """Byte 265 lies inside the tile table, which the seal covers
        (it lay inside an ``.npy`` header in the ``.npz`` container of
        format 5, where numpy failed with errors of its own)."""
        at, length = layout(sealed)["table"]
        assert at <= 265 < at + length
        raw = bytearray(sealed.read_bytes())
        raw[265] ^= 0x40
        path = tmp_path / "entry.tlr"
        path.write_bytes(bytes(raw))
        with pytest.raises(TileIntegrityError, match="seal"):
            read(path)

    def test_serial_and_threads_factors_write_identical_bytes(self, tmp_path):
        from repro.core.tlr_cholesky import tlr_cholesky

        paths = []
        for engine in ("serial", "threads"):
            factor = tlr_cholesky(small_tlr(), engine=engine, workers=2).factor
            paths.append(tmp_path / f"{engine}.tlr")
            save_tlr(factor, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_meta_edit_breaks_the_seal(self, sealed, tmp_path):
        raw = sealed.read_bytes()
        assert raw.count(b'"tag": "x"') == 1
        path = tmp_path / "entry.tlr"
        path.write_bytes(raw.replace(b'"tag": "x"', b'"tag": "y"'))
        with pytest.raises(TileIntegrityError, match="seal"):
            read(path)

    def test_format_5_file_is_refused_by_its_version(self, sealed, tmp_path):
        path = tmp_path / "entry.npz"
        write_npz(path, meta=np.frombuffer(b'{"n": 64}', np.uint8))
        with pytest.raises(TileIntegrityError, match="version 1-5"):
            read(path)


def _tiles(rng, n: int, b: int, kinds, orders) -> dict:
    """Lower-triangle tiles of an ``n x n`` grid of ``b``-tiles (the
    last one ragged when ``b`` does not divide ``n``): ``kinds`` and
    ``orders`` are cycled over them."""
    sizes = [min(b, n - i) for i in range(0, n, b)]
    keys = [(m, k) for m in range(len(sizes)) for k in range(m + 1)]
    tiles = {}
    for i, (m, k) in enumerate(keys):
        rows, cols = sizes[m], sizes[k]
        order = orders[i % len(orders)]
        kind = kinds[i % len(kinds)]
        if kind == "null":
            tiles[m, k] = NullTile((rows, cols))
        elif kind == "dense":
            tiles[m, k] = DenseTile(np.array(rng.standard_normal((rows, cols)), order=order[0]))
        else:
            rank = 1 + i % min(rows, cols)
            u, v = (np.array(rng.standard_normal((s, rank)), order=o)
                    for s, o in ((rows, order[0]), (cols, order[1])))
            tiles[m, k] = LowRankTile(LowRankFactor(u, v))
    return tiles


class TestRoundtripProperty:
    """Whatever the tiles, a read returns them with the bytes, memory
    order and strides they were written with, and their digests."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        b=st.integers(1, 12),
        kinds=st.lists(st.sampled_from(["null", "dense", "lowrank"]), min_size=1, max_size=6),
        orders=st.lists(st.sampled_from(["CC", "CF", "FC", "FF"]), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_keeps_bytes_order_and_strides(
        self, tmp_path_factory, seed, n, b, kinds, orders
    ):
        rng = np.random.default_rng(seed)
        groups = {g: _tiles(rng, n, b, kinds, orders) for g in ("operator", "factor")}
        path = tmp_path_factory.mktemp("roundtrip") / "entry.tlr"
        write(path, {g: tiles.items() for g, tiles in groups.items()}, {"seed": seed})
        back = read(path)
        assert back.meta == {"seed": seed} and list(back.groups) == ["factor", "operator"]
        for g, tiles in groups.items():
            assert list(back.groups[g]) == sorted(tiles)
            for key, tile in tiles.items():
                got = back.groups[g][key]
                assert got.kind is tile.kind and got.shape == tile.shape
                assert back.checksums[g][key] == tile_checksum(tile)
                pairs = {
                    TileKind.NULL: [],
                    TileKind.DENSE: [(tile.data, got.data)] if tile.kind is TileKind.DENSE else [],
                    TileKind.LOW_RANK: [(tile.u, got.u), (tile.v, got.v)]
                    if tile.kind is TileKind.LOW_RANK else [],
                }[tile.kind]
                for want, have in pairs:
                    assert have.strides == want.strides
                    assert have.flags.c_contiguous == want.flags.c_contiguous
                    assert have.flags.f_contiguous == want.flags.f_contiguous
                    assert have.tobytes(order="A") == want.tobytes(order="A")
                    assert have.ctypes.data % 64 == 0
