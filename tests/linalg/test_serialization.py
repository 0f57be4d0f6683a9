"""Tests for TLR matrix persistence."""

import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.integrity import TileIntegrityError
from repro.linalg.serialization import load_tlr, save_tlr
from repro.linalg.tile import TileKind


class TestRoundtrip:
    def test_exact_roundtrip(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        back = load_tlr(path)
        assert back.n == sparse_tlr.n
        assert back.tile_size == sparse_tlr.tile_size
        assert back.accuracy == sparse_tlr.accuracy
        assert back.max_rank == sparse_tlr.max_rank
        assert np.array_equal(back.rank_matrix(), sparse_tlr.rank_matrix())
        assert np.array_equal(back.to_dense(), sparse_tlr.to_dense())

    def test_tile_kinds_preserved(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        back = load_tlr(path)
        for (m, k), tile in sparse_tlr:
            assert back.tile(m, k).kind is tile.kind

    def test_factorization_after_reload(self, sparse_tlr, sparse_dense_ref, tmp_path):
        from repro.core import hicma_parsec_factorize

        path = tmp_path / "a.npz"
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
        path = tmp_path / "u.npz"
        save_tlr(t, path)
        back = load_tlr(path)
        assert back.tile(2, 2).shape == (30, 30)
        assert np.allclose(back.to_dense(), t.to_dense())

    def test_compressed_file_smaller_than_dense(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        assert path.stat().st_size < sparse_tlr.dense_bytes()

    def test_corrupt_version_rejected(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["header"] = arrays["header"].copy()
        arrays["header"][0] = 99
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_tlr(path)

    def test_file_is_version_5(self, sparse_tlr, tmp_path):
        # 5: factors rounded by the exact-rank rule; a version-4 factor
        # or checkpoint (residual-stop rounding) is refused by its version
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        with np.load(path) as data:
            assert int(data["header"][0]) == 5

    @pytest.mark.parametrize("version", [1, 2])
    def test_unsealed_versions_are_refused(self, sparse_tlr, tmp_path, version):
        """Versions 1 and 2 predate the seal: refused by their version."""
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "seal"}
        arrays["header"] = np.array([version, sparse_tlr.n, sparse_tlr.tile_size, -1])
        np.savez(path, **arrays)
        with pytest.raises(TileIntegrityError, match=f"version {version}"):
            load_tlr(path)

    def test_version_3_file_is_refused(self, sparse_tlr, tmp_path):
        """Version 3 held single-precision low-rank factors, a storage
        mode that is gone: such a file is refused by its version."""
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "checksums"}
        for key in arrays:
            if key[:2] in ("u_", "v_"):
                arrays[key] = arrays[key].astype(np.float32)
        arrays["header"] = arrays["header"].copy()
        arrays["header"][0] = 3
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="version 3"):
            load_tlr(path)


class TestIntegrity:
    """Atomic writes, per-tile checksums and the seal."""

    def test_save_leaves_no_temp_files(self, sparse_tlr, tmp_path):
        save_tlr(sparse_tlr, tmp_path / "a.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.npz"]

    def test_corrupted_tile_payload_raises(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        key = next(k for k in arrays if k[0] in "du")
        arr = arrays[key].copy()
        arr.reshape(-1)[0] += 1e-13  # a "silent" corruption
        arrays[key] = arr
        np.savez_compressed(path, **arrays)
        with pytest.raises(TileIntegrityError, match="checksum mismatch"):
            load_tlr(path)

    def test_stripped_digest_block_is_refused(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "checksums"}
        np.savez(path, **arrays)
        with pytest.raises(TileIntegrityError, match="checksums"):
            load_tlr(path)

    def test_checksum_count_mismatch_raises(self, sparse_tlr, tmp_path):
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["checksums"] = arrays["checksums"][:-1]
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="checksums"):
            load_tlr(path)

    def test_reload_preserves_memory_layout(self, sparse_tlr, tmp_path):
        """Bitwise reproducibility across save/load requires the BLAS
        input layout (C vs Fortran order) to survive the round-trip —
        np.asarray on load, never np.ascontiguousarray."""
        path = tmp_path / "a.npz"
        save_tlr(sparse_tlr, path)
        back = load_tlr(path)
        for (m, k), tile in sparse_tlr:
            if tile.kind is TileKind.LOW_RANK:
                orig = tile.u
                got = back.tile(m, k).u
                assert orig.flags["F_CONTIGUOUS"] == got.flags["F_CONTIGUOUS"]
                assert orig.flags["C_CONTIGUOUS"] == got.flags["C_CONTIGUOUS"]


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

        path = tmp_path / "factor.npz"
        save_tlr(factor, path)
        x_disk = solve_cholesky(load_tlr(path), b)
        # machine precision relative to the solution norm (the tiles
        # round-trip bit-exactly; only BLAS layout choices may differ)
        diff = np.linalg.norm(x_mem - x_disk)
        assert diff <= 1e-13 * np.linalg.norm(x_mem)

    def test_blocked_solve_after_roundtrip(self, factor, tmp_path):
        from repro.core.solver import solve_cholesky

        rng = np.random.default_rng(22)
        block = rng.standard_normal((factor.n, 4))
        path = tmp_path / "factor.npz"
        save_tlr(factor, path, compressed=False)
        back = load_tlr(path)
        x_mem = solve_cholesky(factor, block)
        x_disk = solve_cholesky(back, block)
        diff = np.linalg.norm(x_mem - x_disk)
        assert diff <= 1e-13 * np.linalg.norm(x_mem)

    def test_logdet_after_roundtrip(self, factor, tmp_path):
        from repro.core.solver import logdet

        path = tmp_path / "factor.npz"
        save_tlr(factor, path)
        assert logdet(load_tlr(path)) == pytest.approx(logdet(factor), rel=1e-14)

    def test_uncompressed_save_roundtrip_identical(self, sparse_tlr, tmp_path):
        """compressed=False changes only the container, not the data."""
        p1 = tmp_path / "c.npz"
        p2 = tmp_path / "u.npz"
        save_tlr(sparse_tlr, p1, compressed=True)
        save_tlr(sparse_tlr, p2, compressed=False)
        assert np.array_equal(load_tlr(p1).to_dense(), load_tlr(p2).to_dense())
        assert p2.stat().st_size >= p1.stat().st_size


def small_tlr(seed=5):
    """A 4 x 4-tile operator with null, low-rank and dense tiles."""
    from repro.linalg.tile import NullTile
    from repro.linalg.tile_matrix import TLRMatrix

    rng = np.random.default_rng(seed)
    x = np.sort(rng.random(64))
    a = np.exp(-np.abs(x[:, None] - x[None, :]) / 0.05) + 64 * np.eye(64)
    t = TLRMatrix.from_dense(a, 16, accuracy=1e-8)
    t.set_tile(3, 0, NullTile((16, 16)))
    return t


class TestSealedFile:
    """Properties of the one tile format: never trust a damaged file,
    and the same content always gives the same bytes."""

    @pytest.fixture(scope="class")
    def sealed(self, tmp_path_factory):
        from repro.linalg.serialization import save_matrices

        path = tmp_path_factory.mktemp("sealed") / "entry.npz"
        a = small_tlr()
        kinds = {t.kind for _, t in a}
        assert kinds == set(TileKind)  # every tile kind is covered
        save_matrices(path, {"operator": a, "factor": small_tlr(6)}, compressed=False, tag="x")
        return path

    @given(
        damage=st.one_of(
            st.tuples(st.just("flip"), st.integers(0, 1 << 30), st.integers(1, 255)),
            st.tuples(st.just("truncate"), st.integers(0, 1 << 30), st.just(0)),
        )
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_damaged_file_is_refused_or_unchanged(self, sealed, tmp_path_factory, damage):
        from repro.linalg.serialization import read

        original = read(sealed)
        raw = bytearray(sealed.read_bytes())
        how, offset, mask = damage
        offset %= len(raw)
        if how == "flip":
            raw[offset] ^= mask
        else:
            del raw[offset:]
        path = tmp_path_factory.mktemp("damaged") / "entry.npz"
        path.write_bytes(bytes(raw))
        try:
            back = read(path)
        except TileIntegrityError:
            return
        assert back.meta == original.meta
        assert back.checksums == original.checksums
        for group, tiles in original.groups.items():
            for key, tile in tiles.items():
                got = back.groups[group][key]
                assert got.kind is tile.kind and got.shape == tile.shape
                assert np.array_equal(got.to_dense(), tile.to_dense())

    def test_byte_265_flip_is_refused(self, sealed, tmp_path):
        """Bit 6 of byte 265 lies inside an ``.npy`` header; numpy fails
        to parse it with an error of its own, which the reader turns
        into a refusal."""
        from repro.linalg.serialization import read

        raw = bytearray(sealed.read_bytes())
        raw[265] ^= 0x40
        path = tmp_path / "entry.npz"
        path.write_bytes(bytes(raw))
        with pytest.raises(TileIntegrityError):
            read(path)

    def test_serial_and_threads_factors_write_identical_bytes(self, tmp_path):
        from repro.core.tlr_cholesky import tlr_cholesky

        paths = []
        for engine in ("serial", "threads"):
            factor = tlr_cholesky(small_tlr(), engine=engine, workers=2).factor
            paths.append(tmp_path / f"{engine}.npz")
            save_tlr(factor, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        with zipfile.ZipFile(paths[0]) as zf:
            assert {i.date_time for i in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    def test_meta_edit_breaks_the_seal(self, sealed, tmp_path):
        from repro.linalg.serialization import read

        with np.load(sealed) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["meta"] = np.frombuffer(b'{"n": 64, "tag": "y"}', np.uint8)
        path = tmp_path / "entry.npz"
        np.savez(path, **arrays)
        with pytest.raises(TileIntegrityError, match="seal"):
            read(path)
