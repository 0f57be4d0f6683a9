"""Persistence for compressed TLR matrices (single-file ``.npz``).

Compressing a large operator is the expensive phase (Fig. 11); saving
the compressed form lets downstream runs (factorize with different
distributions, sweep accuracy-compatible experiments) skip it.  The
format stores each tile's payload under ``kind_/u_/v_/d_`` keys plus
a small header — no pickling, portable across numpy versions.

Robustness guarantees (format version 2):

* **atomic writes** — :func:`save_tlr` streams into a temp file in the
  target directory, fsyncs, then renames, so a crash mid-save can
  never leave a torn ``.npz`` under the final name;
* **embedded checksums** — a BLAKE2b digest per tile
  (:func:`repro.linalg.integrity.tile_checksum`) rides along with the
  payload and is re-verified on load, so a flipped bit or truncated
  buffer raises :class:`~repro.linalg.integrity.TileIntegrityError`
  instead of flowing silently into a factorization or a served solve.

Version-1 files (no checksum block) still load; they simply skip
verification.  Version 3 held single-precision low-rank factors, a
storage mode that no longer exists: such files are refused.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.integrity import TileIntegrityError, tile_checksum
from repro.linalg.lowrank import LowRankFactor
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile
from repro.linalg.tile_matrix import TLRMatrix
from repro.utils.atomic import atomic_write_via

__all__ = ["save_tlr", "load_tlr", "pack_tiles", "unpack_tiles"]

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def pack_tiles(tiles) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The tile <-> npz codec, writing half: ``(arrays, kinds)``.

    ``tiles`` iterates ``((m, k), tile)`` in storage order.  ``arrays``
    holds each stored payload under ``u_/v_`` (low-rank) or ``d_``
    (dense) + ``"{m}_{k}"``, by reference; ``kinds`` is one
    ``(m, k, kind, rows, cols)`` int64 row per tile, kind 0 = null,
    1 = low-rank, 2 = dense.
    """
    arrays: dict[str, np.ndarray] = {}
    kinds = []
    for (m, k), tile in tiles:
        key = f"{m}_{k}"
        if isinstance(tile, NullTile):
            kind = 0
        elif isinstance(tile, LowRankTile):
            kind = 1
            arrays[f"u_{key}"] = tile.u
            arrays[f"v_{key}"] = tile.v
        else:
            kind = 2
            arrays[f"d_{key}"] = tile.data
        kinds.append((m, k, kind, *tile.shape))
    return arrays, np.array(kinds, dtype=np.int64).reshape(-1, 5)


def unpack_tiles(data, null_shape=None) -> dict[tuple[int, int], Tile]:
    """Reading half of :func:`pack_tiles`: tiles from an open ``.npz``.

    A ``kinds`` row carries a null tile's shape in columns 3-4; files
    whose rows stop at ``(m, k, kind)`` get it from ``null_shape(m, k)``.
    """
    tiles: dict[tuple[int, int], Tile] = {}
    for row in data["kinds"]:
        m, k, kind = int(row[0]), int(row[1]), int(row[2])
        key = f"{m}_{k}"
        if kind == 0:
            tiles[(m, k)] = NullTile(
                (int(row[3]), int(row[4])) if len(row) > 3 else null_shape(m, k)
            )
        elif kind == 1:
            # np.asarray (not ascontiguousarray): the npy format keeps
            # Fortran order, and it must survive the round-trip — BLAS
            # rounds differently for C- vs F-ordered operands (reloaded
            # factors must behave bitwise like freshly built ones).
            tiles[(m, k)] = LowRankTile(
                LowRankFactor(
                    np.asarray(data[f"u_{key}"]), np.asarray(data[f"v_{key}"])
                )
            )
        elif kind == 2:
            tiles[(m, k)] = DenseTile(data[f"d_{key}"])
        else:
            raise ValueError(f"corrupt tile kind {kind} at ({m}, {k})")
    return tiles


def save_tlr(a: TLRMatrix, path, compressed: bool = True) -> None:
    """Atomically write a TLR matrix to ``path`` (``.npz``).

    ``compressed=False`` trades disk bytes for (de)serialization
    speed — the right choice for warm-start caches (e.g. the serving
    subsystem's disk tier) where reload latency is on the request
    path; archival snapshots should keep the default zip compression.
    """
    tiles = sorted(a, key=lambda it: it[0])
    payloads, kinds = pack_tiles(tiles)
    arrays = {
        "accuracy": np.array([a.accuracy], dtype=np.float64),
        **payloads,
        "header": np.array(
            [
                _FORMAT_VERSION,
                a.n,
                a.tile_size,
                a.max_rank if a.max_rank is not None else -1,
            ],
            dtype=np.int64,
        ),
        "kinds": np.ascontiguousarray(kinds[:, :3]),  # shapes follow from n
        "checksums": np.array(
            [tile_checksum(tile) for _, tile in tiles], dtype="U64"
        ),
    }
    write = np.savez_compressed if compressed else np.savez
    atomic_write_via(path, lambda f: write(f, **arrays))


def load_tlr(path, verify: bool = True) -> TLRMatrix:
    """Read a TLR matrix written by :func:`save_tlr`.

    With ``verify=True`` (default) every tile is re-hashed against the
    embedded checksum block; a mismatch — bit rot, a tampered file, a
    partially overwritten entry — raises
    :class:`~repro.linalg.integrity.TileIntegrityError` rather than
    returning corrupt numerics.  Version-1 files carry no checksums
    and load unverified.
    """
    with np.load(path) as data:
        header = data["header"]
        if int(header[0]) not in _SUPPORTED_VERSIONS:
            raise ValueError(f"unsupported TLR file version {header[0]}")
        n, tile_size = int(header[1]), int(header[2])
        max_rank = int(header[3]) if header[3] >= 0 else None
        accuracy = float(data["accuracy"][0])
        nt = -(-n // tile_size)

        def tile_shape(m: int, k: int) -> tuple[int, int]:
            rows = min(tile_size, n - m * tile_size)
            cols = min(tile_size, n - k * tile_size)
            return (rows, cols)

        kinds = data["kinds"]
        checksums = data["checksums"] if "checksums" in data.files else None
        if checksums is not None and len(checksums) != len(kinds):
            raise ValueError(
                f"file holds {len(checksums)} checksums for "
                f"{len(kinds)} tiles"
            )
        tiles = unpack_tiles(data, tile_shape)
        expected_count = nt * (nt + 1) // 2
        if len(tiles) != expected_count or len(kinds) != expected_count:
            raise ValueError(
                f"file holds {len(kinds)} tile rows ({len(tiles)} distinct), "
                f"expected {expected_count}"
            )
        if verify and checksums is not None:
            for ((m, k), tile), expected in zip(tiles.items(), checksums):
                actual = tile_checksum(tile)
                if actual != str(expected):
                    raise TileIntegrityError(
                        f"{path}: tile ({m}, {k}) checksum mismatch "
                        f"(expected {expected}, got {actual}) — "
                        "file content corrupted since it was written"
                    )
    return TLRMatrix(n, tile_size, tiles, accuracy, max_rank)
