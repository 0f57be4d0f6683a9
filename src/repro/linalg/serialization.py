"""The sealed tile file: the one on-disk format for tiles (``.tlr``).

Compressing a large operator is the expensive phase (Fig. 11), so
operators, factors and factorization checkpoints are kept on disk, each
as one raw file (format version 6, no pickling, little-endian):

* a header (magic ``TLRTILES``, version, file size, index length, tile
  count) and the seal, a truncated SHA-256 over header, index and table;
* the index, a JSON record ``{"groups": [...], "meta": {...}}``;
* the tile table: per tile (groups in name order, keys in order) one
  ``int64`` row ``group, m, k, kind, rows, cols, rank`` (kind 0 = null,
  1 = low-rank, 2 = dense) and, per array (``u`` and ``v``, or the dense
  array), its offset and F-order flag; then its 32-character digest
  (:func:`~repro.linalg.integrity.tile_checksum`);
* the payloads at 64-byte boundaries, written straight from each tile's
  buffer (an F-ordered array as its transpose, which is C-ordered).

:func:`write` streams the file into a temp file beside its target,
fsyncs it and renames it over the target: a crash leaves the old file
or none, and equal tiles and metadata give equal bytes.  :func:`read`
reads the file into one 64-byte aligned buffer, checks the seal and
then every tile's digest before it returns anything.  Its tiles are
views of that buffer with the order and strides they were written with:
BLAS rounds C- and F-ordered operands differently, and a reloaded
factor must behave bitwise like the saved one.  Any failure to decode
or verify — a flipped bit, a truncation, another version, the ``.npz``
of versions 1-5 — raises
:class:`~repro.linalg.integrity.TileIntegrityError`; only a file that
cannot be opened raises ``OSError``.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from collections.abc import Iterable, Mapping
from typing import NamedTuple

import numpy as np

from repro.linalg.integrity import TileIntegrityError, tile_checksum
from repro.linalg.lowrank import LowRankFactor
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile
from repro.linalg.tile_matrix import TLRMatrix
from repro.utils.atomic import atomic_write_via

__all__ = ["FORMAT_VERSION", "SUFFIX", "TileFile", "write", "read", "matrix_meta",
           "save_matrices", "load_matrices", "save_tlr", "load_tlr"]

#: Versions 1-5 were ``.npz`` containers and are refused: 4 and older
#: hold factors rounded by the residual stop, 5 digests by BLAKE2b.
FORMAT_VERSION = 6
#: the file name suffix of cache entries and checkpoints
SUFFIX = ".tlr"
_MAGIC = b"TLRTILES"
#: magic, version, file size, index bytes, tiles; the seal follows
_HEAD = struct.Struct("<8s4q")
_INDEX_AT = _HEAD.size + 16
_COLUMNS = 11  # group, m, k, kind, rows, cols, rank, offset x2, fortran x2
_DIGEST = np.dtype("S32")

Key = tuple[int, int]


class TileFile(NamedTuple):
    """A verified file: metadata, tiles and digests per group."""

    meta: dict
    groups: dict[str, dict[Key, Tile]]
    checksums: dict[str, dict[Key, str]]


def _up(offset: int) -> int:
    return -(-offset // 64) * 64


def _seal(head, index, table) -> bytes:
    return hashlib.sha256(b"".join((head, index, table))).digest()[:16]


def _stored(a: np.ndarray) -> tuple[np.ndarray, int]:
    """The C-ordered array written for ``a``, and 1 if ``a`` is read
    back as its transpose (an F-ordered ``a`` is written as ``a.T``)."""
    rows, cols = a.shape
    if a.strides == (8, 8 * rows) != (8 * cols, 8):
        return a.T, 1
    return np.ascontiguousarray(a), 0


def write(
    path,
    groups: Mapping[str, Iterable[tuple[Key, Tile]]],
    meta: dict,
    compressed: bool = True,
    checksums: Mapping[str, Mapping[Key, str]] | None = None,
):
    """Atomically write ``groups`` of tiles and ``meta`` to ``path``.

    A tile's digest is taken from ``checksums[group][key]`` when given
    (a digest recorded earlier, so a tile corrupted since then fails
    at load) and computed otherwise.  ``compressed`` is accepted and
    ignored: format 6 stores every payload raw.
    """
    names = sorted(groups)
    index = json.dumps({"groups": names, "meta": meta}, sort_keys=True).encode()
    tiles = [(g, key, tile) for g, name in enumerate(names)
             for key, tile in sorted(groups[name], key=lambda it: it[0])]
    table_at = _up(_INDEX_AT + len(index))
    offset = _up(table_at + len(tiles) * (8 * _COLUMNS + _DIGEST.itemsize))
    rows, digests, chunks = [], [], []
    for g, (m, k), tile in tiles:
        if isinstance(tile, NullTile):
            kind, arrays = 0, ()
        elif isinstance(tile, LowRankTile):
            kind, arrays = 1, (tile.u, tile.v)
        else:
            kind, arrays = 2, (tile.data,)
        rows.append([g, m, k, kind, *tile.shape, tile.rank if kind == 1 else 0, 0, 0, 0, 0])
        for i, a in enumerate(arrays):
            a, rows[-1][9 + i] = _stored(a)
            rows[-1][7 + i] = offset
            chunks.append((offset, a))
            offset = _up(offset + a.nbytes)
        digests.append((checksums or {}).get(names[g], {}).get((m, k)) or tile_checksum(tile))
    table = (np.array(rows, "<i8").reshape(-1, _COLUMNS).tobytes()
             + np.array(digests, _DIGEST).tobytes())
    head = _HEAD.pack(_MAGIC, FORMAT_VERSION, offset, len(index), len(rows))

    def stream(f) -> None:
        f.write(head + _seal(head, index, table) + index)
        for at, data in [(table_at, table), *chunks, (offset, b"")]:
            f.write(bytes(at - f.tell()))
            f.write(data)

    return atomic_write_via(path, stream)


def read(path) -> TileFile:
    """Read and verify a file written by :func:`write`."""
    with open(path, "rb", buffering=0) as f:
        size = os.fstat(f.fileno()).st_size
        raw = np.empty(size + 63, np.uint8)
        start = -raw.ctypes.data % 64
        buf, got = raw[start:start + size], 0
        while got < size and (n := f.readinto(memoryview(buf)[got:])):
            got += n
    try:
        return _decode(buf[:got])
    # a table that passes the seal but points outside the file (made,
    # not damaged) fails in numpy with errors of its own: callers catch one
    except Exception as exc:
        raise TileIntegrityError(f"{path}: {exc}") from exc


def _view(buf: np.ndarray, offset: int, shape: tuple[int, int], fortran: int):
    rows, cols = shape[::-1] if fortran else shape
    a = buf[offset:offset + 8 * rows * cols].view("<f8").reshape(rows, cols)
    return a.T if fortran else a


def _decode(buf: np.ndarray) -> TileFile:
    if len(buf) < _INDEX_AT:
        raise TileIntegrityError(f"truncated header ({len(buf)} bytes)")
    magic, version, size, index_len, count = _HEAD.unpack_from(buf)
    if magic != _MAGIC:
        version = "1-5 (.npz)" if magic.startswith(b"PK") else f"unknown ({magic!r})"
    if version != FORMAT_VERSION:
        raise TileIntegrityError(
            f"unsupported tile file version {version} "
            f"(this reader reads version {FORMAT_VERSION})"
        )
    table_at = _up(_INDEX_AT + index_len)
    table_end = table_at + (8 * _COLUMNS + _DIGEST.itemsize) * count
    if size != len(buf) or min(index_len, count) < 0 or table_end > size:
        raise TileIntegrityError(f"file of {len(buf)} bytes, header says {size}")
    index = buf[_INDEX_AT:_INDEX_AT + index_len]
    table = buf[table_at:table_end]
    if _seal(buf[:_HEAD.size], index, table) != buf[_HEAD.size:_INDEX_AT].tobytes():
        raise TileIntegrityError(
            "seal mismatch: header, index or tile table changed since written"
        )
    record = json.loads(index.tobytes())
    names = record["groups"]
    groups: dict[str, dict[Key, Tile]] = {name: {} for name in names}
    sums: dict[str, dict[Key, str]] = {name: {} for name in names}
    digests = table[8 * _COLUMNS * count:].view(_DIGEST)
    rows = table[:8 * _COLUMNS * count].view("<i8").reshape(-1, _COLUMNS).tolist()
    for (g, m, k, kind, n_rows, n_cols, rank, *places), digest in zip(rows, digests):
        group, key = names[g], (m, k)
        if kind == 0:
            tile = NullTile((n_rows, n_cols))
        elif kind == 1:
            u, v = (_view(buf, places[i], (n, rank), places[2 + i])
                    for i, n in enumerate((n_rows, n_cols)))
            tile = LowRankTile(LowRankFactor(u, v))
        elif kind == 2:
            tile = DenseTile(_view(buf, places[0], (n_rows, n_cols), places[2]))
        else:
            raise TileIntegrityError(f"corrupt tile kind {kind} at {key}")
        expected, actual = digest.decode(), tile_checksum(tile)
        if actual != expected:
            raise TileIntegrityError(
                f"tile {group} {key} checksum mismatch (expected {expected}, "
                f"got {actual}) — file content corrupted since it was written"
            )
        groups[group][key], sums[group][key] = tile, expected
    return TileFile(record["meta"], groups, sums)


def matrix_meta(a: TLRMatrix) -> dict:
    """The metadata record of a TLR matrix's grid."""
    max_rank = None if a.max_rank is None else int(a.max_rank)
    return dict(n=int(a.n), tile_size=int(a.tile_size), accuracy=float(a.accuracy),
                max_rank=max_rank)


def save_matrices(
    path, matrices: Mapping[str, TLRMatrix], compressed: bool = True, **fields
):
    """Write TLR matrices of one grid as the groups of one file, with
    the grid's :func:`matrix_meta` and ``fields`` as its metadata
    (``compressed`` is ignored, as in :func:`write`)."""
    metas = [matrix_meta(a) for a in matrices.values()]
    if any(meta != metas[0] for meta in metas):
        raise ValueError(f"the matrices of one file share one grid, got {metas}")
    return write(path, matrices, {**metas[0], **fields})


def load_matrices(path) -> tuple[dict[str, TLRMatrix], dict]:
    """Read a file written by :func:`save_matrices`: ``(matrices, meta)``."""
    file = read(path)
    meta = file.meta
    try:
        grid = (meta["n"], meta["tile_size"])
        return {
            group: TLRMatrix(*grid, tiles, meta["accuracy"], meta["max_rank"])
            for group, tiles in file.groups.items()
        }, meta
    except (KeyError, TypeError, ValueError) as exc:
        raise TileIntegrityError(f"{path}: not a file of matrices ({exc})") from exc


def save_tlr(a: TLRMatrix, path, compressed: bool = True) -> None:
    """Atomically write one TLR matrix to ``path`` (``compressed`` is
    ignored, as in :func:`write`)."""
    save_matrices(path, {"matrix": a})


def load_tlr(path) -> TLRMatrix:
    """Read and verify a TLR matrix written by :func:`save_tlr`; a
    corrupt file raises
    :class:`~repro.linalg.integrity.TileIntegrityError`."""
    matrices, _ = load_matrices(path)
    if set(matrices) != {"matrix"}:
        raise TileIntegrityError(f"{path}: holds {sorted(matrices)}, not one matrix")
    return matrices["matrix"]
