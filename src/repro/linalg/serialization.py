"""The sealed tile file: the one on-disk format for tiles (``.npz``).

Compressing a large operator is the expensive phase (Fig. 11), so
operators, factors and factorization checkpoints are kept on disk, each
as one file written and read here (format version 5, no pickling):

* ``header`` = ``[version]``; ``meta``, a JSON record (UTF-8 bytes);
* per named tile group ``g``: ``kinds_g``, one ``(m, k, kind, rows,
  cols)`` row per tile (kind 0 = null, 1 = low-rank, 2 = dense), and
  the payloads ``u_g_m_k`` / ``v_g_m_k`` or ``d_g_m_k``;
* ``checksums``, each tile's BLAKE2b digest (groups in name order),
  and ``seal``, a BLAKE2b digest over all of the above but payloads.

:func:`write` streams the file into a temp file beside its target,
fsyncs it and renames it over the target: a crash leaves the old file
or none.  The zip members carry a fixed timestamp, so the same tiles
and metadata always give the same bytes.  :func:`read` checks the seal,
then every tile against its digest, before it returns anything.  Any
failure to decode or verify — a flipped bit, a truncated file, another
format version — raises :class:`~repro.linalg.integrity.TileIntegrityError`;
only a file that cannot be opened raises ``OSError``.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from collections.abc import Iterable, Mapping
from typing import NamedTuple

import numpy as np

from repro.linalg.integrity import TileIntegrityError, tile_checksum
from repro.linalg.lowrank import LowRankFactor
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile
from repro.linalg.tile_matrix import TLRMatrix
from repro.utils.atomic import atomic_write_via

__all__ = ["FORMAT_VERSION", "TileFile", "write", "read", "matrix_meta",
           "save_matrices", "load_matrices", "save_tlr", "load_tlr"]

#: Versions 1-3 (unsealed, or fp32 low-rank factors) are refused, and so
#: is 4: its factors and checkpoints were rounded by the residual stop,
#: and resuming one under the exact-rank rounding would mix the two.
FORMAT_VERSION = 5
#: every zip member's timestamp, so equal content gives equal bytes
_EPOCH = (1980, 1, 1, 0, 0, 0)

Key = tuple[int, int]


class TileFile(NamedTuple):
    """A verified file: metadata, tiles and digests per group."""

    meta: dict
    groups: dict[str, dict[Key, Tile]]
    checksums: dict[str, dict[Key, str]]


def _unpack_tile(data, group: str, row) -> tuple[Key, Tile]:
    """One ``kinds`` row's tile, read from its payloads."""
    m, k, kind, rows, cols = (int(x) for x in row)
    key = f"{group}_{m}_{k}"
    if kind == 0:
        return (m, k), NullTile((rows, cols))
    if kind == 1:
        # As loaded, never ascontiguousarray: the npy format keeps
        # Fortran order, and it must survive the round-trip — BLAS
        # rounds differently for C- vs F-ordered operands (reloaded
        # factors must behave bitwise like freshly built ones).
        u, v = (_array(data, f"{uv}_{key}", np.float64, 2) for uv in "uv")
        return (m, k), LowRankTile(LowRankFactor(u, v))
    if kind == 2:
        return (m, k), DenseTile(_array(data, f"d_{key}", np.float64, 2))
    raise TileIntegrityError(f"corrupt tile kind {kind} at ({m}, {k})")


def _array(data, name: str, dtype, ndim: int) -> np.ndarray:
    """``data[name]`` if of exactly this dtype (a byte-swapped one would
    reinterpret bytes its digest still covers) and rank."""
    arr = data[name]
    if arr.dtype != np.dtype(dtype) or arr.ndim != ndim:
        want = f"{ndim}-d {np.dtype(dtype)}"
        raise TileIntegrityError(f"{name}: {arr.ndim}-d {arr.dtype}, expected {want}")
    return arr


def _seal(header, meta, kinds: dict[str, np.ndarray], checksums) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(header.tobytes())
    h.update(meta.tobytes())
    for group, table in kinds.items():
        h.update(f"|{group}|".encode())
        h.update(table.tobytes())
    h.update(checksums.tobytes())
    return h.hexdigest().encode()


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
    at load) and computed otherwise.  ``compressed=False`` trades disk
    bytes for (de)serialization speed.
    """
    arrays = {
        "header": np.array([FORMAT_VERSION], dtype=np.int64),
        "meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), np.uint8),
    }
    payloads: dict[str, np.ndarray] = {}
    kinds: dict[str, np.ndarray] = {}
    digests = []
    for group in sorted(groups):
        recorded = (checksums or {}).get(group, {})
        rows = []
        for (m, k), tile in sorted(groups[group], key=lambda it: it[0]):
            name = f"{group}_{m}_{k}"
            if isinstance(tile, NullTile):
                kind = 0
            elif isinstance(tile, LowRankTile):
                kind = 1
                payloads[f"u_{name}"], payloads[f"v_{name}"] = tile.u, tile.v
            else:
                kind = 2
                payloads[f"d_{name}"] = tile.data
            rows.append((m, k, kind, *tile.shape))
            digests.append(recorded.get((m, k)) or tile_checksum(tile))
        kinds[group] = np.array(rows, dtype=np.int64).reshape(-1, 5)
        arrays[f"kinds_{group}"] = kinds[group]
    arrays["checksums"] = np.array(digests, dtype="S32").reshape(-1)
    seal = _seal(arrays["header"], arrays["meta"], kinds, arrays["checksums"])
    arrays["seal"] = np.array(seal, dtype="S32")
    arrays.update(payloads)
    method = zipfile.ZIP_DEFLATED if compressed else zipfile.ZIP_STORED

    def stream(f) -> None:
        with zipfile.ZipFile(f, "w", method) as zf:
            for name, arr in arrays.items():
                info = zipfile.ZipInfo(f"{name}.npy", date_time=_EPOCH)
                info.compress_type = method
                with zf.open(info, "w", force_zip64=True) as out:
                    np.lib.format.write_array(out, arr, allow_pickle=False)

    return atomic_write_via(path, stream)


def read(path) -> TileFile:
    """Read and verify a file written by :func:`write`."""
    with open(path, "rb") as f:
        try:
            with np.load(f) as data:
                return _decode(data)
        # damaged bytes raise many types in zipfile and numpy (BadZipFile,
        # tokenize.TokenError, NotImplementedError...): callers catch one
        except Exception as exc:
            raise TileIntegrityError(f"{path}: {exc}") from exc


def _decode(data) -> TileFile:
    header = _array(data, "header", np.int64, 1)
    version = int(header[0]) if header.size else None
    if version != FORMAT_VERSION:
        raise TileIntegrityError(
            f"unsupported tile file version {version} "
            f"(this reader reads version {FORMAT_VERSION})"
        )
    meta = _array(data, "meta", np.uint8, 1)
    kinds = {
        name[len("kinds_"):]: _array(data, name, np.int64, 2)
        for name in sorted(data.files)
        if name.startswith("kinds_")
    }
    checksums = _array(data, "checksums", "S32", 1)
    n_sums, rows = len(checksums), sum(len(table) for table in kinds.values())
    if n_sums != rows:
        raise TileIntegrityError(f"file holds {n_sums} checksums for {rows} tiles")
    seal = bytes(_array(data, "seal", "S32", 0)[()])
    if _seal(header, meta, kinds, checksums) != seal:
        raise TileIntegrityError(
            "seal mismatch: metadata, kinds or checksums changed since written"
        )
    groups: dict[str, dict[Key, Tile]] = {}
    sums: dict[str, dict[Key, str]] = {}
    digests = iter(checksums)
    for group, table in kinds.items():
        groups[group], sums[group] = {}, {}
        for row in table:
            key, tile = _unpack_tile(data, group, row)
            expected, actual = next(digests).decode(), tile_checksum(tile)
            if actual != expected:
                raise TileIntegrityError(
                    f"tile {group} {key} checksum mismatch (expected {expected}, "
                    f"got {actual}) — file content corrupted since it was written"
                )
            groups[group][key], sums[group][key] = tile, expected
    return TileFile(json.loads(meta.tobytes()), groups, sums)


def matrix_meta(a: TLRMatrix) -> dict:
    """The metadata record of a TLR matrix's grid."""
    max_rank = None if a.max_rank is None else int(a.max_rank)
    n, tile_size, accuracy = int(a.n), int(a.tile_size), float(a.accuracy)
    return dict(n=n, tile_size=tile_size, accuracy=accuracy, max_rank=max_rank)


def save_matrices(
    path, matrices: Mapping[str, TLRMatrix], compressed: bool = True, **fields
):
    """Write TLR matrices of one grid as the groups of one file, with
    the grid's :func:`matrix_meta` and ``fields`` as its metadata."""
    metas = [matrix_meta(a) for a in matrices.values()]
    if any(meta != metas[0] for meta in metas):
        raise ValueError(f"the matrices of one file share one grid, got {metas}")
    return write(path, matrices, {**metas[0], **fields}, compressed)


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
    """Atomically write one TLR matrix to ``path``.

    ``compressed=False`` trades disk bytes for (de)serialization
    speed — the right choice where reload latency is on the request
    path; archival snapshots should keep the default zip compression.
    """
    save_matrices(path, {"matrix": a}, compressed)


def load_tlr(path) -> TLRMatrix:
    """Read and verify a TLR matrix written by :func:`save_tlr`; a
    corrupt file raises
    :class:`~repro.linalg.integrity.TileIntegrityError`."""
    matrices, _ = load_matrices(path)
    if set(matrices) != {"matrix"}:
        raise TileIntegrityError(f"{path}: holds {sorted(matrices)}, not one matrix")
    return matrices["matrix"]
