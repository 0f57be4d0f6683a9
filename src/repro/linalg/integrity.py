"""Tile content checksums — the detection half of ABFT-style defense.

A long-running factorization (hours at the paper's scale) and a
disk-resident factor cache are both exposed to *silent* data
corruption: memory bit flips, torn writes, firmware bugs.  Classic
HPC Cholesky guards against these with algorithm-based fault
tolerance; the in-process analogue here is a content checksum per
tile, recorded when a tile is produced and re-verified at every trust
boundary (kernel read under ``REPRO_VERIFY_TILES=1``, checkpoint
load, operator-cache disk reload).

Checksums use BLAKE2b over the canonical byte image of the tile's
payload (kind tag, shape, and the contiguous float64 buffers), so

* two bitwise-identical tiles always agree,
* any single flipped bit, truncated buffer, or swapped representation
  (dense vs low-rank of the same values) is detected,
* digests are stable across processes and machines of the same
  endianness — safe to persist next to the payload.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile

__all__ = [
    "TileIntegrityError",
    "tile_checksum",
    "matrix_checksums",
]

#: Digest size in bytes (128-bit digests render as 32 hex chars).
_DIGEST_SIZE = 16


class TileIntegrityError(ValueError):
    """Tiles that cannot be trusted: a content checksum mismatch, or a
    tile file that fails to decode or verify."""


def _array_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def tile_checksum(tile: Tile) -> str:
    """Hex BLAKE2b digest of the tile's canonical byte image."""
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    rows, cols = tile.shape
    if isinstance(tile, NullTile):
        h.update(f"null|{rows}x{cols}".encode())
    elif isinstance(tile, LowRankTile):
        h.update(f"lowrank|{rows}x{cols}|{tile.rank}".encode())
        h.update(_array_bytes(tile.u))
        h.update(_array_bytes(tile.v))
    elif isinstance(tile, DenseTile):
        h.update(f"dense|{rows}x{cols}".encode())
        h.update(_array_bytes(tile.data))
    else:  # pragma: no cover - future tile kinds must opt in explicitly
        raise TypeError(f"cannot checksum tile of type {type(tile)!r}")
    return h.hexdigest()


def matrix_checksums(a) -> dict[tuple[int, int], str]:
    """Checksum every stored tile of a TLR matrix, keyed by index."""
    return {key: tile_checksum(tile) for key, tile in a}

