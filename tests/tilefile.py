"""Byte-level access to sealed tile files, for tests that damage them.

Parses the format-6 layout documented in
:mod:`repro.linalg.serialization` on its own, so a test can aim at one
region of a file: the header, the index, the tile table, the digests
or one payload.
"""

from __future__ import annotations

import struct

import numpy as np

HEAD = struct.Struct("<8s4q")  # magic, version, size, index bytes, tiles
INDEX_AT = HEAD.size + 16  # the seal follows the header
COLUMNS = 11


def _up(offset: int) -> int:
    return -(-offset // 64) * 64


def layout(path) -> dict:
    """``{region: (offset, length)}`` for ``header``, ``index``,
    ``table`` and ``digests``; ``payloads`` lists every array's
    ``(offset, length)`` in table order."""
    raw = path.read_bytes()
    _, _, size, index_len, count = HEAD.unpack_from(raw)
    table_at = _up(INDEX_AT + index_len)
    rows = np.frombuffer(raw, "<i8", count * COLUMNS, table_at).reshape(-1, COLUMNS)
    payloads = []
    for _, _, _, kind, n_rows, n_cols, rank, *places in rows.tolist():
        shapes = {0: [], 1: [n_rows * rank, n_cols * rank], 2: [n_rows * n_cols]}[kind]
        payloads += [(places[i], 8 * n) for i, n in enumerate(shapes)]
    return {
        "header": (0, INDEX_AT),
        "index": (INDEX_AT, index_len),
        "table": (table_at, 8 * COLUMNS * count),
        "digests": (table_at + 8 * COLUMNS * count, 32 * count),
        "payloads": payloads,
        "size": size,
    }


def write_npz(path, version: int = 5, **arrays) -> None:
    """A file of the ``.npz`` container that formats 1-5 used: a zip
    of ``.npy`` members, ``header = [version]`` first."""
    with open(path, "wb") as f:
        np.savez(f, header=np.array([version], dtype=np.int64), **arrays)
