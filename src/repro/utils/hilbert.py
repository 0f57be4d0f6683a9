"""3D Hilbert space-filling-curve ordering (Skilling's transpose algorithm).

The paper (Section IV-C) reorders mesh points along a Hilbert curve "to
preserve a good spatial locality, while improving compression rate and
reducing arithmetic complexity".  After this permutation, points that
are close in 3D space receive nearby matrix indices, so off-diagonal
tiles of the RBF operator couple well-separated clusters and compress
to low rank.

The implementation is a fully vectorized version of John Skilling's
"Programming the Hilbert curve" (AIP Conf. Proc. 707, 2004): it maps
integer grid coordinates to the "transposed" Hilbert representation and
then interleaves bits into a single scalar key.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import as_points

__all__ = ["hilbert_index_3d", "hilbert_order"]

_NDIM = 3
#: (shift, mask) steps that move bit k of a 21-bit value to bit 3k
_SPREAD = [(np.uint64(s), np.uint64(m)) for s, m in (
    (32, 0x1F00000000FFFF), (16, 0x1F0000FF0000FF), (8, 0x100F00F00F00F00F),
    (4, 0x10C30C30C30C30C3), (2, 0x1249249249249249))]


def hilbert_index_3d(coords: np.ndarray, bits: int = 16) -> np.ndarray:
    """Hilbert curve index of 3D integer grid coordinates.

    Parameters
    ----------
    coords:
        ``(n, 3)`` array of non-negative integers, each ``< 2**bits``.
    bits:
        Bits of resolution per dimension (1..21; the returned key uses
        ``3 * bits`` bits).

    Returns
    -------
    ``(n,)`` uint64 array of Hilbert keys; sorting by the key walks the
    Hilbert curve.
    """
    if bits < 1 or bits > 21:
        raise ValueError(f"bits must be in [1, 21], got {bits}")
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[1] != _NDIM:
        raise ValueError(f"coords must have shape (n, 3), got {coords.shape}")
    if np.any(coords < 0) or np.any(coords >= (1 << bits)):
        raise ValueError(f"coordinates out of range [0, 2**{bits})")

    x = list(coords.astype(np.uint64).T)

    # --- axes -> transposed Hilbert representation (Skilling, inverse) ---
    # whole columns: each row's "invert" or "exchange" branch is an XOR mask
    m = np.uint64(1) << np.uint64(bits - 1)
    q = m
    while q > np.uint64(1):
        p = q - np.uint64(1)
        for i in range(_NDIM):
            hi = (x[i] & q) != 0
            t = np.where(hi, 0, (x[0] ^ x[i]) & p)
            x[0] = x[0] ^ np.where(hi, p, t)
            x[i] = x[i] ^ t
        q >>= np.uint64(1)

    # Gray encode
    for i in range(1, _NDIM):
        x[i] = x[i] ^ x[i - 1]
    t = np.zeros(len(coords), dtype=np.uint64)
    q = m
    while q > np.uint64(1):
        t ^= np.where((x[_NDIM - 1] & q) != 0, q - np.uint64(1), 0)
        q >>= np.uint64(1)

    # --- interleave transposed bits into a single key ---
    # Key layout (most significant first): X0[b-1] X1[b-1] X2[b-1] X0[b-2] ...
    for i in range(_NDIM):
        x[i] = x[i] ^ t
        for shift, mask in _SPREAD:
            x[i] = (x[i] | (x[i] << shift)) & mask
    return (x[0] << np.uint64(2)) | (x[1] << np.uint64(1)) | x[2]


def hilbert_order(points: np.ndarray, bits: int = 16) -> np.ndarray:
    """Permutation that sorts 3D float points along the Hilbert curve.

    Parameters
    ----------
    points:
        ``(n, 3)`` float coordinates (any bounding box; internally
        quantized to a ``2**bits`` grid).
    bits:
        Grid resolution per dimension.

    Returns
    -------
    ``(n,)`` integer permutation ``perm`` such that ``points[perm]``
    walks the Hilbert curve.
    """
    points = as_points("points", points)
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span[span == 0.0] = 1.0
    scale = (1 << bits) - 1
    grid = np.clip(
        np.floor((points - lo) / span * scale).astype(np.int64), 0, scale
    )
    keys = hilbert_index_3d(grid, bits=bits)
    return np.argsort(keys, kind="stable")
