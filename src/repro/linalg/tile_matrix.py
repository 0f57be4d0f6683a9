"""Symmetric TLR tile-matrix container.

Stores the lower triangle of a symmetric operator as a grid of tiles:
dense on the diagonal, compressed (low-rank / null / dense) below it.
This is the data layout both factorization drivers operate on, and the
object Algorithm 1 analyzes for DAG trimming.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.config import DENSE_RANK_FRACTION, DTYPE
from repro.linalg.lowrank import (
    CompressionStats,
    LowRankFactor,
    compress_block,
    derive_tile_seed,
)
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile, as_tile
from repro.utils.validation import check_positive

__all__ = ["TLRMatrix"]

#: serializes first-solve packing (module-level: matrices stay picklable)
_PACK_LOCK = threading.Lock()


class PackedFactor(NamedTuple):
    """The panels a triangular solve walks (F-ordered fp64) and where their
    columns sit in its coefficient buffer ``T`` (``size`` rows, by tile row)."""

    #: per k ``(triangle, lower, trans)``: the diagonal tile where it lies,
    #: as BLAS takes it (a C-ordered tile enters as its ``.T``)
    diag: list[tuple[np.ndarray, int, int]]
    #: per row m ``[U_mk]_k`` (a dense tile is its own block); per column
    #: k ``[V_mk]_m`` over its low-rank tiles; None where there is none
    u: list[np.ndarray | None]
    v: list[np.ndarray | None]
    #: the rows of ``T`` under ``u[m]``; under ``v[k]``; of each dense
    #: tile of column k (those hold a copy of ``x_k``)
    row: list[slice]
    idx: list[np.ndarray | None]
    dense: list[list[slice]]
    size: int
    #: ``sum_k sum(log(diag(L_kk)))``, None if a diagonal entry is <= 0
    half_logdet: float | None


class TLRMatrix:
    """Lower-triangular tile storage of a symmetric TLR matrix.

    Tiles are indexed ``(m, k)`` with ``m >= k``; accessing the strict
    upper triangle raises, mirroring the one-sided storage used by the
    factorization.  The container is mutable: factorization drivers
    replace tiles in place via :meth:`set_tile`.
    """

    def __init__(
        self,
        n: int,
        tile_size: int,
        tiles: dict[tuple[int, int], Tile],
        accuracy: float,
        max_rank: int | None = None,
        *,
        compression_stats: CompressionStats | None = None,
    ) -> None:
        check_positive("n", n)
        check_positive("tile_size", tile_size)
        check_positive("accuracy", accuracy)
        self.n = int(n)
        self.tile_size = int(tile_size)
        self.accuracy = float(accuracy)
        self.max_rank = max_rank
        #: build-time method/rank counters (``None`` when not built
        #: through :meth:`compress`)
        self.compression_stats = compression_stats
        self._tiles = tiles
        nt = self.n_tiles
        #: the solves' packed form (None = not built yet, or stale)
        self._packed: PackedFactor | None = None
        for (m, k) in tiles:
            if not (0 <= k <= m < nt):
                raise ValueError(f"tile index {(m, k)} outside lower triangle")
        for idx in ((m, k) for k in range(nt) for m in range(k, nt)):
            if idx not in tiles:
                raise ValueError(f"missing tile {idx}")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def compress(
        cls,
        tile_source: Callable[[int, int], np.ndarray],
        n: int,
        tile_size: int,
        accuracy: float,
        max_rank: int | None = None,
        compression: str | None = None,
        storage: str | None = None,
        norm_bound: Callable[[int, int], float] | None = None,
    ) -> "TLRMatrix":
        """Build a TLR matrix by compressing tiles from a generator.

        ``tile_source(i, j)`` must return the dense ``(i, j)`` tile of
        the symmetric operator (e.g.
        :meth:`repro.kernels.matgen.RBFMatrixGenerator.tile`).
        Diagonal tiles stay dense; off-diagonal tiles are compressed to
        the ``accuracy`` threshold with rank capped by ``max_rank``
        (default: ``DENSE_RANK_FRACTION * tile_size``).

        ``compression`` picks the method: ``"svd"`` (None, the default:
        exact-rank, the rounding the factorization uses too) or
        ``"rand"`` (the residual-stopped range-finder, seeded per tile
        from root 0).  Rebuilds are bitwise identical.

        ``norm_bound(i, j)``, when given, must be an upper bound on the
        Frobenius norm of ``tile_source(i, j)``: an off-diagonal tile
        whose bound is within ``accuracy`` is null (``sigma_1`` cannot
        exceed it) and is never generated.  :meth:`from_generator`
        wires it up.
        """
        check_positive("tile_size", tile_size)
        if max_rank is None:
            max_rank = max(1, int(DENSE_RANK_FRACTION * tile_size))
        # tiles are stored fp64 only; "fp64" is still accepted by name
        if storage not in (None, "fp64"):
            raise ValueError(f"storage must be 'fp64', got {storage!r}")
        method = "svd" if compression is None else compression
        if method not in ("svd", "rand"):
            raise ValueError(f"compression must be 'svd' or 'rand', got {compression!r}")
        stats = CompressionStats()
        nt = -(-n // tile_size)
        tiles: dict[tuple[int, int], Tile] = {}
        for k in range(nt):
            for m in range(k, nt):
                if m != k and norm_bound is not None and norm_bound(m, k) <= accuracy:
                    stats.bound_null += 1
                    rows = min(tile_size, n - m * tile_size)
                    tiles[(m, k)] = NullTile((rows, tile_size))
                    continue
                block = np.asarray(tile_source(m, k), dtype=DTYPE)
                if m == k:
                    tiles[(m, k)] = DenseTile(block)
                    continue
                result = compress_block(
                    block,
                    accuracy,
                    max_rank=max_rank,
                    method=method,
                    seed=derive_tile_seed(0, m, k) if method == "rand" else 0,
                    stats=stats,
                )
                tiles[(m, k)] = as_tile(result, block.shape)
        return cls(n, tile_size, tiles, accuracy, max_rank, compression_stats=stats)

    @classmethod
    def from_generator(cls, gen, accuracy: float, **kwargs) -> "TLRMatrix":
        """Compress the operator of a tile generator (e.g.
        :class:`~repro.kernels.matgen.RBFMatrixGenerator`): its
        ``tile``, ``n`` and ``tile_size``, with its ``tile_norm_bound``
        sparing null tiles their generation.  ``kwargs`` as for
        :meth:`compress`.
        """
        return cls.compress(
            gen.tile,
            gen.n,
            gen.tile_size,
            accuracy,
            norm_bound=gen.tile_norm_bound,
            **kwargs,
        )

    @classmethod
    def from_dense(
        cls,
        a: np.ndarray,
        tile_size: int,
        accuracy: float,
        max_rank: int | None = None,
        compression: str | None = None,
    ) -> "TLRMatrix":
        """Compress an explicit dense symmetric matrix."""
        a = np.asarray(a, dtype=DTYPE)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"a must be a square matrix, got shape {a.shape}")
        b = tile_size

        def source(i: int, j: int) -> np.ndarray:
            return a[i * b : (i + 1) * b, j * b : (j + 1) * b]

        return cls.compress(
            source,
            a.shape[0],
            tile_size,
            accuracy,
            max_rank,
            compression=compression,
        )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return -(-self.n // self.tile_size)

    def tile(self, m: int, k: int) -> Tile:
        """The ``(m, k)`` tile of the lower triangle (``m >= k``)."""
        if k > m:
            raise IndexError(
                f"tile ({m}, {k}) is in the strict upper triangle; "
                "storage is lower-triangular"
            )
        return self._tiles[(m, k)]

    def set_tile(self, m: int, k: int, tile: Tile) -> None:
        """Replace a tile (used by factorization drivers)."""
        if k > m:
            raise IndexError(f"cannot set upper-triangle tile ({m}, {k})")
        if (m, k) not in self._tiles:
            raise KeyError(f"tile {(m, k)} out of range")
        expected = self._tiles[(m, k)].shape
        if tile.shape != expected:
            raise ValueError(
                f"tile ({m}, {k}) shape {tile.shape} != expected {expected}"
            )
        self._tiles[(m, k)] = tile
        self._packed = None

    def packed(self) -> PackedFactor:
        """The panels every triangular solve runs on: built at the first
        call (once, also under concurrent ones), dropped by
        :meth:`set_tile`, not carried over by :meth:`copy`.  Packing moves
        the storage instead of doubling it: each off-diagonal tile is
        replaced by an equal tile whose arrays are column blocks of the
        panels, so :meth:`memory_bytes` and every checksum stay as they
        were.  ``TypeError`` if a diagonal tile is not dense.
        """
        if self._packed is None:
            with _PACK_LOCK:
                if self._packed is None:
                    self._packed = self._pack()
        return self._packed

    def _pack(self) -> PackedFactor:
        nt, tiles = self.n_tiles, self._tiles

        def panel(blocks):  # side by side in one F-ordered fp64 array
            if not blocks:
                return None
            shape = (blocks[0].shape[0], sum(a.shape[1] for a in blocks))
            return np.concatenate(blocks, axis=1, out=np.empty(shape, DTYPE, order="F"))

        diag, entries, half_logdet = [], [], None
        for k in range(nt):
            if not isinstance(tiles[(k, k)], DenseTile):
                raise TypeError("diagonal factor tiles must be dense")
            d = tiles[(k, k)].data
            diag.append((d, 1, 0) if d.flags.f_contiguous else (d.T, 0, 1))
            entries.append(np.diag(d))
        if not any(np.any(d <= 0.0) for d in entries):
            half_logdet = sum(float(np.log(d).sum()) for d in entries)
        # one scan: the non-null off-diagonal tiles of each row and column
        in_row, in_col = [[] for _ in range(nt)], [[] for _ in range(nt)]
        for k in range(nt):
            for m in range(k + 1, nt):
                if not tiles[(m, k)].is_null:
                    in_row[m].append(k)
                    in_col[k].append(m)
        u, row, at, size = [], [], {}, 0  # at[m, k]: tile (m, k)'s rows of T
        for m, cols in enumerate(in_row):
            blocks = [tiles[(m, k)] for k in cols]
            blocks = [t.u if isinstance(t, LowRankTile) else t.data for t in blocks]
            u.append(panel(blocks))
            start = size
            for k, a in zip(cols, blocks):
                at[m, k] = (size, size + a.shape[1])
                size += a.shape[1]
            row.append(slice(start, size))
        v, idx, dense = [], [], []
        for k, rows in enumerate(in_col):
            low = [m for m in rows if isinstance(tiles[(m, k)], LowRankTile)]
            v.append(panel([tiles[(m, k)].v for m in low]))
            spans = [np.arange(*at[m, k]) for m in low]
            idx.append(np.concatenate(spans) if low else None)
            dense.append(
                [slice(*at[m, k]) for m in rows if isinstance(tiles[(m, k)], DenseTile)]
            )
            off = 0
            for m in rows:  # the tile becomes its blocks of the two panels
                t, (lo, hi) = tiles[(m, k)], at[m, k]
                ublock = u[m][:, lo - row[m].start : hi - row[m].start]
                if isinstance(t, DenseTile):
                    tiles[(m, k)] = DenseTile(ublock)
                    continue
                vblock, off = v[k][:, off : off + t.rank], off + t.rank
                tiles[(m, k)] = LowRankTile(LowRankFactor(ublock, vblock))
        return PackedFactor(diag, u, v, row, idx, dense, size, half_logdet)

    def __iter__(self):
        """Iterate ``((m, k), tile)`` over the stored lower triangle."""
        return iter(self._tiles.items())

    # ------------------------------------------------------------------
    # structure queries (feed Algorithm 1 and the figures)
    # ------------------------------------------------------------------

    def rank_matrix(self) -> np.ndarray:
        """``(NT, NT)`` integer array of stored tile ranks (lower part).

        Dense off-diagonal tiles report their full rank ``min(b, b)``;
        the upper triangle is filled symmetrically for heat-map
        plotting (Fig. 1).
        """
        nt = self.n_tiles
        ranks = np.zeros((nt, nt), dtype=np.int64)
        for (m, k), tile in self._tiles.items():
            ranks[m, k] = tile.rank
            ranks[k, m] = tile.rank
        return ranks

    def rank_array(self) -> np.ndarray:
        """The 1D ``rank[k * NT + m]`` layout used by Algorithm 1."""
        nt = self.n_tiles
        rank = np.zeros(nt * nt, dtype=np.int64)
        for (m, k), tile in self._tiles.items():
            rank[k * nt + m] = tile.rank
            rank[m * nt + k] = tile.rank
        return rank

    def off_diagonal_rank_stats(self) -> dict[str, float]:
        """Max / average / min rank over *non-null* off-diagonal tiles.

        The paper's Fig. 1 annotation: "the average rank is only for
        non-zero tiles".  Returns zeros if every off-diagonal tile is
        null.
        """
        ranks = [
            t.rank for (m, k), t in self._tiles.items() if m != k and t.rank > 0
        ]
        if not ranks:
            return {"max": 0.0, "avg": 0.0, "min": 0.0}
        return {
            "max": float(max(ranks)),
            "avg": float(np.mean(ranks)),
            "min": float(min(ranks)),
        }

    def density(self) -> float:
        """Ratio of non-null off-diagonal tiles (Sec. V definition).

        ``sparsity = 1 - density``.  Diagonal tiles are always dense
        and excluded from the ratio; a 1x1 tile grid has density 1.
        """
        off = [(m, k) for (m, k) in self._tiles if m != k]
        if not off:
            return 1.0
        nonzero = sum(1 for idx in off if not self._tiles[idx].is_null)
        return nonzero / len(off)

    def memory_bytes(self) -> int:
        """Bytes of stored numerical payload (compressed footprint)."""
        return sum(t.nbytes for t in self._tiles.values())

    def dense_bytes(self) -> int:
        """Bytes the same lower triangle would occupy fully dense."""
        return sum(
            int(np.prod(t.shape)) * np.dtype(DTYPE).itemsize
            for t in self._tiles.values()
        )

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------

    def to_dense(self, symmetrize: bool = True) -> np.ndarray:
        """Materialize as a dense array (laptop-scale validation only).

        With ``symmetrize=True`` the upper triangle is mirrored from
        the stored lower triangle; otherwise it is left zero (useful to
        inspect the raw factor after an in-place factorization).
        """
        out = np.zeros((self.n, self.n), dtype=DTYPE)
        b = self.tile_size
        for (m, k), tile in self._tiles.items():
            block = tile.to_dense()
            out[m * b : m * b + block.shape[0], k * b : k * b + block.shape[1]] = block
            if symmetrize and m != k:
                out[
                    k * b : k * b + block.shape[1], m * b : m * b + block.shape[0]
                ] = block.T
        return out

    def copy(self) -> "TLRMatrix":
        """Deep copy (tiles are immutable-by-convention, but drivers
        replace them; copying the dict is enough for independence as
        kernels never mutate operand arrays in place)."""
        return TLRMatrix(
            self.n,
            self.tile_size,
            dict(self._tiles),
            self.accuracy,
            self.max_rank,
            compression_stats=self.compression_stats,
        )
