"""Tile taxonomy: dense, low-rank and null tiles.

After compression the matrix operator mixes three data structures
within one operation (the paper's headline challenge, Section V):

* **dense** tiles — diagonal tiles and off-diagonal tiles whose
  numerical rank exceeds the maxrank budget;
* **low-rank** tiles — stored as ``U Vᵀ`` factor pairs;
* **null** tiles — tiles that disappeared during compression (all
  singular values below the threshold) and occupy no storage.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod

import numpy as np

from repro.config import DTYPE
from repro.linalg.lowrank import LowRankFactor

__all__ = ["TileKind", "Tile", "DenseTile", "LowRankTile", "NullTile", "as_tile"]


class TileKind(enum.Enum):
    """Discriminator for the three tile data structures."""

    DENSE = "dense"
    LOW_RANK = "low_rank"
    NULL = "null"


class Tile(ABC):
    """Common interface over the three tile representations."""

    kind: TileKind

    @property
    @abstractmethod
    def shape(self) -> tuple[int, int]:
        """Logical (uncompressed) tile shape."""

    @property
    @abstractmethod
    def rank(self) -> int:
        """Stored rank: full for dense, k for low-rank, 0 for null."""

    @property
    @abstractmethod
    def nbytes(self) -> int:
        """Bytes of numerical payload actually stored."""

    @abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialize the tile as a dense array (fresh copy)."""

    @property
    def is_null(self) -> bool:
        return self.kind is TileKind.NULL


class DenseTile(Tile):
    """A tile stored as a full dense array.

    Construction is **zero-copy** for a DTYPE ndarray: ``np.asarray``
    wraps the given buffer (including views over external storage)
    without a defensive copy, and without normalizing memory order —
    C- vs F-ordered operands round differently through BLAS, so
    preserving the caller's layout is part of the
    bitwise-reproducibility contract.  Tiles are treated
    as immutable everywhere (kernels build new tiles rather than
    mutating arrays in place), which is what makes sharing safe.
    """

    kind = TileKind.DENSE

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=DTYPE)
        if data.ndim != 2:
            raise ValueError(f"dense tile must be 2D, got shape {data.shape}")
        self.data = data

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def rank(self) -> int:
        return min(self.data.shape)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def to_dense(self) -> np.ndarray:
        return self.data.copy()


class LowRankTile(Tile):
    """A tile stored as a low-rank factor pair ``u @ v.T``."""

    kind = TileKind.LOW_RANK

    __slots__ = ("factor",)

    def __init__(self, factor: LowRankFactor) -> None:
        if not isinstance(factor, LowRankFactor):
            raise TypeError(f"expected LowRankFactor, got {type(factor)!r}")
        self.factor = factor

    @property
    def u(self) -> np.ndarray:
        return self.factor.u

    @property
    def v(self) -> np.ndarray:
        return self.factor.v

    @property
    def shape(self) -> tuple[int, int]:
        return self.factor.shape

    @property
    def rank(self) -> int:
        return self.factor.rank

    @property
    def nbytes(self) -> int:
        return self.factor.nbytes

    def to_dense(self) -> np.ndarray:
        return self.factor.to_dense()


class NullTile(Tile):
    """A tile that disappeared during compression (identically zero)."""

    kind = TileKind.NULL

    __slots__ = ("_shape",)

    def __init__(self, shape: tuple[int, int]) -> None:
        if len(shape) != 2 or shape[0] <= 0 or shape[1] <= 0:
            raise ValueError(f"invalid tile shape {shape}")
        self._shape = (int(shape[0]), int(shape[1]))

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def rank(self) -> int:
        return 0

    @property
    def nbytes(self) -> int:
        return 0

    def to_dense(self) -> np.ndarray:
        return np.zeros(self._shape, dtype=DTYPE)


def as_tile(
    value: np.ndarray | LowRankFactor | None,
    shape: tuple[int, int],
) -> Tile:
    """Wrap a compression result (``compress_block`` output) as a Tile."""
    if value is None:
        return NullTile(shape)
    if isinstance(value, LowRankFactor):
        return LowRankTile(value)
    return DenseTile(value)
