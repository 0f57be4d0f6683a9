"""Shared-memory tile arena for true-parallel (process-pool) execution.

The threaded engine hits the GIL on real numerics (`bench/run.py
--layers`, `runtime.parallel.speedup_vs_serial`: 0.54-1.08x on two
cores), because the Python glue around each BLAS call serializes.  Worker *processes* sidestep the GIL,
but then the tile payloads must live somewhere every process can reach
without pickling megabytes per task.  That somewhere is this arena:

* one ``multiprocessing.shared_memory`` **payload segment** holding
  every tile's numerical data (dense buffers, low-rank U/V factor
  pairs) as raw float64 elements;
* one **descriptor segment** holding a compact per-tile table — kind,
  logical shape, rank, payload offsets, memory-order flags, and a
  generation counter bumped on every rewrite — plus a small header with
  the spill allocator's bump cursor.

Workers address tiles by ``(row, col)`` key only; task messages carry
kernel ids and tile keys, never payloads.  Reads construct NumPy views
directly over the shared buffer (zero-copy — see the
:class:`~repro.linalg.tile.DenseTile` /
:class:`~repro.linalg.lowrank.LowRankFactor` view fast path); writes
pack the result back into the tile's slot.

**Slab allocation.**  Each tile gets a fixed *reservation* sized for
its worst admissible in-slot representation: diagonal / dense tiles
reserve ``rows*cols`` elements, off-diagonal tiles reserve
``(rows+cols)*cap`` elements for a rank-``cap`` U/V pair (``cap`` is
the matrix's maxrank).  The factorization rounds a tile once, after
accumulating all of its updates in a private dense scratch, so what is
written back is already at its final rank: up to the cap it rewrites
in place, and no tile is ever stored inflated.  A result that outgrows
its reservation (a tile going dense past the maxrank fraction, or an
uncapped matrix) takes the **spill path**: a bump allocator at the
tail of the payload segment hands out a per-tile spill block under a
cross-process lock; the block is remembered in the descriptor and
reused by later rewrites that fit it (the tile's TRSM, a retried
task), so rewriting an over-cap tile does not leak a fresh block per
write.

**Bitwise reproducibility.**  The arena preserves each array's memory
order (C vs Fortran) in the descriptor's order flags, because BLAS
rounds differently for C- vs F-ordered operands: a kernel reading an
arena view sees byte-identical, layout-identical operands to the
serial engine, so it produces byte-identical output.  Copy-in,
view-read and copy-out are all order-preserving.

Concurrent access needs no per-tile locking: the task graph's
RAW/WAR/WAW edges guarantee two in-flight tasks never touch the same
tile, the same invariant the threaded engine relies on.  Only the
spill cursor is contended, hence its lock.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.config import (
    DTYPE,
    SPILL_FACTOR_ENV,
    spill_factor_from_env,
)
from repro.linalg.lowrank import LowRankFactor
from repro.linalg.tile import DenseTile, LowRankTile, NullTile, Tile

__all__ = ["ArenaError", "TileArena", "SPILL_FACTOR_ENV"]

_ITEM = np.dtype(DTYPE).itemsize

_DT_DOUBLE = np.dtype(DTYPE)
_DT_SINGLE = np.dtype(np.float32)

# ---------------------------------------------------------------------
# descriptor table layout (one int64 row per tile slot)
# ---------------------------------------------------------------------
F_KIND = 0  # 0 null, 1 low-rank, 2 dense
F_ROWS = 1  # logical tile shape
F_COLS = 2
F_RANK = 3  # stored rank (k for low-rank, min(shape) for dense, 0 null)
F_OFF_A = 4  # element offset of the primary array (U or dense data)
F_OFF_B = 5  # element offset of V (-1 for dense/null)
F_ORDER = 6  # bit 0: primary array F-ordered; bit 1: V F-ordered
F_GEN = 7  # generation counter, bumped on every set_tile
F_SPILL_OFF = 8  # this slot's spill block (element offset, -1 none)
F_SPILL_CAP = 9  # capacity of that spill block, in elements
F_DTYPE = 10  # bit 0: primary array fp32; bit 1: V fp32 (0 = all fp64)
N_FIELDS = 11

_KIND_NULL, _KIND_LR, _KIND_DENSE = 0, 1, 2

# header ints at the front of the descriptor segment
_H_SPILL_CUR = 0  # bump cursor (element offset into payload)
_H_SPILL_END = 1  # first element past the spill region
_N_HEADER = 2


class ArenaError(RuntimeError):
    """Arena capacity or protocol violation (e.g. spill exhaustion)."""


def _unlink_segments(payload, desc, creator_pid: int) -> None:
    """Finalizer body: unlink both segments, creator process only."""
    if os.getpid() != creator_pid:
        return
    for seg in (payload, desc):
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


def _pack_order(a: np.ndarray) -> tuple[np.ndarray, int]:
    """The (contiguous array, F-flag) pair preserving BLAS-visible layout.

    C-contiguous arrays (and everything degenerate enough to be both)
    pack as C with flag 0; F-contiguous-only arrays pack as-is with
    flag 1; non-contiguous arrays are canonicalized to C — the only
    case that forces a layout change, and one tile kernels never
    produce.

    Storage dtype is preserved for the two admissible precisions
    (fp64, and fp32 for mixed-precision low-rank factors); anything
    else is canonicalized to fp64.
    """
    a = np.asarray(a)
    if a.dtype != _DT_SINGLE and a.dtype != _DT_DOUBLE:
        a = np.asarray(a, dtype=DTYPE)
    if a.flags.c_contiguous:
        return a, 0
    if a.flags.f_contiguous:
        return a, 1
    return np.ascontiguousarray(a), 0


def _slots(n_elems: int, dtype: np.dtype) -> int:
    """Payload slots (fp64-sized units) covering ``n_elems`` of ``dtype``.

    The allocator hands out 8-byte slots regardless of storage dtype;
    fp32 arrays occupy ``ceil(n/2)`` slots (an odd-length array wastes
    half a slot — the spill/reservation accounting stays dtype-free).
    """
    return -(-(n_elems * dtype.itemsize) // _ITEM)


class TileArena:
    """Tile store over shared memory, API-compatible with
    :class:`~repro.linalg.tile_matrix.TLRMatrix` where the execution
    engines and kernels need it (``tile`` / ``set_tile`` / ``accuracy``
    / ``max_rank`` / iteration).

    Create with :meth:`from_store` in the coordinator *before* forking
    workers: the descriptor map, key table and ``SharedMemory`` handles
    are plain Python state inherited through ``fork``, while all
    mutable tile state lives in the shared segments.
    """

    def __init__(
        self,
        keys: list[tuple[int, int]],
        shapes: dict[tuple[int, int], tuple[int, int]],
        reservations: dict[tuple[int, int], tuple[int, int]],
        payload: shared_memory.SharedMemory,
        desc: shared_memory.SharedMemory,
        lock,
        accuracy: float,
        max_rank: int | None,
        n: int,
        tile_size: int,
        owner: bool,
    ) -> None:
        self._keys = keys
        self._slot = {key: i for i, key in enumerate(keys)}
        self._shapes = shapes
        self._res = reservations
        self._payload = payload
        self._desc_shm = desc
        self._lock = lock
        self._owner = owner
        self._closed = False
        self.accuracy = accuracy
        self.max_rank = max_rank
        self.n = n
        self.tile_size = tile_size
        header_and_table = np.ndarray(
            (_N_HEADER + len(keys) * N_FIELDS,), dtype=np.int64, buffer=desc.buf
        )
        self._header = header_and_table[:_N_HEADER]
        self._table = header_and_table[_N_HEADER:].reshape(len(keys), N_FIELDS)
        self._elems = np.ndarray(
            (payload.size // _ITEM,), dtype=DTYPE, buffer=payload.buf
        )
        self._payload_addr = self._elems.__array_interface__["data"][0]
        #: compression policy mirrored from the source store
        #: (plain Python state inherited through fork): worker-side GEMM
        #: reads ``compression.seed_root`` to seed its one rounding.
        self.compression = None
        # Last-resort leak defense: if the owning coordinator exits
        # abnormally (unhandled exception, sys.exit) without reaching
        # its `finally: arena.unlink()`, this finalizer unlinks the
        # segments at GC or interpreter exit so the CI /dev/shm leak
        # check stays green.  Pid-guarded because forked workers
        # inherit the object (and its finalizer) but must never unlink
        # segments the coordinator still serves; detached on the
        # normal unlink() path.
        self._finalizer = (
            weakref.finalize(
                self, _unlink_segments, payload, desc, os.getpid()
            )
            if owner
            else None
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_store(
        cls, store, spill_factor: float | None = None
    ) -> "TileArena":
        """Build an arena mirroring ``store`` (a tile matrix).

        ``store`` must expose ``tile``/``set_tile``, iteration over
        ``((m, k), tile)``, and ``accuracy``/``max_rank``, as
        :class:`~repro.linalg.tile_matrix.TLRMatrix` does.
        """
        if spill_factor is None:
            spill_factor = spill_factor_from_env()
        items = sorted(store, key=lambda it: it[0])
        keys = [key for key, _ in items]
        shapes = {key: tile.shape for key, tile in items}
        max_rank = getattr(store, "max_rank", None)

        reservations: dict[tuple[int, int], tuple[int, int]] = {}
        cursor = 0
        dense_total = 0
        for (m, k), tile in items:
            rows, cols = tile.shape
            dense = rows * cols
            dense_total += dense
            if m == k:
                reserve = dense
            else:
                cap = max_rank if max_rank is not None else min(rows, cols)
                reserve = min((rows + cols) * cap, dense)
            reservations[(m, k)] = (cursor, reserve)
            cursor += reserve
        spill_elems = int(dense_total * spill_factor)
        total = max(cursor + spill_elems, 1)

        payload = shared_memory.SharedMemory(create=True, size=total * _ITEM)
        desc = shared_memory.SharedMemory(
            create=True, size=(_N_HEADER + len(keys) * N_FIELDS) * 8
        )
        arena = cls(
            keys,
            shapes,
            reservations,
            payload,
            desc,
            multiprocessing.get_context("fork").Lock(),
            accuracy=float(getattr(store, "accuracy", 0.0) or 1.0),
            max_rank=max_rank,
            n=int(getattr(store, "n", 0)),
            tile_size=int(getattr(store, "tile_size", 1)),
            owner=True,
        )
        arena.compression = getattr(store, "compression", None)
        arena._header[_H_SPILL_CUR] = cursor
        arena._header[_H_SPILL_END] = total
        arena._table[:, F_SPILL_OFF] = -1
        arena._table[:, F_SPILL_CAP] = 0
        for key, tile in items:
            arena.set_tile(*key, tile)
        return arena

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def _spill_alloc(self, elems: int) -> int:
        with self._lock:
            off = int(self._header[_H_SPILL_CUR])
            if off + elems > int(self._header[_H_SPILL_END]):
                free = int(self._header[_H_SPILL_END]) - off
                raise ArenaError(
                    f"arena spill region exhausted: need {elems} elements, "
                    f"{free} free — raise ${SPILL_FACTOR_ENV} (current "
                    "region is spill_factor x the all-dense payload size)"
                )
            self._header[_H_SPILL_CUR] = off + elems
            return off

    def _place(self, slot: int, key: tuple[int, int], elems: int) -> int:
        """Element offset where ``elems`` payload for ``key`` goes.

        Preference order: the tile's fixed reservation, its existing
        spill block, a freshly bumped spill block (remembered in the
        descriptor for reuse).
        """
        res_off, res_cap = self._res[key]
        if elems <= res_cap:
            return res_off
        row = self._table[slot]
        if 0 <= row[F_SPILL_OFF] and elems <= row[F_SPILL_CAP]:
            return int(row[F_SPILL_OFF])
        off = self._spill_alloc(elems)
        row[F_SPILL_OFF] = off
        row[F_SPILL_CAP] = elems
        return off

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def _view(
        self,
        off: int,
        shape: tuple[int, int],
        f_order: bool,
        dtype: np.dtype = _DT_DOUBLE,
    ) -> np.ndarray:
        return np.ndarray(
            shape,
            dtype=dtype,
            buffer=self._payload.buf,
            offset=off * _ITEM,
            order="F" if f_order else "C",
        )

    def _in_payload(self, a: np.ndarray) -> bool:
        """Whether ``a``'s memory lives inside this arena's payload."""
        try:
            addr = a.__array_interface__["data"][0]
        except (AttributeError, TypeError):  # pragma: no cover - defensive
            return True  # assume the worst: stage through a copy
        start = self._payload_addr
        return start <= addr < start + self._payload.size

    def _write_array(self, off: int, a: np.ndarray, f_order: int) -> None:
        dst = self._view(off, a.shape, bool(f_order), a.dtype)
        if self._in_payload(a):
            # The source may alias the destination slot (e.g. a kernel
            # republishing a tile built from arena views); stage through
            # a private copy so the element-wise copy never reads bytes
            # it already overwrote.
            a = a.copy(order="F" if f_order else "C")
        np.copyto(dst, a, casting="no")

    # ------------------------------------------------------------------
    # store API (what kernels and the engines touch)
    # ------------------------------------------------------------------

    @property
    def n_tiles(self) -> int:
        return -(-self.n // self.tile_size) if self.tile_size else 0

    def keys(self) -> list[tuple[int, int]]:
        return list(self._keys)

    def generation(self, m: int, k: int) -> int:
        return int(self._table[self._slot[(m, k)], F_GEN])

    def tile(self, m: int, k: int) -> Tile:
        """Zero-copy tile view over the shared payload."""
        slot = self._slot[(m, k)]
        row = self._table[slot]
        kind = int(row[F_KIND])
        shape = (int(row[F_ROWS]), int(row[F_COLS]))
        if kind == _KIND_NULL:
            return NullTile(shape)
        order = int(row[F_ORDER])
        dt = int(row[F_DTYPE])
        if kind == _KIND_DENSE:
            return DenseTile(
                self._view(
                    int(row[F_OFF_A]),
                    shape,
                    bool(order & 1),
                    _DT_SINGLE if dt & 1 else _DT_DOUBLE,
                )
            )
        rank = int(row[F_RANK])
        u = self._view(
            int(row[F_OFF_A]),
            (shape[0], rank),
            bool(order & 1),
            _DT_SINGLE if dt & 1 else _DT_DOUBLE,
        )
        v = self._view(
            int(row[F_OFF_B]),
            (shape[1], rank),
            bool(order & 2),
            _DT_SINGLE if dt & 2 else _DT_DOUBLE,
        )
        return LowRankTile(LowRankFactor(u, v))

    def set_tile(self, m: int, k: int, tile: Tile) -> None:
        """Publish a tile into its slot (reservation or spill)."""
        key = (m, k)
        slot = self._slot[key]
        expected = self._shapes[key]
        if tile.shape != expected:
            raise ValueError(
                f"tile {key} shape {tile.shape} != expected {expected}"
            )
        row = self._table[slot]
        if isinstance(tile, NullTile):
            row[F_KIND] = _KIND_NULL
            row[F_RANK] = 0
            row[F_OFF_A] = row[F_OFF_B] = -1
            row[F_ORDER] = 0
            row[F_DTYPE] = 0
        elif isinstance(tile, LowRankTile):
            u, fu = _pack_order(tile.u)
            v, fv = _pack_order(tile.v)
            su = _slots(u.size, u.dtype)
            sv = _slots(v.size, v.dtype)
            off = self._place(slot, key, su + sv)
            self._write_array(off, u, fu)
            self._write_array(off + su, v, fv)
            row[F_KIND] = _KIND_LR
            row[F_RANK] = tile.rank
            row[F_OFF_A] = off
            row[F_OFF_B] = off + su
            row[F_ORDER] = fu | (fv << 1)
            row[F_DTYPE] = int(u.dtype == _DT_SINGLE) | (
                int(v.dtype == _DT_SINGLE) << 1
            )
        elif isinstance(tile, DenseTile):
            d, fd = _pack_order(tile.data)
            off = self._place(slot, key, _slots(d.size, d.dtype))
            self._write_array(off, d, fd)
            row[F_KIND] = _KIND_DENSE
            row[F_RANK] = min(expected)
            row[F_OFF_A] = off
            row[F_OFF_B] = -1
            row[F_ORDER] = fd
            row[F_DTYPE] = int(d.dtype == _DT_SINGLE)
        else:
            raise TypeError(f"cannot store {type(tile)!r} in the arena")
        row[F_ROWS], row[F_COLS] = expected
        row[F_GEN] += 1

    def __iter__(self):
        return iter((key, self.tile(*key)) for key in self._keys)

    # ------------------------------------------------------------------
    # copies in and out
    # ------------------------------------------------------------------

    def materialize(self, m: int, k: int) -> Tile:
        """A private (heap) copy of a tile, preserving memory order.

        Coordinator-side retirement uses this: the returned tile's
        bytes are frozen — later in-place rewrites of the slot cannot
        touch it — so it is safe to hand to the checkpoint manager,
        the checksum ledger, and the caller's result matrix.
        """
        slot = self._slot[(m, k)]
        row = self._table[slot]
        kind = int(row[F_KIND])
        shape = (int(row[F_ROWS]), int(row[F_COLS]))
        if kind == _KIND_NULL:
            return NullTile(shape)
        order = int(row[F_ORDER])
        dt = int(row[F_DTYPE])
        if kind == _KIND_DENSE:
            view = self._view(
                int(row[F_OFF_A]),
                shape,
                bool(order & 1),
                _DT_SINGLE if dt & 1 else _DT_DOUBLE,
            )
            return DenseTile(view.copy(order="F" if order & 1 else "C"))
        rank = int(row[F_RANK])
        u = self._view(
            int(row[F_OFF_A]),
            (shape[0], rank),
            bool(order & 1),
            _DT_SINGLE if dt & 1 else _DT_DOUBLE,
        )
        v = self._view(
            int(row[F_OFF_B]),
            (shape[1], rank),
            bool(order & 2),
            _DT_SINGLE if dt & 2 else _DT_DOUBLE,
        )
        return LowRankTile(
            LowRankFactor(
                u.copy(order="F" if order & 1 else "C"),
                v.copy(order="F" if order & 2 else "C"),
            )
        )

    def flush_to(self, store) -> None:
        """Materialize every tile back into ``store`` via ``set_tile``."""
        for key in self._keys:
            store.set_tile(*key, self.materialize(*key))

    # ------------------------------------------------------------------
    # retry/rollback snapshots (byte-level: slots are rewritten in place)
    # ------------------------------------------------------------------

    def snapshot(self, keys) -> dict:
        """Descriptor rows + payload bytes for ``keys`` (pre-attempt)."""
        snap = {}
        for key in set(keys):
            slot = self._slot[key]
            row = self._table[slot].copy()
            blobs = []
            kind = int(row[F_KIND])
            dt = int(row[F_DTYPE])
            if kind == _KIND_DENSE:
                size = _slots(
                    int(row[F_ROWS]) * int(row[F_COLS]),
                    _DT_SINGLE if dt & 1 else _DT_DOUBLE,
                )
                blobs.append((int(row[F_OFF_A]), self._elems[
                    int(row[F_OFF_A]) : int(row[F_OFF_A]) + size
                ].copy()))
            elif kind == _KIND_LR:
                for field, dim, bit in (
                    (F_OFF_A, F_ROWS, 1),
                    (F_OFF_B, F_COLS, 2),
                ):
                    size = _slots(
                        int(row[dim]) * int(row[F_RANK]),
                        _DT_SINGLE if dt & bit else _DT_DOUBLE,
                    )
                    off = int(row[field])
                    blobs.append((off, self._elems[off : off + size].copy()))
            snap[key] = (row, blobs)
        return snap

    def restore(self, snapshot: dict) -> None:
        """Roll slots back to their :meth:`snapshot` state."""
        for key, (row, blobs) in snapshot.items():
            slot = self._slot[key]
            for off, blob in blobs:
                self._elems[off : off + blob.size] = blob
            self._table[slot] = row

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def segment_names(self) -> tuple[str, str]:
        """(payload, descriptor) shared-memory segment names — the leak
        check in CI asserts none survive test teardown."""
        return (self._payload.name, self._desc_shm.name)

    def close(self) -> None:
        """Detach this process's mappings (workers call this on exit)."""
        if self._closed:
            return
        self._closed = True
        # Views into the buffers must be dropped before close().
        self._header = self._table = self._elems = None
        self._payload.close()
        self._desc_shm.close()

    def break_lock(self) -> bool:
        """Force-release the spill-allocator lock if its holder died.

        A worker SIGKILLed inside :meth:`_spill_alloc` (a
        microseconds-wide window, but a kill can land anywhere) leaves
        the shared lock held forever; every surviving worker's next
        spill allocation would then deadlock.  The supervisor calls
        this after confirming the holder is dead.  POSIX semaphores
        are releasable from any process, so a plain ``release`` frees
        an orphaned hold; returns True when a stuck lock was broken.
        """
        if self._lock.acquire(timeout=0.2):
            self._lock.release()
            return False
        try:
            self._lock.release()
            return True
        except (ValueError, OSError):  # pragma: no cover - platform
            return False

    def unlink(self) -> None:
        """Destroy the segments (owner/coordinator only, after close)."""
        if self._owner:
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self._payload.unlink()
            self._desc_shm.unlink()

    def __enter__(self) -> "TileArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()
