"""Checkpoint/restart and tile-integrity bookkeeping for DAG runs.

A process crash mid-factorization loses hours of work at the paper's
scale; a silently corrupted tile poisons the factor and every solve
served from it.  This module supplies the recovery layer both
execution engines plug into:

``ChecksumLedger``
    Thread-safe map of tile index → BLAKE2b content checksum
    (:func:`repro.linalg.integrity.tile_checksum`).  Engines record a
    checksum whenever a kernel publishes a tile and — under
    ``REPRO_VERIFY_TILES=1`` — re-verify every operand tile before a
    kernel consumes it, plus one full sweep at run end.

``CheckpointManager``
    Periodically persists the *completed-task frontier* plus the tiles
    those tasks wrote.  Consistency does not need a stop-the-world
    pause: a task's output tiles cannot be touched by any other task
    until the engine publishes its successors, so capturing the tile
    *references* at retirement (tiles are immutable by convention)
    yields a frontier-consistent snapshot even under the parallel
    engine.  Checkpoints are written atomically (temp + fsync +
    rename) as an ``.npz`` payload plus a JSON sidecar manifest
    carrying the payload digest, per-tile checksums, the completed
    task list, and a graph signature; torn or tampered checkpoints are
    detected at load and quarantined, falling back to the previous
    one.

``load_checkpoint`` / resume
    A restarted run rebuilds its pristine operator (the spec is
    deterministic), overlays the checkpoint's tiles, and the engines
    replay only tasks outside the frontier — the resumed factor is
    bitwise identical to an uninterrupted run, because every remaining
    task reads exactly the values it would have read.

The manager also retains a reference map of the last-known-good tile
per index, which lets a verification failure *heal* in place (restore
the clean tile, re-verify, re-run) instead of aborting — the recovery
path exercised by the ``bitflip`` fault kind.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.config import VERIFY_TILES_ENV, verify_tiles_from_env
from repro.linalg.integrity import tile_checksum
from repro.linalg.serialization import pack_tiles, unpack_tiles
from repro.linalg.tile import Tile
from repro.utils.atomic import atomic_write_bytes, quarantine

__all__ = [
    "VERIFY_TILES_ENV",
    "verify_tiles_from_env",
    "ChecksumLedger",
    "Checkpoint",
    "CheckpointManager",
    "graph_signature",
    "load_checkpoint",
]

_MANIFEST_VERSION = 1
_CKPT_PREFIX = "ckpt-"

#: task uid as stored in the manifest: (klass, params tuple)
TaskUid = tuple[str, tuple[int, ...]]


def graph_signature(graph) -> str:
    """Stable digest of a task graph's identity (class + params set).

    Guards resume: a checkpoint taken against one factorization must
    not be replayed into a different one (another matrix size, a
    different trimming outcome...).
    """
    h = hashlib.blake2b(digest_size=16)
    for uid in sorted(t.uid for t in graph.tasks):
        h.update(f"{uid[0]}{uid[1]};".encode())
    return h.hexdigest()


class ChecksumLedger:
    """Thread-safe tile-index → content-checksum map."""

    def __init__(self) -> None:
        self._sums: dict[tuple[int, int], str] = {}
        self._lock = threading.Lock()

    def record(self, key: tuple[int, int], tile: Tile) -> str:
        checksum = tile_checksum(tile)
        with self._lock:
            self._sums[key] = checksum
        return checksum

    def expected(self, key: tuple[int, int]) -> str | None:
        with self._lock:
            return self._sums.get(key)

    def matches(self, key: tuple[int, int], tile: Tile) -> bool:
        """True when no checksum is recorded for ``key`` (nothing to
        verify against) or the tile hashes to the recorded value."""
        expected = self.expected(key)
        return expected is None or tile_checksum(tile) == expected

    def seed(self, data) -> None:
        """Record every stored tile of a tile matrix."""
        for key, tile in data:
            self.record(key, tile)

    def keys(self) -> list[tuple[int, int]]:
        with self._lock:
            return list(self._sums)

    def snapshot(self) -> dict[tuple[int, int], str]:
        with self._lock:
            return dict(self._sums)


# ----------------------------------------------------------------------
# checkpoint files
# ----------------------------------------------------------------------


@dataclass
class Checkpoint:
    """One loaded, validated checkpoint."""

    seq: int
    completed: frozenset[TaskUid]
    tiles: dict[tuple[int, int], Tile]
    checksums: dict[tuple[int, int], str]
    graph_signature: str
    matrix_meta: dict
    manifest_path: Path

    def __repr__(self) -> str:
        return (
            f"Checkpoint(seq={self.seq}, completed={len(self.completed)} "
            f"tasks, dirty={len(self.tiles)} tiles)"
        )


def _payload_digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _load_one(manifest_path: Path) -> Checkpoint:
    """Load + validate one checkpoint; raises on any inconsistency."""
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ValueError(
            f"unsupported checkpoint manifest version "
            f"{manifest.get('version')!r}"
        )
    payload_path = manifest_path.parent / manifest["payload"]
    payload = payload_path.read_bytes()
    digest = _payload_digest(payload)
    if digest != manifest["payload_blake2b"]:
        raise ValueError(
            f"checkpoint payload {payload_path.name} digest mismatch "
            f"(manifest {manifest['payload_blake2b']}, file {digest}) — "
            "torn or tampered write"
        )
    with np.load(io.BytesIO(payload)) as data:
        tiles = unpack_tiles(data)
    checksums: dict[tuple[int, int], str] = {}
    for key_str, expected in manifest["tile_checksums"].items():
        m_str, k_str = key_str.split("_")
        key = (int(m_str), int(k_str))
        if key not in tiles:
            raise ValueError(f"manifest names tile {key} absent from payload")
        actual = tile_checksum(tiles[key])
        if actual != expected:
            raise ValueError(
                f"checkpoint tile {key} checksum mismatch "
                f"(expected {expected}, got {actual})"
            )
        checksums[key] = expected
    if set(checksums) != set(tiles):
        raise ValueError("payload holds tiles the manifest does not cover")
    completed = frozenset(
        (str(klass), tuple(int(p) for p in params))
        for klass, params in manifest["completed"]
    )
    return Checkpoint(
        seq=int(manifest["seq"]),
        completed=completed,
        tiles=tiles,
        checksums=checksums,
        graph_signature=str(manifest["graph_signature"]),
        matrix_meta=dict(manifest["matrix"]),
        manifest_path=manifest_path,
    )


def load_checkpoint(path: str | os.PathLike) -> Checkpoint | None:
    """Load the newest valid checkpoint under ``path``.

    ``path`` may be a checkpoint directory (newest-first scan over
    ``ckpt-*.json``; corrupt candidates are quarantined and the scan
    falls back to the previous one) or one specific manifest file
    (corruption then raises instead of silently starting over).
    Returns ``None`` when the directory holds no usable checkpoint.
    """
    path = Path(path)
    if path.is_file():
        return _load_one(path)
    if not path.is_dir():
        return None
    candidates = sorted(path.glob(f"{_CKPT_PREFIX}*.json"), reverse=True)
    for manifest_path in candidates:
        try:
            return _load_one(manifest_path)
        except (ValueError, OSError, KeyError, json.JSONDecodeError):
            quarantine(manifest_path.parent / (manifest_path.stem + ".npz"))
            quarantine(manifest_path)
    return None


# ----------------------------------------------------------------------
# the manager
# ----------------------------------------------------------------------


class CheckpointManager:
    """Cadence-driven checkpointing + in-memory tile recovery.

    Parameters
    ----------
    directory:
        Where checkpoint payloads and manifests live (created on
        demand).
    every_tasks:
        Write a checkpoint after this many retired tasks (``None``
        disables the task-count trigger).
    every_seconds:
        ... or after this much wall-clock time since the last write
        (``None`` disables the timer trigger).  Either trigger firing
        marks a checkpoint due; the worker that notices writes it
        outside the engine's scheduling lock.
    keep:
        Retained checkpoint generations; older ones are pruned after a
        successful write (the newest is only ever deleted *after* its
        replacement is durably on disk).

    One manager instance serves one factorization at a time
    (:meth:`bind` resets per-run state); the engines call
    :meth:`task_retired` after every task and :meth:`flush` when a
    write is due.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        every_tasks: int | None = 50,
        every_seconds: float | None = None,
        keep: int = 2,
    ) -> None:
        if every_tasks is not None and every_tasks < 1:
            raise ValueError(f"every_tasks must be >= 1, got {every_tasks}")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError(
                f"every_seconds must be positive, got {every_seconds}"
            )
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        if every_tasks is None and every_seconds is None:
            raise ValueError(
                "at least one of every_tasks / every_seconds must be set"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every_tasks = every_tasks
        self.every_seconds = every_seconds
        self.keep = int(keep)
        self.ledger = ChecksumLedger()
        self._lock = threading.Lock()
        self._signature: str | None = None
        self._matrix_meta: dict = {}
        self._completed: set[TaskUid] = set()
        #: tile index -> (reference, checksum) captured at retirement
        self._dirty: dict[tuple[int, int], tuple[Tile, str]] = {}
        #: last-known-good tile reference per index (healing source)
        self._refs: dict[tuple[int, int], Tile] = {}
        self._seq = self._existing_seq()
        self._tasks_since = 0
        self._last_write = time.monotonic()
        self._due = False
        self._writing = False
        #: observability counters
        self.checkpoints_written = 0
        self.tiles_healed = 0
        self.resumed_tasks = 0

    # ------------------------------------------------------------------
    # binding / resume
    # ------------------------------------------------------------------

    def _existing_seq(self) -> int:
        seqs = []
        for p in self.directory.glob(f"{_CKPT_PREFIX}*.json"):
            try:
                seqs.append(int(p.stem[len(_CKPT_PREFIX):]))
            except ValueError:
                continue
        return max(seqs, default=0)

    def bind(self, graph, data, resume: Checkpoint | None = None) -> int:
        """Attach to one run: reset state, optionally apply a resume.

        With ``resume``, the checkpoint is validated against this graph
        and matrix, its tiles are applied onto ``data`` (which must be
        the *pristine* operator, rebuilt exactly as the original run
        built it), and the completed frontier is adopted so the engines
        replay only unfinished tasks.  Returns the number of tasks the
        frontier skips.  Idempotent for the same graph: engines may
        re-call it without clobbering an earlier bind.
        """
        signature = graph_signature(graph)
        with self._lock:
            if self._signature == signature:
                return self.resumed_tasks
            self._signature = signature
            self._matrix_meta = {
                "n": int(data.n),
                "tile_size": int(data.tile_size),
                "accuracy": float(data.accuracy),
                "max_rank": (
                    None if data.max_rank is None else int(data.max_rank)
                ),
            }
            self._completed = set()
            self._dirty = {}
            self._refs = {}
            self.ledger = ChecksumLedger()
            self._tasks_since = 0
            self._last_write = time.monotonic()
            self._due = False
            self.resumed_tasks = 0

        if resume is not None:
            if resume.graph_signature != signature:
                raise ValueError(
                    "checkpoint does not match this factorization "
                    f"(graph signature {resume.graph_signature} vs "
                    f"{signature}); refusing to resume"
                )
            for field_name in ("n", "tile_size"):
                if resume.matrix_meta.get(field_name) != self._matrix_meta[
                    field_name
                ]:
                    raise ValueError(
                        f"checkpoint matrix {field_name}="
                        f"{resume.matrix_meta.get(field_name)} does not "
                        f"match operator {field_name}="
                        f"{self._matrix_meta[field_name]}"
                    )
            for (m, k), tile in resume.tiles.items():
                data.set_tile(m, k, tile)
            with self._lock:
                self._completed = set(resume.completed)
                self._dirty = {
                    key: (tile, resume.checksums[key])
                    for key, tile in resume.tiles.items()
                }
                self._seq = max(self._seq, resume.seq)
                self.resumed_tasks = len(self._completed)

        # Seed the ledger and healing references from the (possibly
        # just-restored) matrix: every later verification has a
        # baseline, and every tile has a known-good reference.
        for key, tile in data:
            self.ledger.record(key, tile)
            with self._lock:
                self._refs[key] = tile
        return self.resumed_tasks

    @property
    def completed_uids(self) -> frozenset[TaskUid]:
        with self._lock:
            return frozenset(self._completed)

    # ------------------------------------------------------------------
    # per-task hooks (called by the engines)
    # ------------------------------------------------------------------

    def task_retired(self, task, data) -> bool:
        """Record a completed task; True when a checkpoint is now due.

        Must be called after the task's kernel finished and *before*
        the engine publishes its successors — at that point the tiles
        the task wrote cannot be concurrently replaced, so the
        captured references are exactly the task's outputs.
        """
        captured = {key: data.tile(*key) for key in set(task.writes)}
        with self._lock:
            self._completed.add(task.uid)
            for key, tile in captured.items():
                checksum = self.ledger.expected(key)
                if checksum is None:
                    checksum = tile_checksum(tile)
                self._dirty[key] = (tile, checksum)
                self._refs[key] = tile
            self._tasks_since += 1
            if not self._due:
                if (
                    self.every_tasks is not None
                    and self._tasks_since >= self.every_tasks
                ):
                    self._due = True
                elif (
                    self.every_seconds is not None
                    and time.monotonic() - self._last_write
                    >= self.every_seconds
                ):
                    self._due = True
            return self._due and not self._writing

    def heal(self, data, key: tuple[int, int]) -> bool:
        """Restore a corrupted tile from its last-known-good reference.

        Succeeds only when the retained reference still matches the
        ledger checksum (i.e. the reference itself was not the victim);
        then the clean tile is republished and the kernel can retry.
        """
        with self._lock:
            clean = self._refs.get(key)
        if clean is None:
            return False
        expected = self.ledger.expected(key)
        if expected is None or tile_checksum(clean) != expected:
            return False
        data.set_tile(*key, clean)
        with self._lock:
            self.tiles_healed += 1
        return True

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def flush(self, data=None, force: bool = False) -> Path | None:
        """Write a checkpoint if one is due (or ``force=True``).

        Safe to call from any worker thread; a single writer proceeds
        and concurrent callers return immediately.  Retirements that
        land during the write still count toward the next checkpoint,
        so one that falls due meanwhile is written at the next
        retirement or, after the last one, by the run's epilogue.
        """
        with self._lock:
            if self._writing or not (self._due or force):
                return None
            if self._signature is None:
                raise RuntimeError("flush() before bind()")
            self._writing = True
            covered = self._tasks_since
            seq = self._seq + 1
            completed = sorted(self._completed)
            dirty = dict(self._dirty)
            signature = self._signature
            matrix_meta = dict(self._matrix_meta)
        try:
            path = self._write(seq, completed, dirty, signature, matrix_meta)
        finally:
            with self._lock:
                self._writing = False
        with self._lock:
            self._seq = seq
            self._tasks_since -= covered
            self._last_write = time.monotonic()
            self._due = (
                self.every_tasks is not None
                and self._tasks_since >= self.every_tasks
            )
            self.checkpoints_written += 1
        self._prune()
        return path

    def _write(
        self,
        seq: int,
        completed: list[TaskUid],
        dirty: dict[tuple[int, int], tuple[Tile, str]],
        signature: str,
        matrix_meta: dict,
    ) -> Path:
        stem = f"{_CKPT_PREFIX}{seq:06d}"
        arrays, kinds = pack_tiles(
            (key, tile) for key, (tile, _) in sorted(dirty.items())
        )
        buf = io.BytesIO()
        # uncompressed: checkpoints are hot-path
        np.savez(buf, **arrays, kinds=kinds)
        payload = buf.getvalue()
        manifest = {
            "version": _MANIFEST_VERSION,
            "seq": seq,
            "payload": f"{stem}.npz",
            "payload_blake2b": _payload_digest(payload),
            "graph_signature": signature,
            "matrix": matrix_meta,
            "completed": [[klass, list(params)] for klass, params in completed],
            "tile_checksums": {
                f"{m}_{k}": checksum
                for (m, k), (_, checksum) in sorted(dirty.items())
            },
            "created_at": time.time(),
        }
        # Payload first, manifest last: a manifest on disk implies its
        # payload is complete, so readers trust manifest-then-payload.
        atomic_write_bytes(self.directory / f"{stem}.npz", payload)
        return atomic_write_bytes(
            self.directory / f"{stem}.json",
            json.dumps(manifest, indent=1).encode(),
        )

    def _prune(self) -> None:
        manifests = sorted(self.directory.glob(f"{_CKPT_PREFIX}*.json"))
        for manifest_path in manifests[: -self.keep or None]:
            (self.directory / (manifest_path.stem + ".npz")).unlink(
                missing_ok=True
            )
            manifest_path.unlink(missing_ok=True)

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "checkpoints_written": self.checkpoints_written,
                "tiles_healed": self.tiles_healed,
                "resumed_tasks": self.resumed_tasks,
                "completed_tasks": len(self._completed),
                "dirty_tiles": len(self._dirty),
                "seq": self._seq,
            }
