"""Byte-budgeted LRU cache of factored TLR operators.

The paper's Fig. 11 cost breakdown shows generation + compression +
factorization dominating end-to-end time; a serving system must pay
that once per operator, not once per request.  The cache keys entries
by :attr:`OperatorSpec.fingerprint`, bounds resident payload bytes
with LRU eviction, and (optionally) persists entries through
:mod:`repro.linalg.serialization` so a restarted — or evicted — server
reloads factors from disk instead of refactorizing.

Lookup outcomes, from cheapest to most expensive: a ``hit`` (factor
resident in RAM: zero numerical work), a ``disk hit`` (reloaded from the
persistence directory: no matgen, compression or factorization) and a
``miss`` (a full :meth:`OperatorSpec.build`).

Each disk entry is one sealed tile file, ``{fingerprint}.tlr``, holding
an ``operator`` and a ``factor`` group (:mod:`repro.linalg.serialization`
writes and verifies it).  The atomic temp + fsync + rename of that one
file is the seal: a crash leaves the old entry or none, and shards
sharing the directory cannot interleave one entry's parts.  Startup
runs :meth:`OperatorCache.recover`: stray temp files are deleted, and
every entry is checked with the reader the load path uses; a corrupt
one is quarantined (renamed ``*.corrupt``) rather than trusted.  A
reload that still fails — bit rot since startup — is quarantined,
counted (``disk_corrupt``), and falls through to a fresh build: the
cache never serves a factor it cannot verify.  A write-through that
fails (a full disk) leaves no file and is counted
(``disk_write_failed``): the build stands and is served from memory.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.linalg.integrity import TileIntegrityError
from repro.linalg.serialization import SUFFIX, load_matrices, save_matrices
from repro.linalg.tile_matrix import TLRMatrix
from repro.service.metrics import ServiceMetrics
from repro.service.spec import OperatorSpec
from repro.utils.atomic import quarantine

__all__ = ["CacheEntry", "OperatorCache"]

@dataclass
class CacheEntry:
    """One resident factored operator."""

    fingerprint: str
    #: compressed, unfactorized operator (residuals / iterative refinement)
    operator: TLRMatrix
    #: TLR Cholesky factor
    factor: TLRMatrix
    #: seconds spent building (0.0 when reloaded from disk)
    build_seconds: float = 0.0
    _logdet: float | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @cached_property
    def nbytes(self) -> int:
        """Resident numerical payload (operator + factor)."""
        return self.operator.memory_bytes() + self.factor.memory_bytes()

    def logdet(self) -> float:
        """Memoized ``log det`` of the operator (read off the factor)."""
        from repro.core.solver import logdet

        with self._lock:
            if self._logdet is None:
                self._logdet = logdet(self.factor)
            return self._logdet


class OperatorCache:
    """LRU cache of :class:`CacheEntry` with a resident-bytes budget.

    Parameters
    ----------
    byte_budget:
        Maximum resident payload bytes.  ``None`` disables eviction.
        The most recently used entry is never evicted, so a single
        operator larger than the budget still serves (the budget bounds
        *steady-state* residency, not a single working set).
    directory:
        Persistence root.  When set, every build is written through and
        misses first try a disk reload.
    metrics:
        Optional :class:`ServiceMetrics` mirror for counters/gauges.
    factor_workers:
        Worker threads for cache-miss factorizations (forwarded to
        :meth:`OperatorSpec.build`).  ``None`` defers to the
        factorization default ($REPRO_WORKERS, else serial); ``<= 0``
        means one per CPU core.  Parallel builds cut the most
        expensive cache outcome — the cold build — without changing
        the factor.
    """

    def __init__(
        self,
        byte_budget: int | None = None,
        directory: str | os.PathLike | None = None,
        metrics: ServiceMetrics | None = None,
        factor_workers: int | None = None,
    ) -> None:
        if byte_budget is not None and byte_budget <= 0:
            raise ValueError(f"byte_budget must be positive, got {byte_budget}")
        self.byte_budget = byte_budget
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics
        self.factor_workers = factor_workers
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._resident = 0
        #: fingerprint -> [build lock, requests holding or awaiting it]
        self._build_locks: dict[str, list] = {}
        for name in self._COUNTERS:
            setattr(self, name, 0)
        if self.directory is not None:
            self.recover()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def get_or_build(self, spec: OperatorSpec) -> CacheEntry:
        """Return the entry for ``spec``, building it at most once."""
        return self.acquire(spec)[0]

    def acquire(self, spec: OperatorSpec) -> tuple[CacheEntry, str]:
        """Like :meth:`get_or_build`, also reporting the lookup outcome
        (``"hit"``, ``"disk"`` or ``"build"``).

        Concurrent requests for the same fingerprint serialize on a
        per-fingerprint build lock (single-flight), so a thundering
        herd of cold requests pays one build, not one per request.
        """
        fp = spec.fingerprint
        entry = self._lookup(fp)
        if entry is not None:
            return entry, "hit"
        with self._build_lock(fp):
            entry = self._lookup(fp)  # built while we waited?
            if entry is not None:
                return entry, "hit"
            entry = None if self.directory is None else self._read(fp)
            outcome = "disk"
            if entry is not None:
                self._count("disk_hits")
            else:
                outcome = "build"
                t0 = time.perf_counter()
                built = spec.build(workers=self.factor_workers)
                entry = CacheEntry(
                    fingerprint=fp,
                    operator=built.operator,
                    factor=built.factor,
                    build_seconds=time.perf_counter() - t0,
                )
                self._count("builds")
                self._count("misses")
                try:
                    self._persist(entry)
                except OSError:  # the write left no file; the build stands
                    self._count("disk_write_failed")
            self._insert(entry)
            return entry, outcome

    def _lookup(self, fp: str) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(fp)
            if entry is not None:
                self._entries.move_to_end(fp)
        if entry is not None:
            self._count("hits")
        return entry

    @contextmanager
    def _build_lock(self, fp: str):
        """Hold ``fp``'s build lock; the last request to let go of it
        drops it, so the map holds only fingerprints in flight."""
        with self._lock:
            slot = self._build_locks.setdefault(fp, [threading.Lock(), 0])
            slot[1] += 1
        try:
            with slot[0]:
                yield
        finally:
            with self._lock:
                slot[1] -= 1
                if not slot[1]:
                    del self._build_locks[fp]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _path(self, fp: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{fp}{SUFFIX}"

    def _sealed_paths(self, suffix: str = SUFFIX) -> list[Path]:
        """Every entry file, sorted: ``{fp}{suffix}`` with a dotless stem."""
        assert self.directory is not None
        return sorted(p for p in self.directory.glob(f"*{suffix}") if "." not in p.stem)

    def _persist(self, entry: CacheEntry) -> None:
        if self.directory is None:
            return
        save_matrices(
            self._path(entry.fingerprint),
            {"operator": entry.operator, "factor": entry.factor},
            fingerprint=entry.fingerprint,
        )

    def _quarantine_entry(self, fp: str) -> None:
        path = self._path(fp)
        if path.exists():
            quarantine(path)
            self._count("disk_corrupt")

    def _read(self, fp: str) -> CacheEntry | None:
        """The verified entry on disk, or ``None``.  A torn, truncated
        or rotten entry is quarantined, and the caller falls through to
        a clean rebuild: never serve what we cannot verify, never crash
        the server over a bad disk file."""
        path = self._path(fp)
        if not path.exists():
            return None
        try:
            matrices, meta = load_matrices(path)
            if meta.get("fingerprint") != fp or set(matrices) != {"operator", "factor"}:
                raise TileIntegrityError(f"{path}: not the entry of {fp}")
        except (TileIntegrityError, OSError):
            self._quarantine_entry(fp)
            return None
        return CacheEntry(fingerprint=fp, **matrices)

    def recover(self) -> dict[str, int]:
        """Startup scan of the persistence directory.

        Deletes stray atomic-write temp files (a crash mid-rename) and
        reads every entry as a reload would, quarantining each that
        fails: a truncated file, a flipped bit, another format version.
        Entries of format 5 and older (``{fp}.npz``) are quarantined
        unread.

        Returns ``{"checked": ..., "quarantined": ..., "tmp_removed": ...}``.
        """
        if self.directory is None:
            return {"checked": 0, "quarantined": 0, "tmp_removed": 0}
        tmps = list(self.directory.glob(".*.tmp"))
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        paths, legacy = self._sealed_paths(), self._sealed_paths(".npz")
        for path in legacy:
            quarantine(path)
        return {
            "checked": len(paths) + len(legacy),
            "quarantined": sum(self._read(p.stem) is None for p in paths) + len(legacy),
            "tmp_removed": len(tmps),
        }

    # ------------------------------------------------------------------
    # residency management
    # ------------------------------------------------------------------

    def _insert(self, entry: CacheEntry) -> None:
        with self._lock:
            self._pop_locked(entry.fingerprint)
            self._entries[entry.fingerprint] = entry
            self._resident += entry.nbytes
            evicted = 0
            budget = self.byte_budget
            while budget is not None and len(self._entries) > 1 and self._resident > budget:
                self._pop_locked(next(iter(self._entries)))
                evicted += 1
            resident = self._resident
        if evicted:
            self._count("evictions", evicted)
        if self.metrics is not None:
            self.metrics.set_bytes_resident(resident)

    def _pop_locked(self, fp: str) -> None:
        entry = self._entries.pop(fp, None)
        if entry is not None:
            self._resident -= entry.nbytes

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, spec_or_fp) -> bool:
        spec = isinstance(spec_or_fp, OperatorSpec)
        fp = spec_or_fp.fingerprint if spec else str(spec_or_fp)
        with self._lock:
            return fp in self._entries

    def invalidate(self, fp: str) -> None:
        """Drop one entry everywhere: resident copy out, disk copy
        quarantined.  Used when a served result proves the entry is
        corrupt — the next request rebuilds from scratch instead of
        re-serving poison."""
        with self._lock:
            self._pop_locked(fp)
            resident = self._resident
        if self.directory is not None:
            self._quarantine_entry(fp)
        if self.metrics is not None:
            self.metrics.set_bytes_resident(resident)

    def seal(self) -> int:
        """Persist every resident entry not yet sealed on disk.

        The drain protocol's warm-handoff step: a successor process
        pointed at the same directory recovers every operator this one
        built, instead of re-factorizing on its first requests.
        Returns the number of entries newly persisted (0 with no
        persistence directory).
        """
        if self.directory is None:
            return 0
        with self._lock:
            entries = list(self._entries.values())
        fresh = [e for e in entries if not self._path(e.fingerprint).exists()]
        for entry in fresh:
            self._persist(entry)
        return len(fresh)

    def disk_fingerprints(self) -> list[str]:
        """Fingerprints sealed on disk, sorted: the fleet's warm-handoff
        inventory.  Shards share one directory, so an entry sealed by
        any shard warms every future failover from disk."""
        if self.directory is None:
            return []
        return [p.stem for p in self._sealed_paths()]

    def clear(self) -> None:
        """Drop resident entries (disk persistence is left intact)."""
        with self._lock:
            self._entries.clear()
            self._resident = 0
        if self.metrics is not None:
            self.metrics.set_bytes_resident(0)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------

    #: each mirrored into the metrics as ``cache_{name}``
    _COUNTERS = ("hits", "disk_hits", "misses", "builds", "evictions",
                 "disk_corrupt", "disk_write_failed")

    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + delta)
        if self.metrics is not None:
            self.metrics.count(f"cache_{name}", delta)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {name: getattr(self, name) for name in self._COUNTERS} | {
                "entries": len(self._entries),
                "resident_bytes": self._resident,
            }
