"""Byte-budgeted LRU cache of factored TLR operators.

The paper's Fig. 11 cost breakdown shows generation + compression +
factorization dominating end-to-end time; a serving system must pay
that once per operator, not once per request.  The cache keys entries
by :attr:`OperatorSpec.fingerprint`, bounds resident payload bytes
with LRU eviction, and (optionally) persists entries through
:mod:`repro.linalg.serialization` so a restarted — or evicted — server
reloads factors from disk instead of refactorizing.

Lookup outcomes, from cheapest to most expensive:

``hit``
    Factor resident in RAM: zero numerical work.
``disk hit``
    Factor reloaded from the persistence directory: deserialization
    only, still zero matgen/compression/factorization.
``miss``
    Full build via :meth:`OperatorSpec.build`.

Each disk entry is one sealed tile file, ``{fingerprint}.npz``, holding
an ``operator`` and a ``factor`` group (:mod:`repro.linalg.serialization`
writes and verifies it).  The atomic temp + fsync + rename of that one
file is the seal: a crash leaves the old entry or none, and shards
sharing the directory cannot interleave one entry's parts.  Startup
runs :meth:`OperatorCache.recover`: stray temp files are deleted, and
every entry is checked with the reader the load path uses; a corrupt
one is quarantined (renamed ``*.corrupt``) rather than trusted.  A
reload that still fails — bit rot since startup — is quarantined,
counted (``disk_corrupt``), and falls through to a fresh build: the
cache never serves a factor it cannot verify.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.linalg.integrity import TileIntegrityError
from repro.linalg.serialization import load_matrices, save_matrices
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

    @property
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
        self._build_locks: dict[str, threading.Lock] = {}
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.builds = 0
        self.evictions = 0
        self.disk_corrupt = 0
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
            entry = self._load_from_disk(fp)
            outcome = "disk"
            if entry is None:
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
                self._persist(entry)
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

    def _build_lock(self, fp: str) -> threading.Lock:
        with self._lock:
            return self._build_locks.setdefault(fp, threading.Lock())

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def _path(self, fp: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{fp}.npz"

    def _sealed_paths(self) -> list[Path]:
        """Every entry file, sorted: ``{fp}.npz`` with a dotless stem."""
        assert self.directory is not None
        return sorted(p for p in self.directory.glob("*.npz") if "." not in p.stem)

    def _persist(self, entry: CacheEntry) -> None:
        if self.directory is None:
            return
        # uncompressed: warm reload speed matters more than disk bytes
        save_matrices(
            self._path(entry.fingerprint),
            {"operator": entry.operator, "factor": entry.factor},
            compressed=False,
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

    def _load_from_disk(self, fp: str) -> CacheEntry | None:
        entry = None if self.directory is None else self._read(fp)
        if entry is not None:
            self._count("disk_hits")
        return entry

    def recover(self) -> dict[str, int]:
        """Startup scan of the persistence directory.

        Deletes stray atomic-write temp files (a crash mid-rename) and
        reads every entry as a reload would, quarantining each that
        fails: a truncated file, a flipped bit, another format version.

        Returns ``{"checked": ..., "quarantined": ..., "tmp_removed": ...}``.
        """
        if self.directory is None:
            return {"checked": 0, "quarantined": 0, "tmp_removed": 0}
        tmps = list(self.directory.glob(".*.tmp"))
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        paths = self._sealed_paths()
        return {
            "checked": len(paths),
            "quarantined": sum(self._read(p.stem) is None for p in paths),
            "tmp_removed": len(tmps),
        }

    # ------------------------------------------------------------------
    # residency management
    # ------------------------------------------------------------------

    def _insert(self, entry: CacheEntry) -> None:
        with self._lock:
            self._entries[entry.fingerprint] = entry
            self._entries.move_to_end(entry.fingerprint)
            evicted = 0
            if self.byte_budget is not None:
                while (
                    len(self._entries) > 1
                    and self._resident_bytes_locked() > self.byte_budget
                ):
                    self._entries.popitem(last=False)
                    evicted += 1
            resident = self._resident_bytes_locked()
        if evicted:
            self._count("evictions", evicted)
        if self.metrics is not None:
            self.metrics.set_bytes_resident(resident)

    def _resident_bytes_locked(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._resident_bytes_locked()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, spec_or_fp) -> bool:
        fp = (
            spec_or_fp.fingerprint
            if isinstance(spec_or_fp, OperatorSpec)
            else str(spec_or_fp)
        )
        with self._lock:
            return fp in self._entries

    def invalidate(self, fp: str) -> None:
        """Drop one entry everywhere: resident copy out, disk copy
        quarantined.  Used when a served result proves the entry is
        corrupt — the next request rebuilds from scratch instead of
        re-serving poison."""
        with self._lock:
            self._entries.pop(fp, None)
            resident = self._resident_bytes_locked()
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
        sealed = 0
        for entry in entries:
            if self._path(entry.fingerprint).exists():
                continue
            self._persist(entry)
            sealed += 1
        return sealed

    def disk_fingerprints(self) -> list[str]:
        """Fingerprints sealed on disk, sorted.

        The fleet's warm-handoff inventory: a respawned shard pointed
        at this directory serves exactly these operators from disk
        instead of rebuilding.  Fleet shards share one directory, so
        an entry sealed by any shard warms every future failover.
        """
        if self.directory is None:
            return []
        return [p.stem for p in self._sealed_paths()]

    def clear(self) -> None:
        """Drop resident entries (disk persistence is left intact)."""
        with self._lock:
            self._entries.clear()
        if self.metrics is not None:
            self.metrics.set_bytes_resident(0)

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------

    _METRIC_NAMES = {
        "hits": "cache_hits",
        "disk_hits": "cache_disk_hits",
        "misses": "cache_misses",
        "builds": "cache_builds",
        "evictions": "cache_evictions",
        "disk_corrupt": "cache_disk_corrupt",
    }

    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + delta)
        if self.metrics is not None:
            self.metrics.count(self._METRIC_NAMES[name], delta)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "disk_hits": self.disk_hits,
                "misses": self.misses,
                "builds": self.builds,
                "evictions": self.evictions,
                "disk_corrupt": self.disk_corrupt,
                "entries": len(self._entries),
                "resident_bytes": self._resident_bytes_locked(),
            }
