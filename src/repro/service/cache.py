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

Disk entries are crash-safe: payloads are written atomically
(temp + fsync + rename, via :func:`repro.linalg.serialization.save_tlr`)
and sealed by a sidecar JSON manifest recording each file's size and
BLAKE2b digest — written *last*, so a manifest on disk implies its
payloads are complete.  Startup runs :meth:`OperatorCache.recover`:
stray temp files are deleted and torn/corrupt entries are quarantined
(renamed ``*.corrupt``) rather than trusted.  A reload that still
fails — bit rot under a valid-looking manifest, a truncated legacy
file — is caught, quarantined, counted (``disk_corrupt``), and falls
through to a fresh build: the cache never serves a factor it cannot
verify.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.linalg.serialization import load_tlr, save_tlr
from repro.linalg.tile_matrix import TLRMatrix
from repro.service.metrics import ServiceMetrics
from repro.service.spec import OperatorSpec
from repro.utils.atomic import atomic_write_bytes, quarantine

__all__ = ["CacheEntry", "OperatorCache"]

_MANIFEST_VERSION = 1

#: Exceptions a corrupt/torn disk entry can surface as during reload.
_DISK_CORRUPTION_ERRORS = (ValueError, OSError, KeyError, zipfile.BadZipFile)


def _file_digest(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


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

    def _paths(self, fp: str) -> tuple[Path, Path]:
        assert self.directory is not None
        return (
            self.directory / f"{fp}.operator.npz",
            self.directory / f"{fp}.factor.npz",
        )

    def _manifest_path(self, fp: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{fp}.manifest.json"

    def _persist(self, entry: CacheEntry) -> None:
        if self.directory is None:
            return
        op_path, f_path = self._paths(entry.fingerprint)
        # uncompressed: warm reload speed matters more than disk bytes
        save_tlr(entry.operator, op_path, compressed=False)
        save_tlr(entry.factor, f_path, compressed=False)
        # Manifest last: its presence certifies both payloads landed
        # complete, so a crash between the writes leaves a pair that
        # recover() treats as unsealed, never a sealed torn entry.
        manifest = {
            "version": _MANIFEST_VERSION,
            "fingerprint": entry.fingerprint,
            "files": {
                p.name: {"bytes": p.stat().st_size, "blake2b": _file_digest(p)}
                for p in (op_path, f_path)
            },
            "created_at": time.time(),
        }
        atomic_write_bytes(
            self._manifest_path(entry.fingerprint),
            json.dumps(manifest, indent=1).encode(),
        )

    def _quarantine_entry(self, fp: str) -> None:
        op_path, f_path = self._paths(fp)
        moved = 0
        for p in (op_path, f_path, self._manifest_path(fp)):
            if p.exists():
                quarantine(p)
                moved += 1
        if moved:
            self._count("disk_corrupt")

    def _load_from_disk(self, fp: str) -> CacheEntry | None:
        if self.directory is None:
            return None
        op_path, f_path = self._paths(fp)
        if not (op_path.exists() and f_path.exists()):
            return None
        try:
            # load_tlr re-verifies every tile against its embedded
            # BLAKE2b checksum, so bit rot raises instead of loading.
            entry = CacheEntry(
                fingerprint=fp,
                operator=load_tlr(op_path),
                factor=load_tlr(f_path),
            )
        except _DISK_CORRUPTION_ERRORS:
            # Torn, truncated, or rotten entry: quarantine it and fall
            # through to a clean rebuild — never serve what we cannot
            # verify, never crash the server over a bad disk file.
            self._quarantine_entry(fp)
            return None
        self._count("disk_hits")
        return entry

    def recover(self) -> dict[str, int]:
        """Startup scan of the persistence directory.

        Deletes stray atomic-write temp files (a crash mid-rename),
        validates every *sealed* entry (manifest present) against the
        manifest's sizes and digests, and quarantines entries that
        fail — a truncated payload, a missing file, a flipped bit, an
        unreadable manifest.  Unsealed payload pairs (legacy entries
        written before manifests existed) are left for lazy validation
        at reload time via their embedded tile checksums.

        Returns ``{"checked": ..., "quarantined": ..., "tmp_removed": ...}``.
        """
        if self.directory is None:
            return {"checked": 0, "quarantined": 0, "tmp_removed": 0}
        tmp_removed = 0
        for tmp in self.directory.glob(".*.tmp"):
            tmp.unlink(missing_ok=True)
            tmp_removed += 1
        checked = quarantined = 0
        for manifest_path in sorted(self.directory.glob("*.manifest.json")):
            checked += 1
            fp = manifest_path.name[: -len(".manifest.json")]
            try:
                manifest = json.loads(manifest_path.read_text())
                if manifest.get("version") != _MANIFEST_VERSION:
                    raise ValueError("unsupported manifest version")
                files = manifest["files"]
                if not files:
                    raise ValueError("manifest lists no files")
                for name, meta in files.items():
                    p = self.directory / name
                    if p.stat().st_size != int(meta["bytes"]):
                        raise ValueError(f"{name}: size mismatch")
                    if _file_digest(p) != meta["blake2b"]:
                        raise ValueError(f"{name}: digest mismatch")
            except _DISK_CORRUPTION_ERRORS:
                self._quarantine_entry(fp)
                quarantined += 1
        return {
            "checked": checked,
            "quarantined": quarantined,
            "tmp_removed": tmp_removed,
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
            if self._manifest_path(entry.fingerprint).exists():
                continue
            self._persist(entry)
            sealed += 1
        return sealed

    def disk_fingerprints(self) -> list[str]:
        """Fingerprints sealed on disk (manifest present), sorted.

        The fleet's warm-handoff inventory: a respawned shard pointed
        at this directory serves exactly these operators from disk
        instead of rebuilding.  Fleet shards share one directory, so
        an entry sealed by any shard warms every future failover.
        """
        if self.directory is None:
            return []
        suffix = ".manifest.json"
        return sorted(
            p.name[: -len(suffix)]
            for p in self.directory.glob(f"*{suffix}")
        )

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
