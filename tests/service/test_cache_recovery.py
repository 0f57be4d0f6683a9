"""Crash-safe cache persistence: sealing, recovery, quarantine.

The disk tier of :class:`~repro.service.cache.OperatorCache` must never
turn a torn or rotten file into a served answer.  An entry is one
sealed tile file, written atomically; startup ``recover()`` verifies
every entry and quarantines failures; a reload that still blows up
falls through to a rebuild and bumps ``disk_corrupt``.
"""

import numpy as np
import pytest

from repro.linalg.serialization import SUFFIX, read
from repro.service import CorruptResultError, OperatorCache, SolveService
from tests.tilefile import layout, write_npz

TIMEOUT = 60.0


def _entry_file(cache, spec):
    return cache.directory / f"{spec.fingerprint}{SUFFIX}"


def _rewrite(path, offset: int, cut: int = 0, data: bytes = b""):
    """Replace ``cut`` bytes of ``path`` at ``offset`` by ``data`` (no
    re-sealing)."""
    raw = path.read_bytes()
    path.write_bytes(raw[:offset] + data + raw[offset + cut:])


class TestSealing:
    def test_persist_writes_manifest_with_digests(self, small_spec, tmp_path):
        """One file per entry: its metadata names the fingerprint, and
        it carries a digest per tile of both groups."""
        cache = OperatorCache(directory=tmp_path)
        cache.get_or_build(small_spec)
        entry = _entry_file(cache, small_spec)
        assert sorted(tmp_path.iterdir()) == [entry]
        sealed = read(entry)
        assert sealed.meta["fingerprint"] == small_spec.fingerprint
        assert set(sealed.checksums) == {"operator", "factor"}
        for digests in sealed.checksums.values():
            assert all(len(d) == 32 for d in digests.values())  # 128-bit hex

    def test_no_stray_temp_files_after_persist(self, small_spec, tmp_path):
        cache = OperatorCache(directory=tmp_path)
        cache.get_or_build(small_spec)
        assert not list(tmp_path.glob(".*.tmp"))


class TestStartupRecovery:
    def test_clean_directory_recovers_clean(self, small_spec, tmp_path):
        OperatorCache(directory=tmp_path).get_or_build(small_spec)
        report = OperatorCache(directory=tmp_path).recover()
        assert report["checked"] >= 1
        assert report["quarantined"] == 0

    def test_stray_temp_files_removed(self, small_spec, tmp_path):
        (tmp_path / ".abc123.tmp").write_bytes(b"half a write")
        cache = OperatorCache(directory=tmp_path)
        assert not (tmp_path / ".abc123.tmp").exists()

    def test_torn_payload_quarantined_at_startup(self, small_spec, tmp_path):
        first = OperatorCache(directory=tmp_path)
        first.get_or_build(small_spec)
        fac = _entry_file(first, small_spec)
        fac.write_bytes(fac.read_bytes()[:200])  # torn write
        second = OperatorCache(directory=tmp_path)
        assert second.disk_corrupt == 1
        assert not fac.exists()
        assert (tmp_path / (fac.name + ".corrupt")).exists()
        # the poisoned entry rebuilds instead of loading
        _, outcome = second.acquire(small_spec)
        assert outcome == "build"

    def test_flipped_bit_quarantined_at_startup(self, small_spec, tmp_path):
        first = OperatorCache(directory=tmp_path)
        first.get_or_build(small_spec)
        fac = _entry_file(first, small_spec)
        raw = bytearray(fac.read_bytes())
        payloads = layout(fac)["payloads"]
        at, length = payloads[len(payloads) // 2]
        raw[at + length // 2] ^= 0x04  # same size, different content
        fac.write_bytes(bytes(raw))
        second = OperatorCache(directory=tmp_path)
        assert second.disk_corrupt == 1
        _, outcome = second.acquire(small_spec)
        assert outcome == "build"

    def test_missing_payload_under_manifest_quarantined(
        self, small_spec, tmp_path
    ):
        first = OperatorCache(directory=tmp_path)
        first.get_or_build(small_spec)
        entry = _entry_file(first, small_spec)

        _rewrite(entry, *layout(entry)["payloads"][-1])  # drop a payload
        second = OperatorCache(directory=tmp_path)
        assert second.disk_corrupt == 1

    def test_unreadable_manifest_quarantined(self, small_spec, tmp_path):
        first = OperatorCache(directory=tmp_path)
        first.get_or_build(small_spec)
        man = _entry_file(first, small_spec)

        at, length = layout(man)["index"]
        _rewrite(man, at, length, b"{definitely not json".ljust(length))
        second = OperatorCache(directory=tmp_path)
        assert second.disk_corrupt == 1
        assert (tmp_path / (man.name + ".corrupt")).exists()

    def test_format_5_entry_is_quarantined_and_rebuilt(self, small_spec, tmp_path):
        """A format-5 entry, ``{fp}.npz`` or renamed to ``{fp}.tlr``, is
        never read as an entry: quarantined at startup, then rebuilt and
        written in format 6."""
        fp = small_spec.fingerprint
        meta = np.frombuffer(f'{{"fingerprint": "{fp}"}}'.encode(), np.uint8)
        for name in (f"{fp}.npz", f"{fp}{SUFFIX}"):
            write_npz(tmp_path / name, meta=meta)
        cache = OperatorCache(directory=tmp_path)
        assert cache.disk_corrupt == 1  # the one read, refused by its version
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{fp}.npz.corrupt", f"{fp}{SUFFIX}.corrupt"
        ]
        _, outcome = cache.acquire(small_spec)
        assert outcome == "build"
        assert read(tmp_path / f"{fp}{SUFFIX}").meta["fingerprint"] == fp

    def test_healthy_entry_survives_recovery_and_loads(
        self, small_spec, tmp_path
    ):
        OperatorCache(directory=tmp_path).get_or_build(small_spec)
        second = OperatorCache(directory=tmp_path)
        _, outcome = second.acquire(small_spec)
        assert outcome == "disk"
        assert second.disk_corrupt == 0


class TestLazyQuarantine:
    def test_unsealed_corrupt_entry_rebuilds_on_acquire(
        self, small_spec, tmp_path
    ):
        """Corruption after the startup scan: the per-tile checksums
        still catch it at reload and the acquire falls through to a
        rebuild."""
        first = OperatorCache(directory=tmp_path)
        first.get_or_build(small_spec)
        fac = _entry_file(first, small_spec)
        second = OperatorCache(directory=tmp_path)
        assert second.disk_corrupt == 0  # startup saw a healthy entry

        at, _ = layout(fac)["payloads"][0]  # a tile payload
        value = np.frombuffer(fac.read_bytes(), "<f8", 1, at)[0]
        # the digests are kept stale on purpose
        _rewrite(fac, at, 8, np.nextafter(value, np.inf).tobytes())
        entry, outcome = second.acquire(small_spec)
        assert outcome == "build"
        assert second.disk_corrupt == 1
        assert (tmp_path / (fac.name + ".corrupt")).exists()
        # the rebuilt entry is healthy
        assert np.all(np.isfinite(entry.factor.to_dense()))

    def test_table_bit_flip_rebuilds_on_acquire(self, small_spec, tmp_path):
        """A flip in the tile table after the startup scan breaks the
        seal: the reader refuses the file like any other corruption —
        quarantined, counted, rebuilt."""
        OperatorCache(directory=tmp_path).get_or_build(small_spec)
        second = OperatorCache(directory=tmp_path)
        entry = _entry_file(second, small_spec)
        raw = bytearray(entry.read_bytes())
        raw[layout(entry)["table"][0] + 9] ^= 1 << 6
        entry.write_bytes(bytes(raw))
        _, outcome = second.acquire(small_spec)
        assert outcome == "build"
        assert second.disk_corrupt == 1
        assert (tmp_path / (entry.name + ".corrupt")).exists()

    def test_foreign_npz_files_are_not_entries(self, small_spec, tmp_path):
        """Only ``{fingerprint}.tlr`` is an entry: a file of another
        layout (here ``{fp}.factor.npz`` or ``{fp}.factor.tlr``) is
        neither read nor counted."""
        strays = [tmp_path / f"{small_spec.fingerprint}.factor{suffix}"
                  for suffix in (".npz", SUFFIX)]
        for stray in strays:
            stray.write_bytes(b"not a sealed file")
        cache = OperatorCache(directory=tmp_path)
        assert cache.recover()["checked"] == 0 and cache.disk_corrupt == 0
        assert cache.disk_fingerprints() == []
        _, outcome = cache.acquire(small_spec)
        assert outcome == "build" and all(stray.exists() for stray in strays)

    def test_invalidate_drops_memory_and_disk(self, small_spec, tmp_path):
        cache = OperatorCache(directory=tmp_path)
        cache.get_or_build(small_spec)
        assert small_spec in cache
        cache.invalidate(small_spec.fingerprint)
        assert small_spec not in cache
        assert not _entry_file(cache, small_spec).exists()
        _, outcome = cache.acquire(small_spec)
        assert outcome == "build"

    def test_disk_corrupt_counter_in_stats(self, small_spec, tmp_path):
        cache = OperatorCache(directory=tmp_path)
        cache.get_or_build(small_spec)
        assert "disk_corrupt" in cache.stats()
        assert cache.stats()["disk_corrupt"] == 0


class TestNeverServeCorrupt:
    def _poisoned_cache(self, spec):
        """A cache whose resident factor for ``spec`` contains NaN."""
        from repro.linalg.tile import DenseTile

        cache = OperatorCache()
        entry = cache.get_or_build(spec)
        bad = entry.factor.tile(0, 0).to_dense().copy()
        bad[0, 0] = np.nan
        entry.factor.set_tile(0, 0, DenseTile(bad))
        return cache

    def test_nan_solve_raises_corrupt_result(self, small_spec, rhs):
        cache = self._poisoned_cache(small_spec)
        with SolveService(cache=cache, workers=1) as svc:
            handle = svc.submit_solve(small_spec, rhs)
            with pytest.raises(CorruptResultError):
                handle.result(TIMEOUT)
        # the poisoned entry was dropped, not kept for the next victim
        assert small_spec not in cache
        assert svc.metrics.to_dict()["counters"].get("corrupt_results", 0) == 1

    def test_nan_logdet_raises_corrupt_result(self, small_spec):
        cache = self._poisoned_cache(small_spec)
        with SolveService(cache=cache, workers=1) as svc:
            with pytest.raises(CorruptResultError):
                svc.submit_logdet(small_spec).result(TIMEOUT)
        assert small_spec not in cache

    def test_rebuild_after_condemnation_serves_clean(self, small_spec, rhs):
        from repro.core.solver import solve_cholesky

        reference = solve_cholesky(
            OperatorCache().get_or_build(small_spec).factor, rhs
        )
        cache = self._poisoned_cache(small_spec)
        with SolveService(cache=cache, workers=1) as svc:
            with pytest.raises(CorruptResultError):
                svc.submit_solve(small_spec, rhs).result(TIMEOUT)
            x = svc.submit_solve(small_spec, rhs).result(TIMEOUT)
        assert np.allclose(x, reference, rtol=1e-12, atol=1e-12)
