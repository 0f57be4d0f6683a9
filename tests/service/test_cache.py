"""Tests for the byte-budgeted, disk-persistent operator cache."""

import errno
import os
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.core.solver import solve_cholesky
from repro.linalg.integrity import matrix_checksums
from repro.service import OperatorCache

from .conftest import disable_null_certificate


class TestLookup:
    def test_miss_then_hit(self, small_spec):
        cache = OperatorCache()
        entry1 = cache.get_or_build(small_spec)
        assert (cache.misses, cache.builds, cache.hits) == (1, 1, 0)
        entry2 = cache.get_or_build(small_spec)
        assert entry2 is entry1
        assert (cache.misses, cache.builds, cache.hits) == (1, 1, 1)

    def test_acquire_outcomes(self, small_spec):
        cache = OperatorCache()
        _, outcome = cache.acquire(small_spec)
        assert outcome == "build"
        _, outcome = cache.acquire(small_spec)
        assert outcome == "hit"

    def test_distinct_fingerprints_distinct_entries(self, small_spec, other_spec):
        cache = OperatorCache()
        e1 = cache.get_or_build(small_spec)
        e2 = cache.get_or_build(other_spec)
        assert e1.fingerprint != e2.fingerprint
        assert len(cache) == 2

    def test_logdet_memoized(self, small_spec):
        from repro.core.solver import logdet

        cache = OperatorCache()
        entry = cache.get_or_build(small_spec)
        assert entry.logdet() == pytest.approx(logdet(entry.factor))
        assert entry.logdet() == entry.logdet()


class TestEviction:
    def test_byte_budget_evicts_lru(self, small_spec, other_spec):
        probe = OperatorCache()
        nbytes = probe.get_or_build(small_spec).nbytes
        # budget fits one entry but not two
        cache = OperatorCache(byte_budget=int(1.5 * nbytes))
        cache.get_or_build(small_spec)
        cache.get_or_build(other_spec)
        assert len(cache) == 1
        assert cache.evictions == 1
        assert small_spec not in cache and other_spec in cache
        # the evicted operator rebuilds on demand
        cache.get_or_build(small_spec)
        assert cache.builds == 3

    def test_single_entry_larger_than_budget_still_serves(self, small_spec):
        cache = OperatorCache(byte_budget=1)  # absurdly small
        entry = cache.get_or_build(small_spec)
        assert entry is not None
        assert len(cache) == 1  # most-recent entry is never evicted

    def test_lru_order_refreshed_by_hits(self, small_spec, other_spec):
        probe = OperatorCache()
        nbytes = probe.get_or_build(small_spec).nbytes
        cache = OperatorCache(byte_budget=int(2.5 * nbytes))
        cache.get_or_build(small_spec)
        cache.get_or_build(other_spec)
        cache.get_or_build(small_spec)  # refresh small_spec to MRU
        # third distinct operator forces one eviction: other_spec goes
        third = probe.get_or_build(small_spec)  # just to reuse nbytes
        del third
        from repro.geometry import random_cloud
        from repro.service import OperatorSpec

        spec3 = OperatorSpec(
            points=random_cloud(180, seed=13),
            shape_parameter=0.05,
            tile_size=60,
            accuracy=1e-6,
            nugget=1e-3,
        )
        cache.get_or_build(spec3)
        assert small_spec in cache
        assert other_spec not in cache

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            OperatorCache(byte_budget=0)


class TestDiskPersistence:
    def test_reload_skips_build(self, small_spec, tmp_path, rhs):
        first = OperatorCache(directory=tmp_path)
        x_mem = solve_cholesky(first.get_or_build(small_spec).factor, rhs)

        second = OperatorCache(directory=tmp_path)
        entry, outcome = second.acquire(small_spec)
        assert outcome == "disk"
        assert second.builds == 0 and second.disk_hits == 1
        # a solve runs on panels it packs itself, so the reloaded factor
        # answers bit for bit like the resident one
        x_disk = solve_cholesky(entry.factor, rhs)
        assert np.array_equal(x_mem, x_disk)

    def test_entry_written_without_null_certificate_still_serves(
        self, sparse_spec, tmp_path, monkeypatch
    ):
        """A disk entry from before the null certificate (every tile
        generated and decomposed) is the entry today's build writes."""
        with monkeypatch.context() as before:
            disable_null_certificate(before)
            old = OperatorCache(directory=tmp_path).get_or_build(sparse_spec)
            stats = old.operator.compression_stats
            assert stats.bound_null == stats.screened_null == 0
        cache = OperatorCache(directory=tmp_path)
        entry, outcome = cache.acquire(sparse_spec)
        assert outcome == "disk" and cache.builds == 0
        fresh = sparse_spec.build()
        assert fresh.operator.compression_stats.bound_null > 0
        assert matrix_checksums(entry.factor) == matrix_checksums(fresh.factor)
        assert matrix_checksums(entry.operator) == matrix_checksums(fresh.operator)
        rhs = np.random.default_rng(5).standard_normal(sparse_spec.n)
        assert np.array_equal(
            solve_cholesky(entry.factor, rhs), solve_cholesky(fresh.factor, rhs)
        )

    def test_eviction_leaves_disk_copy(self, small_spec, other_spec, tmp_path):
        probe = OperatorCache()
        nbytes = probe.get_or_build(small_spec).nbytes
        cache = OperatorCache(byte_budget=int(1.5 * nbytes), directory=tmp_path)
        cache.get_or_build(small_spec)
        cache.get_or_build(other_spec)
        assert cache.evictions == 1
        # the evicted entry comes back from disk, not a rebuild
        _, outcome = cache.acquire(small_spec)
        assert outcome == "disk"
        assert cache.builds == 2

    def test_clear_keeps_disk(self, small_spec, tmp_path):
        cache = OperatorCache(directory=tmp_path)
        cache.get_or_build(small_spec)
        cache.clear()
        assert len(cache) == 0
        _, outcome = cache.acquire(small_spec)
        assert outcome == "disk"


class TestStats:
    def test_stats_keys(self, small_spec):
        cache = OperatorCache()
        cache.get_or_build(small_spec)
        stats = cache.stats()
        assert {
            "hits",
            "disk_hits",
            "misses",
            "builds",
            "evictions",
            "entries",
            "resident_bytes",
        } <= set(stats)
        assert stats["resident_bytes"] == cache.resident_bytes > 0


class _CheapSpec:
    """A stand-in spec whose build costs ``delay`` seconds and counts
    itself: the cache reads only ``fingerprint`` and ``build``."""

    def __init__(self, fingerprint: str, delay: float = 0.0) -> None:
        self.fingerprint, self.delay, self.builds = fingerprint, delay, 0

    def build(self, workers=None):
        self.builds += 1
        time.sleep(self.delay)
        tiles = types.SimpleNamespace(memory_bytes=lambda: 64)
        return types.SimpleNamespace(operator=tiles, factor=tiles)


class TestBuildLocks:
    def test_lock_map_stays_bounded(self):
        """A lock lives only while a build for its fingerprint runs or
        waits: 100 distinct operators leave none behind."""
        cache = OperatorCache(byte_budget=64 * 2 * 10)
        for i in range(100):
            cache.acquire(_CheapSpec(f"fp{i}"))
        assert cache._build_locks == {}
        assert len(cache) == 10 and cache.resident_bytes == 64 * 2 * 10

    def test_concurrent_cold_requests_pay_one_build(self):
        """Single flight under a short switch interval, more threads
        than cores: each operator is built once, however the cold
        requests interleave with the lock's drop."""
        cache = OperatorCache()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(5):
                spec = _CheapSpec(f"herd{round_}", delay=0.01)
                outcomes = []
                barrier = threading.Barrier(8)

                def cold(spec=spec, barrier=barrier, outcomes=outcomes):
                    barrier.wait()
                    outcomes.append(cache.acquire(spec)[1])

                threads = [threading.Thread(target=cold) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert spec.builds == 1
                assert sorted(outcomes) == ["build"] + ["hit"] * 7
                assert cache._build_locks == {}
        finally:
            sys.setswitchinterval(old)


class TestWriteThrough:
    def test_failed_write_serves_the_build_from_memory(
        self, small_spec, rhs, tmp_path, monkeypatch
    ):
        """A full disk fails the write-through, not the request: one
        build, served from memory and counted; no file and no temp file
        left; the breaker is not charged and nothing is retried."""
        from repro.linalg import serialization
        from repro.service import SolveService
        from repro.service.breaker import CircuitBreaker

        real = serialization.atomic_write_via

        def full_disk(path, writer):
            def write_then_fail(f):
                writer(f)
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            return real(path, write_then_fail)

        monkeypatch.setattr(serialization, "atomic_write_via", full_disk)
        cache = OperatorCache(directory=tmp_path)
        breaker = CircuitBreaker(failure_threshold=1)
        with SolveService(cache=cache, workers=1, breaker=breaker) as svc:
            x = svc.submit_solve(small_spec, rhs).result(60.0)
            counters = svc.metrics.to_dict()["counters"]
        assert np.all(np.isfinite(x))
        assert counters["cache_builds"] == 1
        assert counters["cache_disk_write_failed"] == 1
        assert counters.get("build_retries", 0) == 0
        assert breaker.state(small_spec.fingerprint) == "closed"
        assert cache.stats()["disk_write_failed"] == 1
        assert list(tmp_path.iterdir()) == []
