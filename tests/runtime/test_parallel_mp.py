"""Shared-memory process-pool engine: equivalence, faults, resume.

The contract under test is the one the threaded engine already meets —
bitwise-identical factors vs the serial engine at any worker count,
retry/rollback, deterministic fault injection, checkpoint capture and
resume — now with kernels running in forked worker processes against
arena-backed tile views.
"""

import os

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from repro.core.tlr_cholesky import tlr_cholesky
from repro.core.tlr_lu import tlr_lu
from repro.geometry import virus_population
from repro.kernels.matgen import RBFMatrixGenerator
from repro.linalg.general_matrix import GeneralTLRMatrix
from repro.linalg.integrity import tile_checksum
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.engine import ExecutionEngine
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    InjectedCrashError,
    RetryPolicy,
    TaskFailedError,
)
from repro.runtime.parallel import engine_for, resolve_engine
from repro.runtime.parallel_mp import MultiprocessExecutionEngine

TILE = 75
ACCURACY = 1e-6
WORKER_COUNTS = (2, 4, 8)


def _generator(seed):
    pts = virus_population(2, points_per_virus=150, cube_edge=1.7, seed=seed)
    min_spacing = pdist(pts).min()
    return RBFMatrixGenerator(
        points=pts,
        shape_parameter=0.5 * min_spacing * 40,
        tile_size=TILE,
        nugget=1e-4,
    )


def _operator(seed):
    gen = _generator(seed)
    return TLRMatrix.compress(gen.tile, gen.n, TILE, ACCURACY, max_rank=40)


def _general_operator(seed):
    gen = _generator(seed)
    return GeneralTLRMatrix.compress(
        gen.tile, gen.n, TILE, ACCURACY, max_rank=40
    )


def _big_operator(seed=3):
    """Denser workload (80 tasks incl. 26 GEMMs) for fault/checkpoint
    tests — the small 2-virus operators trim down to a handful of
    tasks, too few to hit injection rates or checkpoint cadences."""
    pts = virus_population(4, points_per_virus=200, cube_edge=1.7, seed=seed)
    min_spacing = pdist(pts).min()
    gen = RBFMatrixGenerator(
        points=pts,
        shape_parameter=0.5 * min_spacing * 40,
        tile_size=80,
        nugget=1e-4,
    )
    return TLRMatrix.compress(gen.tile, gen.n, 80, ACCURACY, max_rank=40)


def _checksums(a):
    return {key: tile_checksum(tile) for key, tile in a}


def assert_factor_bitwise_equal(a, b):
    ca, cb = _checksums(a), _checksums(b)
    assert ca.keys() == cb.keys()
    diff = [k for k in ca if ca[k] != cb[k]]
    assert not diff, f"factors differ at tiles {sorted(diff)[:8]}"


def _no_leaked_segments(before):
    return set(os.listdir("/dev/shm")) - before


class TestEngineSelection:
    def test_resolve_engine_aliases(self):
        assert resolve_engine("mp") == "mp"
        assert resolve_engine("process") == "mp"
        assert resolve_engine("THREADS") == "threads"
        assert resolve_engine("serial") == "serial"

    def test_resolve_engine_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "mp")
        assert resolve_engine(None) == "mp"
        monkeypatch.delenv("REPRO_ENGINE")
        assert resolve_engine(None) == "threads"

    def test_resolve_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_engine("gpu")

    def test_engine_for_mp(self):
        eng = engine_for(4, engine="mp")
        assert isinstance(eng, MultiprocessExecutionEngine)
        assert eng.workers == 4

    def test_engine_for_single_worker_stays_serial(self):
        eng = engine_for(1, engine="mp")
        assert type(eng) is ExecutionEngine

    def test_engine_for_serial_override(self):
        eng = engine_for(8, engine="serial")
        assert type(eng) is ExecutionEngine

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            MultiprocessExecutionEngine(workers=0)
        with pytest.raises(ValueError):
            MultiprocessExecutionEngine(workers=2, stall_timeout=-1.0)


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_cholesky_matches_serial(self, seed, workers):
        shm_before = set(os.listdir("/dev/shm"))
        a_serial = _operator(seed)
        a_mp = _operator(seed)
        tlr_cholesky(a_serial, workers=1)
        result = tlr_cholesky(a_mp, workers=workers, engine="mp")
        assert_factor_bitwise_equal(a_serial, a_mp)
        assert len(result.trace.events) == len(result.graph)
        assert not _no_leaked_segments(shm_before)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_lu_matches_serial(self, seed, workers):
        a_serial = _general_operator(seed)
        a_mp = _general_operator(seed)
        tlr_lu(a_serial, workers=1)
        tlr_lu(a_mp, workers=workers, engine="mp")
        assert_factor_bitwise_equal(a_serial, a_mp)

    def test_untrimmed_dag(self):
        a_serial, a_mp = _operator(5), _operator(5)
        tlr_cholesky(a_serial, trim=False, workers=1)
        tlr_cholesky(a_mp, trim=False, workers=4, engine="mp")
        assert_factor_bitwise_equal(a_serial, a_mp)

    def test_trace_has_per_process_lanes(self):
        a = _operator(0)
        result = tlr_cholesky(a, workers=4, engine="mp")
        pids = {e.pid for e in result.trace.events}
        assert all(pid > 0 for pid in pids)
        assert 1 < len(pids) <= 4
        chrome = result.trace.to_chrome_trace(label_worker_lanes=True)
        assert f'"pid": {next(iter(pids))}' in chrome


class TestFaults:
    def test_transient_faults_retry_to_bitwise_identical(self):
        a_clean, a_faulty = _big_operator(), _big_operator()
        tlr_cholesky(a_clean, workers=1)
        injector = FaultInjector(FaultPlan.parse("GEMM:0.1", seed=5))
        result = tlr_cholesky(
            a_faulty,
            workers=4,
            engine="mp",
            fault_injector=injector,
            retry=RetryPolicy(max_retries=5, backoff_seconds=0.0),
        )
        assert injector.counters.get("total", 0) > 0, "plan injected nothing"
        assert result.retries > 0
        assert_factor_bitwise_equal(a_clean, a_faulty)

    def test_corrupt_writes_roll_back_and_heal(self):
        a_clean, a_faulty = _big_operator(), _big_operator()
        tlr_cholesky(a_clean, workers=1)
        injector = FaultInjector(FaultPlan.parse("TRSM:corrupt:0.15", seed=3))
        tlr_cholesky(
            a_faulty,
            workers=4,
            engine="mp",
            fault_injector=injector,
            retry=RetryPolicy(max_retries=5, backoff_seconds=0.0),
        )
        assert injector.counters.get("corrupt", 0) > 0
        assert_factor_bitwise_equal(a_clean, a_faulty)

    def test_no_retry_fails_fast_and_cleans_up(self):
        shm_before = set(os.listdir("/dev/shm"))
        a = _big_operator()
        injector = FaultInjector(FaultPlan.parse("GEMM:0.5", seed=1))
        with pytest.raises(TaskFailedError) as err:
            tlr_cholesky(a, workers=4, engine="mp", fault_injector=injector)
        assert err.value.attempts == 1
        assert not _no_leaked_segments(shm_before)

    def test_soft_crash_propagates(self):
        shm_before = set(os.listdir("/dev/shm"))
        a = _big_operator()
        injector = FaultInjector(FaultPlan.parse("TRSM:crash:0.5", seed=1))
        with pytest.raises(InjectedCrashError):
            tlr_cholesky(a, workers=4, engine="mp", fault_injector=injector)
        assert not _no_leaked_segments(shm_before)

    def test_fault_counters_mirror_to_coordinator(self):
        a = _big_operator()
        injector = FaultInjector(
            FaultPlan.parse("GEMM:delay:0.2", seed=2, delay_seconds=0.001)
        )
        tlr_cholesky(a, workers=2, engine="mp", fault_injector=injector)
        assert injector.counters.get("delay", 0) > 0


class TestCheckpointAndVerify:
    def test_checkpoint_capture_and_resume(self, tmp_path):
        a_ref = _big_operator()
        tlr_cholesky(a_ref, workers=1)

        a_ckpt = _big_operator()
        result = tlr_cholesky(
            a_ckpt,
            workers=4,
            engine="mp",
            checkpoint=CheckpointManager(tmp_path, every_tasks=10),
        )
        assert result.checkpoints_written > 0
        assert_factor_bitwise_equal(a_ref, a_ckpt)

        # A pristine operator resumed from the final frontier skips all
        # completed tasks and still lands on the identical factor.
        a_res = _big_operator()
        resumed = tlr_cholesky(
            a_res, workers=4, engine="mp", resume_from=tmp_path
        )
        assert resumed.resumed_tasks > 0
        assert_factor_bitwise_equal(a_ref, a_res)

    def test_bitflips_never_served_silently(self, tmp_path):
        """The SDC acceptance criterion under the arena: every injected
        at-rest flip is healed (bitwise-identical factor), detected
        (loud TileCorruptionError failure), or evaporates unserved —
        a flip no kernel consumes stays in the engine-internal arena
        and never reaches the caller's matrix.  What can never happen
        is a completed run returning corrupted bytes."""
        from repro.runtime.faults import TileCorruptionError

        a_ref = _big_operator()
        tlr_cholesky(a_ref, workers=1)
        ref_sums = _checksums(a_ref)

        flips = 0
        for seed in range(4):
            a = _big_operator()
            injector = FaultInjector(
                FaultPlan.parse("all:bitflip:0.05", seed=seed)
            )
            try:
                tlr_cholesky(
                    a,
                    workers=4,
                    engine="mp",
                    fault_injector=injector,
                    verify_tiles=True,
                    retry=RetryPolicy(max_retries=3, backoff_seconds=0.0),
                    checkpoint=CheckpointManager(
                        tmp_path / f"seed-{seed}", every_tasks=8
                    ),
                )
            except TaskFailedError as exc:
                assert isinstance(exc.cause, TileCorruptionError)
                flips += injector.counters.get("bitflip", 0)
                continue
            except TileCorruptionError:
                flips += injector.counters.get("bitflip", 0)
                continue
            flips += injector.counters.get("bitflip", 0)
            cur = _checksums(a)
            assert cur == ref_sums, f"seed {seed}: silent corruption served"
        assert flips > 0, "sweep injected nothing"

    def test_verify_tiles_clean_run(self):
        a_ref, a_ver = _operator(0), _operator(0)
        tlr_cholesky(a_ref, workers=1)
        tlr_cholesky(a_ver, workers=4, engine="mp", verify_tiles=True)
        assert_factor_bitwise_equal(a_ref, a_ver)

    def test_shift_report_mirrors_from_workers(self):
        from repro.linalg.kernels_dense import DiagonalShiftPolicy

        n, bs = 150, 50
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        vals = np.linspace(-1e-8, 1.0, n)
        dense = (q * vals) @ q.T
        dense = (dense + dense.T) / 2

        def tile(i, j):
            return dense[i * bs : (i + 1) * bs, j * bs : (j + 1) * bs]

        a_ser = TLRMatrix.compress(tile, n, bs, 1e-10)
        a_mp = TLRMatrix.compress(tile, n, bs, 1e-10)
        r_ser = tlr_cholesky(a_ser, workers=1, shift_policy=DiagonalShiftPolicy())
        r_mp = tlr_cholesky(
            a_mp, workers=2, engine="mp", shift_policy=DiagonalShiftPolicy()
        )
        assert r_ser.diagonal_shifts, "operator never needed a shift"
        assert r_mp.diagonal_shifts == r_ser.diagonal_shifts
