"""Checkpoint/restart through the factorization driver.

The tentpole acceptance: a factorization killed mid-run and resumed
from its checkpoint directory produces a factor *bitwise identical* to
an uninterrupted run — serial and parallel, because resume replays
exactly the unfinished tasks against the restored frontier state.
"""

import threading

import numpy as np
import pytest

from repro.core.tlr_cholesky import tlr_cholesky
from repro.linalg.serialization import SUFFIX
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.checkpoint import CheckpointManager, load_checkpoint
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    InjectedCrashError,
)


def spd_tlr(n=128, tile=32, accuracy=1e-10, seed=3):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.linspace(1.0, 8.0, n)) @ q.T
    return TLRMatrix.from_dense((a + a.T) / 2, tile, accuracy=accuracy)


def dense_factor(result):
    return result.factor.to_dense(symmetrize=False)


@pytest.fixture(scope="module")
def clean():
    return dense_factor(tlr_cholesky(spd_tlr()))


class TestCrashAndResume:
    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", [None, 4], ids=["serial", "workers4"])
    def test_crash_then_resume_is_bitwise_identical(
        self, clean, tmp_path, workers
    ):
        injector = FaultInjector(FaultPlan.parse("GEMM:crash:0.6", seed=5))
        with pytest.raises(InjectedCrashError):
            tlr_cholesky(
                spd_tlr(),
                workers=workers,
                checkpoint=CheckpointManager(tmp_path, every_tasks=3),
                fault_injector=injector,
            )
        resumed = tlr_cholesky(
            spd_tlr(),  # pristine operator, rebuilt as the dead run built it
            workers=workers,
            resume_from=tmp_path,
        )
        assert resumed.resumed_tasks > 0
        assert np.array_equal(dense_factor(resumed), clean)

    @pytest.mark.timeout(120)
    def test_resume_executes_only_unfinished_tasks(self, tmp_path):
        injector = FaultInjector(FaultPlan.parse("SYRK:crash:1.0", seed=0))
        with pytest.raises(InjectedCrashError):
            tlr_cholesky(
                spd_tlr(),
                checkpoint=CheckpointManager(tmp_path, every_tasks=2),
                fault_injector=injector,
            )
        ck = load_checkpoint(tmp_path)
        resumed = tlr_cholesky(spd_tlr(), resume_from=tmp_path)
        total = len(resumed.graph)
        executed = len(resumed.trace.events)
        assert resumed.resumed_tasks == len(ck.completed)
        assert executed == total - resumed.resumed_tasks

    @pytest.mark.timeout(120)
    def test_resume_from_complete_checkpoint_runs_nothing(self, clean, tmp_path):
        """A run that finished (final cadence boundary on the last task)
        resumes to the full frontier: zero tasks replayed, factor intact."""
        # cadence 1: the final checkpoint covers every task
        tlr_cholesky(
            spd_tlr(), checkpoint=CheckpointManager(tmp_path, every_tasks=1)
        )
        resumed = tlr_cholesky(spd_tlr(), resume_from=tmp_path)
        assert resumed.resumed_tasks == len(resumed.graph)
        assert len(resumed.trace.events) == 0
        assert np.array_equal(dense_factor(resumed), clean)

    @pytest.mark.timeout(120)
    def test_resume_sizes_the_pool_by_what_is_left(
        self, clean, tmp_path, monkeypatch
    ):
        """One unfinished task starts one worker thread, not ``workers``."""
        tlr_cholesky(
            spd_tlr(),
            workers=1,  # serial whatever $REPRO_WORKERS says: one task per capture
            checkpoint=CheckpointManager(tmp_path, every_tasks=1),
        )
        # keep=2: the older surviving checkpoint is the frontier one short
        one_short = load_checkpoint(sorted(tmp_path.glob(f"ckpt-*{SUFFIX}"))[0])
        started = []

        class Recording(threading.Thread):
            def start(self):
                started.append(self.name)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recording)
        resumed = tlr_cholesky(spd_tlr(), workers=4, resume_from=one_short)
        assert len(resumed.trace.events) == 1
        assert [n for n in started if n.startswith("tlr-worker-")] == [
            "tlr-worker-0"
        ]
        assert np.array_equal(dense_factor(resumed), clean)

    def test_resume_from_empty_directory_is_a_fresh_run(self, clean, tmp_path):
        """Crash-before-first-checkpoint: nothing on disk, run from
        scratch instead of failing."""
        result = tlr_cholesky(spd_tlr(), resume_from=tmp_path / "nothing-here")
        assert result.resumed_tasks == 0
        assert np.array_equal(dense_factor(result), clean)

    @pytest.mark.timeout(120)
    def test_checkpoint_directory_accepted_directly(self, clean, tmp_path):
        """``checkpoint=`` takes a plain path, wrapping a default-cadence
        manager."""
        result = tlr_cholesky(spd_tlr(), checkpoint=tmp_path / "ck")
        assert np.array_equal(dense_factor(result), clean)
        assert (tmp_path / "ck").is_dir()

    @pytest.mark.timeout(120)
    def test_repeated_crashes_converge(self, clean, tmp_path):
        """Multiple kill/resume cycles still land on the identical
        factor — each resume extends the frontier monotonically."""
        seen = crashes = 0
        for seed in range(4):
            injector = FaultInjector(
                FaultPlan.parse("all:crash:0.15", seed=seed)
            )
            try:
                result = tlr_cholesky(
                    spd_tlr(),
                    checkpoint=CheckpointManager(tmp_path, every_tasks=2),
                    resume_from=tmp_path,
                    fault_injector=injector,
                )
            except InjectedCrashError:
                crashes += 1
                ck = load_checkpoint(tmp_path)
                if ck is not None:
                    assert len(ck.completed) >= seen
                    seen = len(ck.completed)
                continue
            break
        else:
            # every seed crashed: finish cleanly from the last frontier
            result = tlr_cholesky(spd_tlr(), resume_from=tmp_path)
        assert crashes > 0, "the crash plan killed no run"
        assert np.array_equal(dense_factor(result), clean)

    @pytest.mark.timeout(120)
    def test_wall_clock_cadence_writes_checkpoints(self, tmp_path):
        mgr = CheckpointManager(
            tmp_path, every_tasks=None, every_seconds=1e-6
        )
        result = tlr_cholesky(spd_tlr(), checkpoint=mgr)
        assert result.checkpoints_written > 0

    @pytest.mark.timeout(120)
    def test_verify_tiles_with_checkpoint_and_resume(self, clean, tmp_path):
        injector = FaultInjector(FaultPlan.parse("TRSM:crash:0.8", seed=9))
        with pytest.raises(InjectedCrashError):
            tlr_cholesky(
                spd_tlr(),
                checkpoint=CheckpointManager(tmp_path, every_tasks=2),
                fault_injector=injector,
                verify_tiles=True,
            )
        resumed = tlr_cholesky(
            spd_tlr(), resume_from=tmp_path, verify_tiles=True
        )
        assert np.array_equal(dense_factor(resumed), clean)
