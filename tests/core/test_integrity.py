"""Silent-data-corruption defense: detect every bitflip, serve none.

The ``bitflip`` fault kind silently flips one mantissa bit of a tile
another task will read — the corruption ABFT-style checksums exist to
catch.  The contract: with verification off the factor is silently
wrong (the hazard is real); with verification on the run either heals
(checkpoint manager holding a clean reference) and lands bitwise
identical, or fails loudly — *never* a silent wrong answer.
"""

import numpy as np
import pytest

from repro.core.tlr_cholesky import tlr_cholesky
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    TaskFailedError,
    TileCorruptionError,
)


def spd_tlr(n=128, tile=32, accuracy=1e-10, seed=3):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.linspace(1.0, 8.0, n)) @ q.T
    return TLRMatrix.from_dense((a + a.T) / 2, tile, accuracy=accuracy)


@pytest.fixture(scope="module")
def clean():
    return tlr_cholesky(spd_tlr()).factor.to_dense(symmetrize=False)


PLAN = "all:bitflip:0.15"


class TestBitflipDefense:
    def test_without_verification_the_factor_is_silently_wrong(self, clean):
        """The hazard this subsystem exists for: unverified bitflips
        flow straight into the factor."""
        injector = FaultInjector(FaultPlan.parse(PLAN, seed=1))
        result = tlr_cholesky(spd_tlr(), fault_injector=injector)
        assert injector.counters.get("bitflip", 0) > 0
        assert not np.array_equal(
            result.factor.to_dense(symmetrize=False), clean
        )

    def test_verification_detects_and_fails_loudly(self):
        """No heal source (no checkpoint manager): detection must fail
        loudly, not return a wrong answer.  A flip read by a later
        task surfaces as TaskFailedError wrapping TileCorruptionError;
        a flip on a tile nothing re-reads is caught by the end-of-run
        sweep as a bare TileCorruptionError."""
        injector = FaultInjector(FaultPlan.parse(PLAN, seed=1))
        with pytest.raises((TaskFailedError, TileCorruptionError)) as exc_info:
            tlr_cholesky(
                spd_tlr(),
                fault_injector=injector,
                verify_tiles=True,
                retry=RetryPolicy(max_retries=2, backoff_seconds=0.0),
            )
        if isinstance(exc_info.value, TaskFailedError):
            assert isinstance(exc_info.value.cause, TileCorruptionError)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", [None, 4], ids=["serial", "workers4"])
    def test_checkpoint_manager_heals_to_bitwise_identical(
        self, clean, tmp_path, workers
    ):
        """With a manager holding last-known-good references, every
        corrupted read is healed in place and the run lands bitwise
        identical to the fault-free factor."""
        injector = FaultInjector(FaultPlan.parse(PLAN, seed=1))
        result = tlr_cholesky(
            spd_tlr(),
            workers=workers,
            fault_injector=injector,
            verify_tiles=True,
            retry=RetryPolicy(max_retries=3, backoff_seconds=0.0),
            checkpoint=CheckpointManager(tmp_path, every_tasks=4),
        )
        assert injector.counters.get("bitflip", 0) > 0
        assert result.tiles_healed > 0
        assert np.array_equal(
            result.factor.to_dense(symmetrize=False), clean
        )

    @pytest.mark.timeout(300)
    def test_seed_sweep_zero_silent_wrong_answers(self, clean, tmp_path):
        """Acceptance criterion: across a seed sweep, every injected
        corruption is either healed (identical factor) or detected
        (loud failure) — never served silently."""
        self._seed_sweep(clean, tmp_path, workers=None)

    @pytest.mark.timeout(300)
    def test_seed_sweep_zero_silent_wrong_answers_threads(self, clean, tmp_path):
        """The same sweep with flips landing under concurrent readers."""
        self._seed_sweep(clean, tmp_path, workers=4)

    @staticmethod
    def _seed_sweep(clean, tmp_path, workers):
        injected = 0
        for seed in range(8):
            injector = FaultInjector(
                FaultPlan.parse("all:bitflip:0.1", seed=seed)
            )
            ckdir = tmp_path / f"seed-{seed}"
            try:
                result = tlr_cholesky(
                    spd_tlr(),
                    workers=workers,
                    fault_injector=injector,
                    verify_tiles=True,
                    retry=RetryPolicy(max_retries=3, backoff_seconds=0.0),
                    checkpoint=CheckpointManager(ckdir, every_tasks=4),
                )
            except TaskFailedError as exc:
                assert isinstance(exc.cause, TileCorruptionError)
                injected += injector.counters.get("bitflip", 0)
                continue
            except TileCorruptionError:
                # caught by the end-of-run sweep: loud, not silent
                injected += injector.counters.get("bitflip", 0)
                continue
            injected += injector.counters.get("bitflip", 0)
            # completed runs must be bitwise clean
            assert np.array_equal(
                result.factor.to_dense(symmetrize=False), clean
            ), f"seed {seed}: silent corruption served"
        assert injected > 0, "sweep injected nothing; rates too low"

    def test_bitflip_counters_are_deterministic(self):
        runs = []
        for _ in range(2):
            injector = FaultInjector(FaultPlan.parse(PLAN, seed=7))
            tlr_cholesky(spd_tlr(), fault_injector=injector)
            runs.append(dict(injector.counters))
        assert runs[0] == runs[1]


class TestVerifyTilesEnv:
    def test_env_flag_enables_verification(self, clean, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_TILES", "1")
        injector = FaultInjector(FaultPlan.parse(PLAN, seed=1))
        with pytest.raises((TaskFailedError, TileCorruptionError)):
            tlr_cholesky(
                spd_tlr(),
                fault_injector=injector,
                retry=RetryPolicy(max_retries=1, backoff_seconds=0.0),
            )

    def test_explicit_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_TILES", "1")
        injector = FaultInjector(FaultPlan.parse(PLAN, seed=1))
        result = tlr_cholesky(
            spd_tlr(), fault_injector=injector, verify_tiles=False
        )
        assert result is not None  # ran to completion, unverified
