"""Fault-tolerant factorization: the ISSUE's acceptance criteria.

A factorization under injected transient faults (10% on every kernel
class) must complete with a factor *bitwise identical* to a fault-free
run, serial and with 4 workers; with retries disabled the same plan
must fail fast with a :class:`TaskFailedError` naming the task.  The
numerical degradation ladder (escalating POTRF diagonal shift,
recompression falling back to dense) keeps borderline operators
factorizable instead of aborting.
"""

import numpy as np
import pytest

from repro.core.tlr_cholesky import tlr_cholesky
from repro.linalg.kernels_dense import DiagonalShiftPolicy, potrf_with_shift
from repro.linalg.kernels_tlr import gemm_update
from repro.linalg.lowrank import LowRankFactor
from repro.linalg.tile import DenseTile, LowRankTile, NullTile
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    TaskFailedError,
)


def spd_tlr(n=128, tile=32, accuracy=1e-10, seed=3):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.linspace(1.0, 8.0, n)) @ q.T
    return TLRMatrix.from_dense((a + a.T) / 2, tile, accuracy=accuracy)


class TestFaultTolerantFactorization:
    @pytest.fixture(scope="class")
    def clean_factor(self):
        r = tlr_cholesky(spd_tlr(), trim=True)
        return r.factor.to_dense(symmetrize=False)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", [None, 4], ids=["serial", "workers4"])
    def test_ten_percent_transient_rate_is_bitwise_invisible(
        self, clean_factor, workers
    ):
        """The headline acceptance: 10% transient faults on every kernel
        class, factor bitwise identical to the fault-free run."""
        injector = FaultInjector(FaultPlan.parse("all:0.1", seed=42))
        r = tlr_cholesky(
            spd_tlr(),
            trim=True,
            workers=workers,
            fault_injector=injector,
            retry=RetryPolicy(max_retries=8),
        )
        assert injector.counters["total"] > 0, "plan injected nothing"
        assert r.retries == injector.counters["transient"]
        assert np.array_equal(
            r.factor.to_dense(symmetrize=False), clean_factor
        )

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("workers", [None, 4], ids=["serial", "workers4"])
    def test_corrupted_writes_are_rolled_back(self, clean_factor, workers):
        """Corrupt faults NaN an output tile *after* the kernel ran;
        rollback + retry must still land on the bitwise factor."""
        injector = FaultInjector(FaultPlan.parse("all:corrupt:0.15", seed=3))
        r = tlr_cholesky(
            spd_tlr(),
            trim=True,
            workers=workers,
            fault_injector=injector,
            retry=RetryPolicy(max_retries=8),
        )
        assert injector.counters["corrupt"] > 0
        factor = r.factor.to_dense(symmetrize=False)
        assert not np.isnan(factor).any()
        assert np.array_equal(factor, clean_factor)

    @pytest.mark.timeout(120)
    def test_retries_disabled_raises_task_failed_naming_task(self):
        injector = FaultInjector(FaultPlan.parse("POTRF:1.0"))
        with pytest.raises(TaskFailedError) as err:
            tlr_cholesky(spd_tlr(), trim=True, fault_injector=injector)
        e = err.value
        assert e.klass == "POTRF"
        assert e.attempts == 1
        assert "POTRF(0)" in str(e)

    @pytest.mark.timeout(120)
    def test_mixed_plan_with_delays_completes(self, clean_factor):
        plan = FaultPlan.parse(
            "GEMM:0.2,TRSM:delay:0.3,SYRK:corrupt:0.2", seed=5
        )
        injector = FaultInjector(plan)
        r = tlr_cholesky(
            spd_tlr(),
            trim=True,
            workers=4,
            fault_injector=injector,
            retry=RetryPolicy(max_retries=8),
        )
        for kind in ("transient", "delay", "corrupt"):
            assert injector.counters[kind] > 0, f"plan injected no {kind}"
        assert np.array_equal(
            r.factor.to_dense(symmetrize=False), clean_factor
        )


def borderline_spd_tlr(n=96, tile=32):
    """A barely-indefinite operator: a handful of eigenvalues sit just
    below zero (compression error in a real pipeline does this), so
    strict POTRF must fail somewhere in the sweep while a small
    diagonal shift restores factorability."""
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.linspace(0.5, 2.0, n)
    eig[:3] = -1e-9
    a = (q * eig) @ q.T
    return TLRMatrix.from_dense((a + a.T) / 2, tile, accuracy=1e-12)


class TestDiagonalShiftDegradation:
    def test_potrf_with_shift_passthrough_on_spd(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8))
        a = m @ m.T + 8 * np.eye(8)
        l, shift = potrf_with_shift(a, DiagonalShiftPolicy())
        assert shift == 0.0
        assert np.allclose(l @ l.T, a)

    def test_potrf_with_shift_regularizes_indefinite(self):
        a = np.diag([1.0, 1.0, -1e-10])
        policy = DiagonalShiftPolicy(
            max_attempts=5, initial_relative=1e-12, growth=10.0
        )
        l, shift = potrf_with_shift(a, policy)
        assert shift > 0.0
        assert np.allclose(l @ l.T, a + shift * np.eye(3), atol=1e-12)

    def test_potrf_with_shift_exhausts(self):
        a = np.diag([1.0, -100.0])  # too indefinite for tiny shifts
        policy = DiagonalShiftPolicy(
            max_attempts=2, initial_relative=1e-12, growth=2.0
        )
        with pytest.raises(np.linalg.LinAlgError, match="diagonal shifts"):
            potrf_with_shift(a, policy)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            DiagonalShiftPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="growth"):
            DiagonalShiftPolicy(growth=0.5)
        with pytest.raises(ValueError, match="initial_relative"):
            DiagonalShiftPolicy(initial_relative=0.0)

    @pytest.mark.timeout(120)
    def test_factorization_degrades_instead_of_aborting(self):
        with pytest.raises(np.linalg.LinAlgError):
            tlr_cholesky(borderline_spd_tlr(), trim=True)
        policy = DiagonalShiftPolicy(max_attempts=8, growth=100.0)
        r = tlr_cholesky(borderline_spd_tlr(), trim=True, shift_policy=policy)
        assert r.diagonal_shifts, "expected at least one reported shift"
        assert all(s > 0 for s in r.diagonal_shifts.values())
        threaded = tlr_cholesky(
            borderline_spd_tlr(), trim=True, workers=2, shift_policy=policy
        )
        assert threaded.diagonal_shifts == r.diagonal_shifts
        factor = r.factor.to_dense(symmetrize=False)
        assert np.isfinite(factor).all()


class TestRecompressionFallback:
    @staticmethod
    def _lr(seed, rank=3, n=16):
        r = np.random.default_rng(seed)
        return LowRankTile(
            LowRankFactor(r.standard_normal((n, rank)), r.standard_normal((n, rank)))
        )

    def test_gemm_recompress_failure_holds_tile_dense(self, monkeypatch):
        """SVD non-convergence in the one rounding of an accumulated
        update must degrade to a dense tile with exact arithmetic, not
        abort the factorization."""
        import repro.linalg.lowrank as lowrank

        real = lowrank._GESDD

        def broken_gesdd(*args, **kwargs):
            return (*real(*args, **kwargs)[:-1], 1)  # info > 0: no convergence

        monkeypatch.setattr(lowrank, "_GESDD", broken_gesdd)
        c = self._lr(1)
        pairs = [(self._lr(2), self._lr(3)), (self._lr(4), self._lr(5))]
        expected = c.to_dense() - sum(a.to_dense() @ b.to_dense().T for a, b in pairs)
        out = gemm_update(c, pairs, tol=1e-8)
        assert isinstance(out, DenseTile)
        assert np.allclose(out.to_dense(), expected, atol=1e-12)

    @pytest.mark.parametrize("handle", ["_GESDD", "_GEQRF", "_ORGQR"])
    def test_converged_rounding_lapack_failure_holds_tile_dense(
        self, monkeypatch, handle
    ):
        """A rounding that converges runs the panel QR and the core SVD
        through cached LAPACK handles; ``info > 0`` from either degrades
        to a dense tile with exact arithmetic (the 16x16 case above only
        reaches the ladder through the crossover fallback)."""
        import repro.linalg.lowrank as lowrank

        c = self._lr(1, n=64)
        pairs = [(self._lr(2, n=64), self._lr(3, n=64))]
        expected = c.to_dense() - pairs[0][0].to_dense() @ pairs[0][1].to_dense().T
        assert gemm_update(c, pairs, tol=1e-8).rank == 6  # converges

        real, calls = getattr(lowrank, handle), []

        def failing(*args, **kwargs):
            calls.append(handle)
            return (*real(*args, **kwargs)[:-1], 1)

        monkeypatch.setattr(lowrank, handle, failing)
        out = gemm_update(c, pairs, tol=1e-8)
        assert calls
        assert isinstance(out, DenseTile)
        assert np.allclose(out.to_dense(), expected, atol=1e-12)

    def test_compress_failure_holds_tile_dense(self, monkeypatch):
        """The same ladder when the rounding entry point itself raises,
        on the fill-in path (null target)."""
        import repro.linalg.kernels_tlr as ktlr

        def broken_compress(dense, tol, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(ktlr, "compress_block", broken_compress)
        a, b = self._lr(2), self._lr(3)
        out = ktlr.gemm_tile(NullTile((16, 16)), a, b, tol=1e-8)
        assert isinstance(out, DenseTile)
        assert np.allclose(out.to_dense(), -a.to_dense() @ b.to_dense().T, atol=1e-12)
