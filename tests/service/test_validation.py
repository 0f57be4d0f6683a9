"""Edge validation: malformed right-hand sides are rejected
synchronously — before enqueue — so a NaN never poisons a coalesced
batch and a shape bug surfaces at the call site, not in a worker."""

import numpy as np
import pytest

from repro.service import RequestFailedError, SolveService


@pytest.fixture()
def svc():
    with SolveService(workers=1, start=False) as s:
        yield s


class TestSolveValidation:
    def test_nan_rhs_rejected(self, svc, small_spec):
        bad = np.ones(small_spec.n)
        bad[3] = np.nan
        with pytest.raises(RequestFailedError, match="non-finite"):
            svc.submit_solve(small_spec, bad)

    def test_inf_rhs_rejected_with_count(self, svc, small_spec):
        bad = np.ones(small_spec.n)
        bad[0] = np.inf
        bad[5] = -np.inf
        with pytest.raises(RequestFailedError, match="2 non-finite"):
            svc.submit_solve(small_spec, bad)

    def test_wrong_length_rejected(self, svc, small_spec):
        with pytest.raises(RequestFailedError, match="rows"):
            svc.submit_solve(small_spec, np.ones(small_spec.n + 1))

    def test_wrong_rank_rejected(self, svc, small_spec):
        with pytest.raises(RequestFailedError, match="1-D or 2-D"):
            svc.submit_solve(
                small_spec, np.ones((small_spec.n, 2, 2))
            )

    def test_empty_rhs_rejected(self, svc, small_spec):
        with pytest.raises(RequestFailedError, match="empty"):
            svc.submit_solve(small_spec, np.empty((small_spec.n, 0)))

    def test_unconvertible_dtype_rejected(self, svc, small_spec):
        with pytest.raises(RequestFailedError, match="not convertible"):
            svc.submit_solve(small_spec, ["not", "a", "vector"])

    def test_complex_rhs_rejected(self, svc, small_spec):
        # a cast to fp64 would keep the real part with only a warning
        for rhs in (np.ones(small_spec.n) + 1j, [1j] * small_spec.n):
            with pytest.raises(RequestFailedError, match="complex dtype complex128"):
                svc.submit_solve(small_spec, rhs)
        assert svc.inflight == 0

    def test_rejection_never_enqueues(self, svc, small_spec):
        with pytest.raises(RequestFailedError):
            svc.submit_solve(small_spec, np.full(small_spec.n, np.nan))
        assert svc.inflight == 0
        counters = svc.metrics.to_dict()["counters"]
        assert "submitted" not in counters

    def test_valid_multicolumn_rhs_accepted(self, svc, small_spec):
        h = svc.submit_solve(small_spec, np.ones((small_spec.n, 3)))
        assert not h.done()
        assert svc.inflight == 1

    def test_list_rhs_is_converted(self, svc, small_spec):
        h = svc.submit_solve(small_spec, [1.0] * small_spec.n)
        assert h.kind == "solve"
        assert svc.inflight == 1


class TestDeformationValidation:
    def test_wrong_column_count_rejected(self, svc, small_spec):
        with pytest.raises(RequestFailedError, match=r"\(n, 3\)"):
            svc.submit_deformation(
                small_spec, np.ones((small_spec.n, 2))
            )

    def test_unconvertible_displacements_rejected(self, svc, small_spec):
        with pytest.raises(RequestFailedError, match="not convertible"):
            svc.submit_deformation(small_spec, [["x", "y", "z"]])

    def test_complex_displacements_rejected(self, svc, small_spec):
        d_b = np.ones((small_spec.n, 3), dtype=np.complex64)
        with pytest.raises(RequestFailedError, match="complex dtype complex64"):
            svc.submit_deformation(small_spec, d_b)
        assert svc.inflight == 0

    def test_nan_displacements_rejected(self, svc, small_spec):
        bad = np.ones((small_spec.n, 3))
        bad[1, 2] = np.nan
        with pytest.raises(RequestFailedError, match="non-finite"):
            svc.submit_deformation(small_spec, bad)


class TestTimeoutValidation:
    """A deadline that can never expire is refused at the call site:
    NaN compares False with everything, so ``Request.expired`` would
    never be true for it, and an infinite one is ``None`` spelled
    wrong."""

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_timeout_rejected(self, svc, small_spec, timeout):
        with pytest.raises(ValueError, match="finite and positive"):
            svc.submit_solve(small_spec, np.ones(small_spec.n), timeout=timeout)
        with pytest.raises(ValueError, match="finite and positive"):
            svc.submit_logdet(small_spec, timeout=timeout)
        with pytest.raises(ValueError, match="finite and positive"):
            svc.submit_deformation(small_spec, np.ones((small_spec.n, 3)), timeout=timeout)
        assert svc.inflight == 0
