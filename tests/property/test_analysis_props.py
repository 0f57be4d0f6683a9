"""Property-based tests for Algorithm 1 (symbolic analysis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import analyze_ranks
from repro.core.rank_model import analyze_mask_fast
from tests.dag_refs import ptg_task_counts


@st.composite
def rank_patterns(draw):
    nt = draw(st.integers(2, 14))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    r = np.zeros((nt, nt), dtype=np.int64)
    for k in range(nt):
        r[k, k] = 10
        for m in range(k + 1, nt):
            if rng.random() < density:
                r[m, k] = rng.integers(1, 50)
    return nt, r


class TestAnalysisProperties:
    @given(pattern=rank_patterns())
    @settings(max_examples=80, deadline=None)
    def test_fast_equals_reference(self, pattern):
        nt, r = pattern
        ref = analyze_ranks(r, nt)
        fast = analyze_mask_fast(r > 0)
        assert np.array_equal(fast["final_mask"], ref.final_nonzero)
        assert int(fast["nnz_col"].sum()) == ptg_task_counts(ref)["TRSM"]
        assert int(fast["n_gemm_col"].sum()) == ptg_task_counts(ref)["GEMM"]

    @given(pattern=rank_patterns())
    @settings(max_examples=60, deadline=None)
    def test_monotone_fill(self, pattern):
        """final pattern is a superset of the initial pattern."""
        nt, r = pattern
        ana = analyze_ranks(r, nt)
        assert np.all(ana.final_nonzero | ~ana.initial_nonzero)
        assert ana.final_density() >= ana.initial_density()

    @given(pattern=rank_patterns())
    @settings(max_examples=60, deadline=None)
    def test_idempotent_on_final_pattern(self, pattern):
        """Re-analyzing the final pattern adds no new fill: the
        symbolic factorization is a closure."""
        nt, r = pattern
        ana = analyze_ranks(r, nt)
        again = analyze_ranks(ana.final_nonzero.astype(np.int64), nt)
        assert np.array_equal(again.final_nonzero, ana.final_nonzero)

    @given(pattern=rank_patterns())
    @settings(max_examples=60, deadline=None)
    def test_adding_tiles_never_removes_tasks(self, pattern):
        """Monotonicity: growing the input pattern grows the task set."""
        nt, r = pattern
        base = analyze_ranks(r, nt)
        r2 = r.copy()
        # add one extra tile in the lower triangle if possible
        added = False
        for k in range(nt):
            for m in range(k + 1, nt):
                if r2[m, k] == 0:
                    r2[m, k] = 1
                    added = True
                    break
            if added:
                break
        more = analyze_ranks(r2, nt)
        c0, c1 = ptg_task_counts(base), ptg_task_counts(more)
        for klass in c0:
            assert c1[klass] >= c0[klass]
        assert np.all(more.final_nonzero | ~base.final_nonzero)
