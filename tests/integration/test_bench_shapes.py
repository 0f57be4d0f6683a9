"""The four benchmark operators (``bench/workloads.py``) through the
driver: the executed left-looking graph has exactly the task counts the
benchmark's layer pass reports as ``runtime.dag.tasks`` — Algorithm 1
is deterministic and the seed's rigid motion preserves every rank — and
the factor passes the benchmark's own residual gate."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import solve_cholesky, tlr_cholesky

BENCH = Path(__file__).resolve().parents[2] / "bench"

#: workload -> tasks executed (the untrimmed graph has NT^2: one
#: POTRF per column, one TRSM per tile, one update per tile outside
#: column 0; ``dense_factor`` has nothing to trim)
EXPECTED = {
    "sparse_tts": 84,
    "dense_factor": 12 * 12,
    "fine_engines": 378,
    "serve_mixed": 64,
}


@pytest.fixture(scope="module")
def workloads():
    if not (BENCH / "workloads.py").is_file():
        pytest.skip("bench/ is not part of this checkout")
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.timeout(300)
@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_executed_task_counts(workloads, name):
    spec = workloads.make_spec(workloads.WORKLOADS[name].operator, seed=1)
    pristine = workloads.compress_operator(spec)
    res = tlr_cholesky(pristine.copy(), engine="serial")
    assert len(res.graph) == len(res.trace.events) == EXPECTED[name]
    assert len(res.graph) <= pristine.n_tiles**2
    rhs = np.random.default_rng(0).standard_normal(spec.n)
    x = solve_cholesky(res.factor, rhs)
    assert workloads.relative_residual(pristine, x, rhs) <= workloads.RESIDUAL_GATE
