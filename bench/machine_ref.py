"""Machine reference routine and normalised timing.

On a small shared VM the same code's wall time drifts by tens of
percent on a 5-10 s timescale (host contention: ``process_time``
tracks wall time).  Every timed unit of the benchmark is therefore
bracketed by a fixed numpy-only reference routine with the same
resource mix as the tile kernels (dense Cholesky, thin SVDs, and many
small QR + GEMM calls issued from a Python loop), and reported as

    t_norm = t_raw * REF_NOMINAL_S / mean(ref_before, ref_after)

i.e. in seconds of a nominal machine on which the reference takes
``REF_NOMINAL_S`` (``workloads.Samples`` keeps the timeline of
reference samples and does the division).  This module imports nothing
from ``repro``.
"""

from __future__ import annotations

import time

import numpy as np

#: seconds the reference routine takes on the nominal machine; fixed
#: forever so normalised numbers from different dates stay comparable
REF_NOMINAL_S = 0.045

_rng = np.random.default_rng(20220530)
_SPD = _rng.standard_normal((500, 500))
_SPD = _SPD @ _SPD.T + 500.0 * np.eye(500)
_THIN = [_rng.standard_normal((200, 60)) for _ in range(4)]
_PANEL = _rng.standard_normal((200, 24))
_SMALL = _rng.standard_normal((24, 24))


def reference() -> float:
    """Run the reference routine once; returns its wall seconds."""
    t0 = time.perf_counter()
    np.linalg.cholesky(_SPD)
    for thin in _THIN:
        np.linalg.svd(thin, full_matrices=False)
    acc = _SMALL
    for _ in range(400):
        q, r = np.linalg.qr(_PANEL)
        acc = r @ _SMALL
    # consume the result so nothing above is dead code
    if not np.isfinite(acc[0, 0] + q[0, 0]):
        raise FloatingPointError("reference routine produced non-finite data")
    return time.perf_counter() - t0
