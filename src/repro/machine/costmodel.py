"""Task-duration and message-cost model: the one place that turns
(kernel, tile size, ranks) or bytes into seconds.

Task durations follow a per-task roofline: a kernel with ``f`` flops
touching ``v`` bytes runs at ``min(gemm_rate, AI * mem_bandwidth)``
with arithmetic intensity ``AI = f / v``, plus the runtime's per-task
management overhead.  This automatically penalizes the skinny TLR
kernels (low AI) relative to dense tile kernels — the granularity
effect Section V highlights — without hand-tuned per-kernel
efficiencies.  Flop counts come from :mod:`repro.linalg.flops`; every
pricing method takes a scalar rank or an array of ranks and returns
the same shape, so the simulator and the analytic model price through
the same formulas and only compose the results.

Message costs are ``latency + bytes / bandwidth`` plus a per-message
runtime overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg import flops as fl
from repro.machine.models import MachineModel

__all__ = ["CostModel", "NESTED_EFFICIENCY", "NESTED_THRESHOLD_S"]

_ITEM = 8  # bytes per float64

#: Efficiency of a kernel run with nested parallelism over all the
#: node's cores (HiCMA-PaRSEC inherits this from Cao et al. [10]).
NESTED_EFFICIENCY = 0.75
#: Single-core seconds above which any kernel, low-rank too, runs
#: nested; dense tile kernels always do.
NESTED_THRESHOLD_S = 0.01


def _shaped(x):
    """A Python scalar for a scalar result, the array otherwise."""
    return x.item() if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class CostModel:
    """Maps (kernel, tile size, ranks) to seconds, and bytes to seconds.

    GEMM is priced as the modelled HiCMA kernel of the paper's
    right-looking PTG, one update with its own QR+SVD rounding
    (``flops.gemm_tlr_flops``).  Ranks: 0 = null (the kernel is a
    no-op costing only the task overhead), ``>= b`` = dense operand.
    """

    machine: MachineModel

    # ------------------------------------------------------------------
    # kernel timing
    # ------------------------------------------------------------------

    def _exec_seconds(self, flops, touched, active=True, dense=True):
        """Roofline seconds; low-rank (not ``dense``) kernels run at
        ``tlr_kernel_efficiency``, inactive (null) ones cost only the
        task overhead."""
        m = self.machine
        ai = flops / np.maximum(touched, 1.0)
        rate = np.minimum(m.core_gemm_flops, ai * m.core_mem_bandwidth)
        rate = rate * np.where(dense, 1.0, m.tlr_kernel_efficiency)
        run = np.where(active, flops / np.maximum(rate, 1.0), 0.0)
        return _shaped(m.task_overhead + run)

    def potrf_time(self, b: int) -> float:
        return self._exec_seconds(fl.potrf_flops(b), _ITEM * b * b)

    def _panel_time(self, b: int, r: np.ndarray, dense_flops: float, tlr_flops):
        """TRSM/SYRK on one panel tile of rank ``r``: both read the
        ``b x b`` diagonal factor and the tile."""
        dense = r >= b
        return self._exec_seconds(
            np.where(dense, dense_flops, tlr_flops),
            _ITEM * np.where(dense, 2.0 * b * b, b * b + 2.0 * b * r),
            r > 0,
            dense,
        )

    def trsm_time(self, b: int, rank):
        r = np.asarray(rank, dtype=np.float64)
        return self._panel_time(b, r, fl.trsm_dense_flops(b), fl.trsm_tlr_flops(b, r))

    def syrk_time(self, b: int, rank):
        r = np.asarray(rank, dtype=np.float64)
        return self._panel_time(b, r, fl.syrk_dense_flops(b), fl.syrk_tlr_flops(b, r))

    def gemm_time(self, b: int, ka, kb, kc):
        ka = np.asarray(ka, dtype=np.float64)
        kb = np.asarray(kb, dtype=np.float64)
        kc = np.maximum(np.asarray(kc, dtype=np.float64), 1.0)
        dense = (ka >= b) & (kb >= b)
        return self._exec_seconds(
            np.where(dense, fl.gemm_dense_flops(b), fl.gemm_tlr_flops(b, ka, kb, kc)),
            _ITEM * np.where(dense, 3.0 * b * b, 2.0 * b * (ka + kb + 2.0 * kc)),
            (ka > 0) & (kb > 0),
            dense,
        )

    @property
    def nested_speed(self) -> float:
        """Speed-up of a kernel run nested over the node's cores."""
        return max(1.0, self.machine.cores_per_node * NESTED_EFFICIENCY)

    def node_time(self, klass: str, b: int, *ranks):
        """Seconds on the node, and cores held, of ``klass`` tasks.

        ``ranks`` are the priced operands' ranks (scalars or arrays):
        none for POTRF, the panel tile's for TRSM/SYRK, ``ka, kb, kc``
        for GEMM.  Dense tile kernels (POTRF; TRSM/SYRK/GEMM whose
        operands are all dense) and any kernel above
        :data:`NESTED_THRESHOLD_S` on one core run over all the node's
        cores at :data:`NESTED_EFFICIENCY` — HiCMA-PaRSEC's nested
        parallelism; the rest hold one core.
        """
        price = {
            "POTRF": self.potrf_time,
            "TRSM": self.trsm_time,
            "SYRK": self.syrk_time,
            "GEMM": self.gemm_time,
        }
        if klass not in price:
            raise ValueError(f"unknown task class {klass!r}")
        seconds = price[klass](b, *ranks)
        # the product operands (not GEMM's target kc); POTRF has none
        dense = np.logical_and.reduce([np.greater_equal(r, b) for r in ranks[:2]])
        nested = dense | (np.asarray(seconds) > NESTED_THRESHOLD_S)
        cores = self.machine.cores_per_node
        return (
            _shaped(np.where(nested, seconds / self.nested_speed, seconds)),
            _shaped(np.where(nested, cores, 1)),
        )

    def compression_time(self, b: int, rank: int | None = None) -> float:
        """Compression of one dense tile (Fig. 11's dominant part):
        rank-revealing QR to ``rank`` when given, full SVD otherwise."""
        return self._exec_seconds(
            fl.compression_flops(b, rank), _ITEM * 3 * b * b
        )

    def generation_time(self, b: int) -> float:
        """Dense generation of one RBF tile: ~c flops per entry,
        memory-bound (exp + distance per entry)."""
        return self._exec_seconds(20.0 * b * b, _ITEM * 2 * b * b)

    # ------------------------------------------------------------------
    # message timing
    # ------------------------------------------------------------------

    def tile_bytes(self, b: int, rank):
        """Wire size of a tile: dense ``b^2``, low-rank ``2 b k``,
        null tiles cost only a control header."""
        r = np.asarray(rank, dtype=np.float64)
        sized = np.where(r >= b, float(_ITEM * b * b), _ITEM * 2.0 * b * r)
        # 128 B: the dependency-release control message of a null tile
        return _shaped(np.where(r <= 0, 128.0, sized))

    def transfer_time(self, nbytes: float) -> float:
        m = self.machine
        return m.message_overhead + m.network_latency + nbytes / m.network_bandwidth
