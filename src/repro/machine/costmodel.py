"""Task-duration and message-cost model.

Task durations follow a per-task roofline: a kernel with ``f`` flops
touching ``v`` bytes runs at ``min(gemm_rate, AI * mem_bandwidth)``
with arithmetic intensity ``AI = f / v``, plus the runtime's per-task
management overhead.  This automatically penalizes the skinny TLR
kernels (low AI) relative to dense tile kernels — the granularity
effect Section V highlights — without hand-tuned per-kernel
efficiencies.

Message costs are ``latency + bytes / bandwidth`` plus a per-message
runtime overhead; broadcasts use a binomial tree, so their cost grows
with ``log2`` of the participant count — which is why reducing the
column-broadcast participant set (band distribution, trimming) pays
off at scale (Section VII-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.linalg import flops as fl
from repro.machine.models import MachineModel

__all__ = ["CostModel"]

_ITEM = 8  # bytes per float64


@dataclass(frozen=True)
class CostModel:
    """Maps (kernel, tile size, ranks) to seconds, and bytes to seconds.

    GEMM is priced as the modelled HiCMA kernel of the paper's
    right-looking PTG, one update with its own QR+SVD rounding
    (``flops.gemm_tlr_flops``).
    """

    machine: MachineModel

    # ------------------------------------------------------------------
    # kernel timing
    # ------------------------------------------------------------------

    def _exec_seconds(
        self, flops: float, touched_bytes: float, efficiency: float = 1.0
    ) -> float:
        if flops <= 0.0:
            return self.machine.task_overhead
        m = self.machine
        ai = flops / max(touched_bytes, 1.0)
        rate = min(m.core_gemm_flops, ai * m.core_mem_bandwidth) * efficiency
        return m.task_overhead + flops / rate

    def kernel_seconds(self, flops: float) -> float:
        """Compute-bound floor estimate for one kernel of ``flops``.

        Used by the stall watchdog to scale its timeout: a kernel this
        model predicts will run for seconds must not be declared
        stalled on a timeout tuned for millisecond tiles.  The roofline
        memory term is deliberately ignored — it would only *lengthen*
        the estimate, and the watchdog already multiplies by a generous
        safety factor, so the flop term alone sets the scale.
        """
        m = self.machine
        rate = m.core_gemm_flops * m.tlr_kernel_efficiency
        return m.task_overhead + max(float(flops), 0.0) / rate

    def potrf_time(self, b: int) -> float:
        return self._exec_seconds(fl.potrf_flops(b), _ITEM * b * b)

    def trsm_time(self, b: int, rank: int) -> float:
        """rank 0 = null no-op; rank >= b = dense operand."""
        if rank <= 0:
            return self.machine.task_overhead
        if rank >= b:
            return self._exec_seconds(fl.trsm_dense_flops(b), _ITEM * 2 * b * b)
        return self._exec_seconds(
            fl.trsm_tlr_flops(b, rank),
            _ITEM * (b * b + 2 * b * rank),
            self.machine.tlr_kernel_efficiency,
        )

    def syrk_time(self, b: int, rank: int) -> float:
        if rank <= 0:
            return self.machine.task_overhead
        if rank >= b:
            return self._exec_seconds(fl.syrk_dense_flops(b), _ITEM * 2 * b * b)
        return self._exec_seconds(
            fl.syrk_tlr_flops(b, rank),
            _ITEM * (b * b + 2 * b * rank),
            self.machine.tlr_kernel_efficiency,
        )

    def gemm_time(self, b: int, ka: int, kb: int, kc: int) -> float:
        if ka <= 0 or kb <= 0:
            return self.machine.task_overhead
        if ka >= b and kb >= b:
            return self._exec_seconds(fl.gemm_dense_flops(b), _ITEM * 3 * b * b)
        kc = max(1, kc)
        touched = _ITEM * 2 * b * (ka + kb + 2 * kc)
        return self._exec_seconds(
            fl.gemm_tlr_flops(b, ka, kb, kc),
            touched,
            self.machine.tlr_kernel_efficiency,
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

    def tile_bytes(self, b: int, rank: int) -> float:
        """Wire size of a tile: dense ``b^2``, low-rank ``2 b k``,
        null tiles cost only a control header."""
        if rank <= 0:
            return 128.0  # dependency-release control message
        if rank >= b:
            return float(_ITEM * b * b)
        return float(_ITEM * 2 * b * rank)

    def transfer_time(self, nbytes: float) -> float:
        m = self.machine
        return m.message_overhead + m.network_latency + nbytes / m.network_bandwidth

    def broadcast_time(self, nbytes: float, n_dest: int) -> float:
        """Binomial-tree broadcast to ``n_dest`` remote participants."""
        if n_dest <= 0:
            return 0.0
        depth = math.ceil(math.log2(n_dest + 1))
        return depth * self.transfer_time(nbytes)

    # ------------------------------------------------------------------
    # vectorized helpers (analytic model)
    # ------------------------------------------------------------------

    def trsm_time_vec(self, b: int, ranks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`trsm_time` over a rank array."""
        ranks = np.asarray(ranks, dtype=np.float64)
        dense = ranks >= b
        f = np.where(dense, fl.trsm_dense_flops(b), b * b * np.maximum(ranks, 0.0))
        v = _ITEM * np.where(dense, 2.0 * b * b, b * b + 2.0 * b * ranks)
        return self._exec_seconds_vec(f, v, ranks > 0, dense)

    def syrk_time_vec(self, b: int, ranks: np.ndarray) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.float64)
        dense = ranks >= b
        f = np.where(
            dense,
            fl.syrk_dense_flops(b),
            4.0 * b * ranks**2 + 2.0 * b * b * ranks,
        )
        v = _ITEM * np.where(dense, 2.0 * b * b, b * b + 2.0 * b * ranks)
        return self._exec_seconds_vec(f, v, ranks > 0, dense)

    def gemm_time_vec(
        self, b: int, ka: np.ndarray, kb: np.ndarray, kc: np.ndarray
    ) -> np.ndarray:
        ka = np.asarray(ka, dtype=np.float64)
        kb = np.asarray(kb, dtype=np.float64)
        kc = np.maximum(np.asarray(kc, dtype=np.float64), 1.0)
        kp = np.minimum(ka, kb)
        big = kc + kp
        tlr_f = (
            4.0 * b * ka * kb
            + 4.0 * b * big**2
            + 22.0 * big**3
            + 4.0 * b * big * kc
        )
        dense = (ka >= b) & (kb >= b)
        f = np.where(dense, fl.gemm_dense_flops(b), tlr_f)
        v = _ITEM * np.where(dense, 3.0 * b * b, 2.0 * b * (ka + kb + 2.0 * kc))
        return self._exec_seconds_vec(f, v, (ka > 0) & (kb > 0), dense)

    def _exec_seconds_vec(
        self,
        flops: np.ndarray,
        touched: np.ndarray,
        active: np.ndarray,
        dense: np.ndarray,
    ) -> np.ndarray:
        m = self.machine
        ai = flops / np.maximum(touched, 1.0)
        rate = np.minimum(m.core_gemm_flops, ai * m.core_mem_bandwidth)
        rate = rate * np.where(dense, 1.0, m.tlr_kernel_efficiency)
        out = m.task_overhead + np.where(active, flops / np.maximum(rate, 1.0), 0.0)
        return out

    def tile_bytes_vec(self, b: int, ranks: np.ndarray) -> np.ndarray:
        ranks = np.asarray(ranks, dtype=np.float64)
        return np.where(
            ranks <= 0,
            128.0,
            np.where(ranks >= b, float(_ITEM * b * b), _ITEM * 2.0 * b * ranks),
        )
