"""Hardware models of the paper's two evaluation platforms.

Section VIII-A:

* **Shaheen II** — Cray XC40; 2 x 16-core Intel Haswell @ 2.3 GHz and
  128 GB DDR4 per node; Aries interconnect.
* **Fugaku** — 48-core Fujitsu A64FX @ 2.2 GHz with 32 GB HBM2 per
  node; Tofu-D interconnect.

Rates are *effective* double-precision rates for large dense GEMM
(peak x a realistic efficiency), not vendor peaks; what matters for
the reproduced figures is the ratio between compute, memory and
network speeds, which these numbers preserve.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineModel", "SHAHEEN_II", "FUGAKU"]


@dataclass(frozen=True)
class MachineModel:
    """Per-node hardware description used by the cost model."""

    name: str
    #: cores per node (one MPI process per node, PaRSEC threads inside)
    cores_per_node: int
    #: effective dense-GEMM rate per core [flop/s]
    core_gemm_flops: float
    #: per-core sustained memory bandwidth [byte/s] — bounds the rate
    #: of low-arithmetic-intensity TLR kernels via a roofline
    core_mem_bandwidth: float
    #: network injection bandwidth per node [byte/s]
    network_bandwidth: float
    #: point-to-point network latency [s]
    network_latency: float
    #: runtime (PaRSEC) per-task management overhead [s]
    task_overhead: float
    #: per-message runtime/communication-engine overhead [s]
    message_overhead: float
    #: PTG execution-space predicate evaluation [s/index]: every
    #: process enumerates the task index space during discovery and
    #: successor iteration, REGARDLESS of how many processes share the
    #: work — the per-process cost DAG trimming removes (Section VI)
    predicate_overhead: float = 1.0e-7
    #: efficiency of low-rank kernels relative to the roofline: TLR
    #: TRSM/SYRK/GEMM are dominated by skinny QR/SVD and small-core
    #: GEMMs that run far below dgemm rates (the low arithmetic
    #: intensity Section V highlights; HiCMA reports similar ratios)
    tlr_kernel_efficiency: float = 0.30


#: Cray XC40: Haswell 2.3 GHz, 16 DP flops/cycle -> 36.8 Gflop/s peak
#: per core; ~80% dgemm efficiency. DDR4: ~120 GB/s per node.
#: Aries: ~8 GB/s injection, ~1.5 us latency.
SHAHEEN_II = MachineModel(
    name="Shaheen II",
    cores_per_node=32,
    core_gemm_flops=29.0e9,
    core_mem_bandwidth=120.0e9 / 32,
    network_bandwidth=8.0e9,
    network_latency=1.5e-6,
    task_overhead=4.0e-6,
    message_overhead=1.0e-6,
)

#: A64FX: 2.2 GHz, SVE 512-bit -> 70.4 Gflop/s peak per core; ~75%
#: dgemm efficiency. HBM2: 1 TB/s per node. Tofu-D: ~6.8 GB/s
#: injection, ~1 us latency. More, slower cores than Shaheen; much
#: higher memory bandwidth (TLR kernels run relatively faster, dense
#: kernels relatively slower per core).
FUGAKU = MachineModel(
    name="Fugaku",
    cores_per_node=48,
    core_gemm_flops=52.0e9,
    core_mem_bandwidth=1.0e12 / 48,
    network_bandwidth=6.8e9,
    network_latency=1.0e-6,
    task_overhead=5.0e-6,
    message_overhead=1.2e-6,
)
