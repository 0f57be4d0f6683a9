"""Tests for machine models and the kernel/message cost model."""

import numpy as np
import pytest

from repro.machine.costmodel import CostModel
from repro.machine.models import FUGAKU, SHAHEEN_II


@pytest.fixture(params=[SHAHEEN_II, FUGAKU], ids=lambda m: m.name)
def cm(request):
    return CostModel(request.param)


class TestMachineModels:
    def test_paper_core_counts(self):
        assert SHAHEEN_II.cores_per_node == 32  # 2 x 16-core Haswell
        assert FUGAKU.cores_per_node == 48  # A64FX

    def test_fugaku_memory_bandwidth_advantage(self):
        """HBM2 vs DDR4: Fugaku's per-core bandwidth is much higher."""
        assert FUGAKU.core_mem_bandwidth > 3 * SHAHEEN_II.core_mem_bandwidth


class TestKernelTimes:
    def test_potrf_cubic_scaling(self, cm):
        assert cm.potrf_time(2000) > 6 * cm.potrf_time(1000)

    def test_null_tasks_cost_only_overhead(self, cm):
        o = cm.machine.task_overhead
        assert cm.trsm_time(1000, 0) == o
        assert cm.syrk_time(1000, 0) == o
        assert cm.gemm_time(1000, 0, 5, 5) == o
        assert cm.gemm_time(1000, 5, 0, 5) == o

    def test_low_rank_cheaper_than_dense(self, cm):
        b = 2000
        assert cm.trsm_time(b, 20) < cm.trsm_time(b, b)
        assert cm.syrk_time(b, 20) < cm.syrk_time(b, b)
        assert cm.gemm_time(b, 20, 20, 20) < cm.gemm_time(b, b, b, b)

    def test_skinny_kernels_run_below_gemm_rate(self, cm):
        """Roofline: low-AI TLR kernels achieve a lower effective rate
        than dense GEMM — the granularity penalty of Section V."""
        b = 2000
        from repro.linalg import flops as fl

        t_dense = cm.gemm_time(b, b, b, b) - cm.machine.task_overhead
        rate_dense = fl.gemm_dense_flops(b) / t_dense
        t_tlr = cm.gemm_time(b, 4, 4, 4) - cm.machine.task_overhead
        rate_tlr = fl.gemm_tlr_flops(b, 4, 4, 4) / t_tlr
        assert rate_tlr < rate_dense

    def test_vectorized_match_scalar(self, cm):
        """One array call prices exactly like the scalar calls."""
        b = 1500
        ranks = np.array([0, 1, 17, b - 1, b, 2 * b])
        tv = cm.trsm_time(b, ranks)
        sv = cm.syrk_time(b, ranks)
        for i, r in enumerate(ranks):
            assert tv[i] == cm.trsm_time(b, int(r))
            assert sv[i] == cm.syrk_time(b, int(r))
        ka, kb, kc = np.meshgrid(ranks, ranks, ranks, indexing="ij")
        gv = cm.gemm_time(b, ka, kb, kc)
        assert gv.shape == ka.shape
        for idx in np.ndindex(ka.shape):
            assert gv[idx] == cm.gemm_time(
                b, int(ka[idx]), int(kb[idx]), int(kc[idx])
            )

    def test_node_time_nests_dense_and_long_kernels(self, cm):
        cores = cm.machine.cores_per_node
        b = 1000
        t, held = cm.node_time("POTRF", b)
        assert (t, held) == (cm.potrf_time(b) / cm.nested_speed, cores)
        t, held = cm.node_time("TRSM", b, 4)  # short low-rank kernel
        assert (t, held) == (cm.trsm_time(b, 4), 1)
        t, held = cm.node_time("GEMM", b, np.array([b, 4]), np.array([b, 4]), 4)
        assert held.tolist() == [cores, 1]
        with pytest.raises(ValueError):
            cm.node_time("GETRF", b)

    def test_compression_most_expensive_per_tile(self, cm):
        b = 2000
        assert cm.compression_time(b) > cm.potrf_time(b)
        assert cm.compression_time(b) > cm.generation_time(b)


class TestMessageTimes:
    def test_tile_bytes(self, cm):
        b = 1000
        assert cm.tile_bytes(b, 0) == 128.0  # control message
        assert cm.tile_bytes(b, 10) == 8 * 2 * b * 10
        assert cm.tile_bytes(b, b) == 8 * b * b
        assert cm.tile_bytes(b, 2 * b) == 8 * b * b  # capped at dense

    def test_tile_bytes_vec_matches(self, cm):
        b = 1000
        ranks = np.array([0, 1, 17, b - 1, b, 2 * b])
        vec = cm.tile_bytes(b, ranks)
        for i, r in enumerate(ranks):
            assert vec[i] == cm.tile_bytes(b, int(r))

    def test_transfer_latency_floor(self, cm):
        m = cm.machine
        assert cm.transfer_time(0.0) == pytest.approx(
            m.message_overhead + m.network_latency
        )
