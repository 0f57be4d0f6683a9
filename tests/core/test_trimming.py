"""Tests for the task-space enumerations (trimmed and full): the
left-looking graph the driver runs and the paper's right-looking PTG
the simulator models."""

import numpy as np
import pytest

from repro.core.analysis import analyze_ranks
from repro.core.trimming import cholesky_tasks, ptg_cholesky_tasks
from repro.runtime.dag import build_graph
from repro.runtime.task import AccessMode
from tests.dag_refs import ptg_task_counts


class TestFullEnumeration:
    def test_counts(self):
        nt = 5
        tasks = ptg_cholesky_tasks(nt)
        counts = {}
        for t in tasks:
            counts[t.klass] = counts.get(t.klass, 0) + 1
        assert counts["POTRF"] == nt
        assert counts["TRSM"] == nt * (nt - 1) // 2
        assert counts["SYRK"] == nt * (nt - 1) // 2
        assert counts["GEMM"] == sum(
            (nt - 1 - k) * (nt - 2 - k) // 2 for k in range(nt)
        )

    def test_sequential_order_is_valid(self):
        """Enumeration order must itself be a topological order."""
        g = build_graph(ptg_cholesky_tasks(6))
        for i, succs in g.successors.items():
            for j in succs:
                assert i < j

    def test_nt_one(self):
        tasks = ptg_cholesky_tasks(1)
        assert len(tasks) == 1
        assert tasks[0].klass == "POTRF"

    def test_rejects_bad_nt(self):
        with pytest.raises(ValueError):
            ptg_cholesky_tasks(0)


class TestTrimmedEnumeration:
    def test_counts_match_analysis(self, sparse_tlr):
        nt = sparse_tlr.n_tiles
        ana = analyze_ranks(sparse_tlr.rank_array(), nt)
        tasks = ptg_cholesky_tasks(nt, ana)
        counts = {}
        for t in tasks:
            counts[t.klass] = counts.get(t.klass, 0) + 1
        assert counts == ptg_task_counts(ana)

    def test_trimmed_is_subset_of_full(self, sparse_tlr):
        nt = sparse_tlr.n_tiles
        ana = analyze_ranks(sparse_tlr.rank_array(), nt)
        full = {t.uid for t in ptg_cholesky_tasks(nt)}
        trimmed = {t.uid for t in ptg_cholesky_tasks(nt, ana)}
        assert trimmed <= full
        assert len(trimmed) < len(full)

    def test_no_task_on_symbolically_null_tile(self, sparse_tlr):
        nt = sparse_tlr.n_tiles
        ana = analyze_ranks(sparse_tlr.rank_array(), nt)
        for t in ptg_cholesky_tasks(nt, ana):
            for d in t.writes:
                assert ana.is_nonzero_final(*d), (t, d)

    def test_mismatched_analysis_rejected(self, sparse_tlr):
        ana = analyze_ranks(sparse_tlr.rank_array(), sparse_tlr.n_tiles)
        with pytest.raises(ValueError):
            ptg_cholesky_tasks(sparse_tlr.n_tiles + 1, ana)


class TestFlopEstimates:
    def test_flops_attached_when_inputs_given(self, sparse_tlr):
        nt = sparse_tlr.n_tiles
        ranks = sparse_tlr.rank_matrix()
        tasks = ptg_cholesky_tasks(
            nt, tile_size=sparse_tlr.tile_size, rank_of=lambda m, k: ranks[m, k]
        )
        potrf = [t for t in tasks if t.klass == "POTRF"]
        assert all(t.flops > 0 for t in potrf)
        # null-tile tasks carry zero flops
        null_trsm = [
            t for t in tasks if t.klass == "TRSM" and ranks[t.params[0], t.params[1]] == 0
        ]
        assert null_trsm and all(t.flops == 0.0 for t in null_trsm)

    def test_flops_zero_without_inputs(self):
        assert all(t.flops == 0.0 for t in ptg_cholesky_tasks(4))

    def test_priorities_set(self):
        tasks = ptg_cholesky_tasks(6)
        assert all(t.priority > 0 for t in tasks)
        potrf0 = next(t for t in tasks if t.uid == ("POTRF", (0,)))
        gemm = next(t for t in tasks if t.klass == "GEMM")
        assert potrf0.priority > gemm.priority


class TestLeftLookingEnumeration:
    """``cholesky_tasks``: one accumulating task per target tile."""

    @staticmethod
    def _graphs(tlr):
        nt = tlr.n_tiles
        ana = analyze_ranks(tlr.rank_array(), nt)
        return nt, ana, cholesky_tasks(nt), cholesky_tasks(nt, ana)

    def test_untrimmed_counts(self):
        nt = 6
        counts = build_graph(cholesky_tasks(nt)).task_counts()
        pairs = nt * (nt - 1) // 2
        assert counts == {
            "POTRF": nt,
            "TRSM": pairs,
            "SYRK": nt - 1,  # column 0 has no panel to accumulate
            "GEMM": pairs - (nt - 1),  # nor do the tiles of column 0
        }

    def test_every_emitted_task_has_a_panel_list(self, sparse_tlr):
        _, _, full, trimmed = self._graphs(sparse_tlr)
        for t in full + trimmed:
            if t.klass in ("SYRK", "GEMM"):
                assert t.inputs, t
                (target,) = t.writes
                assert target == (t.params[0], t.params[-1])

    def test_gemm_reads_are_the_analysis_panels_on_both_rows(self, sparse_tlr):
        nt, ana, full, trimmed = self._graphs(sparse_tlr)
        seen = set()
        for t in trimmed:
            if t.klass == "GEMM":
                m, n = t.params
                ks = ana.gemm_panels(m, n)
                assert t.inputs == tuple(
                    key for k in ks for key in ((m, k), (n, k))
                )
                seen.add((m, n))
            elif t.klass == "SYRK":
                (n,) = t.params
                assert t.inputs == tuple((n, k) for k in ana.syrk_panels(n))
        assert seen == set(ana.gemm)
        for t in full:
            if t.klass == "GEMM":
                m, n = t.params
                assert t.inputs == tuple(
                    key for k in range(n) for key in ((m, k), (n, k))
                )

    def test_trimmed_is_subset_and_skips_null_targets(self, sparse_tlr):
        _, ana, full, trimmed = self._graphs(sparse_tlr)
        assert {t.uid for t in trimmed} < {t.uid for t in full}
        for t in trimmed:
            for d in t.writes:
                assert ana.is_nonzero_final(*d), (t, d)

    def test_sequential_order_is_valid(self, sparse_tlr):
        _, _, full, trimmed = self._graphs(sparse_tlr)
        for tasks in (full, trimmed):
            g = build_graph(tasks)
            for i, succs in g.successors.items():
                assert all(i < j for j in succs)

    def test_target_is_the_only_written_tile(self):
        for t in cholesky_tasks(5):
            rw = [a for a in t.accesses if a.mode is AccessMode.RW]
            assert len(rw) == 1 and len(t.writes) == 1

    def test_priorities_follow_the_critical_path(self):
        by_uid = {t.uid: t.priority for t in cholesky_tasks(6)}
        assert (
            by_uid[("SYRK", (1,))]
            > by_uid[("POTRF", (1,))]
            > by_uid[("TRSM", (2, 1))]
            > by_uid[("GEMM", (2, 1))]
            > by_uid[("TRSM", (4, 1))]
            > by_uid[("GEMM", (4, 1))]
            > by_uid[("SYRK", (2,))]
        )

    def test_rejects_bad_inputs(self, sparse_tlr):
        with pytest.raises(ValueError):
            cholesky_tasks(0)
        ana = analyze_ranks(sparse_tlr.rank_array(), sparse_tlr.n_tiles)
        with pytest.raises(ValueError):
            cholesky_tasks(sparse_tlr.n_tiles + 1, ana)

    def test_flops_sum_the_panel_list(self):
        from repro.linalg import flops as fl

        b, nt = 64, 4
        ranks = np.array(
            [[b, 0, 0, 0], [5, b, 0, 0], [0, 7, b, 0], [3, 4, 6, b]]
        )
        rank_of = lambda m, k: int(ranks[m, k])
        ana = analyze_ranks(ranks, nt)
        by_uid = {
            t.uid: t for t in cholesky_tasks(nt, ana, tile_size=b, rank_of=rank_of)
        }
        assert by_uid[("SYRK", (3,))].flops == sum(
            fl.syrk_tlr_flops(b, k) for k in (3, 4, 6)
        )
        assert by_uid[("GEMM", (3, 1))].flops == fl.gemm_accumulated_flops(
            b, [(3, 5)], 4
        )
        # (3, 2): panel 1 only -- (2, 0) is null, so k = 0 is trimmed
        assert ana.gemm_panels(3, 2) == [1]
        assert by_uid[("GEMM", (3, 2))].flops == fl.gemm_accumulated_flops(
            b, [(4, 7)], 6
        )
        assert all(t.flops == 0.0 for t in cholesky_tasks(nt, ana))
