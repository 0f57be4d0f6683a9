"""Tests for the Dynamic Task Discovery (task-insertion) front-end."""

import numpy as np
import pytest

from repro.runtime.dtd import TaskPool


class TestTaskPool:
    def test_sequential_semantics(self):
        """Insertion order + data accesses define the execution order."""
        pool = TaskPool()
        log = []
        pool.insert_task("W", (0,), lambda t, d: log.append("w0"), write=[(0, 0)])
        pool.insert_task("R", (0,), lambda t, d: log.append("r0"), read=[(0, 0)])
        pool.insert_task("W", (1,), lambda t, d: log.append("w1"), rw=[(0, 0)])
        pool.run(None)
        assert log == ["w0", "r0", "w1"]

    def test_independent_tasks_all_run(self):
        pool = TaskPool()
        seen = set()
        for i in range(10):
            pool.insert_task(
                "T", (i,), lambda t, d: seen.add(t.params[0]), write=[(i, i)]
            )
        trace = pool.run(None)
        assert seen == set(range(10))
        assert len(trace) == 10

    def test_duplicate_insert_rejected(self):
        pool = TaskPool()
        pool.insert_task("T", (0,), lambda t, d: None)
        with pytest.raises(ValueError):
            pool.insert_task("T", (0,), lambda t, d: None)

    def test_insert_after_finalize_rejected(self):
        pool = TaskPool()
        pool.insert_task("T", (0,), lambda t, d: None)
        pool.finalize()
        with pytest.raises(RuntimeError):
            pool.insert_task("T", (1,), lambda t, d: None)

    def test_matches_ptg_cholesky(self, sparse_tlr):
        """Inserting the left-looking tile-Cholesky loop through DTD
        produces the same DAG and the same factor, bitwise, as the
        enumerated (PTG-style) path the driver runs."""
        from repro.core import analyze_ranks, tlr_cholesky
        from repro.core.trimming import cholesky_tasks
        from repro.linalg.integrity import matrix_checksums
        from repro.linalg.kernels_tlr import (
            gemm_update,
            potrf_tile,
            syrk_update,
            trsm_tile,
        )
        from repro.linalg.lowrank import derive_tile_seed
        from repro.runtime.dag import build_graph

        a = sparse_tlr.copy()
        nt = a.n_tiles
        ana = analyze_ranks(a.rank_array(), nt)
        pool = TaskPool()

        def k_potrf(t, m):
            (k,) = t.params
            m.set_tile(k, k, potrf_tile(m.tile(k, k)))

        def k_trsm(t, mat):
            m, k = t.params
            mat.set_tile(m, k, trsm_tile(mat.tile(k, k), mat.tile(m, k)))

        def k_syrk(t, mat):
            (n,) = t.params
            panels = [mat.tile(*key) for key in t.inputs]
            mat.set_tile(n, n, syrk_update(mat.tile(n, n), panels))

        def k_gemm(t, mat):
            m, n = t.params
            ops = [mat.tile(*key) for key in t.inputs]
            mat.set_tile(
                m, n,
                gemm_update(
                    mat.tile(m, n), zip(ops[0::2], ops[1::2]),
                    tol=mat.accuracy, max_rank=mat.max_rank,
                    seed=derive_tile_seed(mat.compression.seed_root, m, n, gen=1),
                ),
            )

        for n in range(nt):
            if ana.syrk_panels(n):
                pool.insert_task("SYRK", (n,), k_syrk,
                                 read=[(n, k) for k in ana.syrk_panels(n)],
                                 rw=[(n, n)])
            pool.insert_task("POTRF", (n,), k_potrf, rw=[(n, n)])
            for m in ana.trsm_rows(n):
                ks = ana.gemm_panels(m, n)
                if ks:
                    pool.insert_task(
                        "GEMM", (m, n), k_gemm,
                        read=[key for k in ks for key in ((m, k), (n, k))],
                        rw=[(m, n)],
                    )
                pool.insert_task("TRSM", (m, n), k_trsm,
                                 read=[(n, n)], rw=[(m, n)])

        # identical DAG shape as the enumeration the driver runs
        ptg = build_graph(cholesky_tasks(nt, ana))
        dtd = pool.finalize()
        assert len(dtd) == len(ptg)
        assert dtd.n_edges() == ptg.n_edges()

        pool.run(a)
        ref = tlr_cholesky(sparse_tlr.copy(), trim=True).factor
        assert matrix_checksums(a) == matrix_checksums(ref)
