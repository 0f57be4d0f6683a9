"""The traced pass (``--trace 1`` / ``--layers``): per-layer metrics.

Three parts, all on the workload's own operator:

1. the workload's reps again, alternating span-free and span-recording
   reps -- the difference is ``bench.trace_overhead_frac``, the spans
   give the self-time table and one Chrome trace per workload;
2. probes that time one public call per layer (this repo's modules);
3. the service and fleet layers driven with the ``serve_mixed``
   request mix.

Layer metrics have no bound: they exist to say *where* an end-to-end
move came from.  README.md lists which end-to-end metric each should
move, on which workload.
"""

from __future__ import annotations

import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import workloads as W
from spans import SpanRecorder

from repro.core import logdet, solve_cholesky, tlr_cholesky
from repro.core.analysis import analyze_ranks
from repro.core.trimming import cholesky_tasks
from repro.kernels import RBFMatrixGenerator
from repro.linalg import LowRankFactor, LowRankTile, TLRMatrix, tlr_matvec
from repro.linalg.arena import TileArena
from repro.linalg.flops import gemm_tlr_flops
from repro.linalg.integrity import matrix_checksums
from repro.linalg.kernels_tlr import gemm_tile, potrf_tile, syrk_tile, trsm_tile
from repro.linalg.lowrank import compress_block, recompress
from repro.linalg.serialization import load_tlr, save_tlr
from repro.runtime.dag import build_graph
from repro.service import OperatorCache, SolveService
from repro.service.fleet import FleetService
from repro.service.router import ConsistentHashRing, FleetRouter

STAGED_BURST = 32


class Probes:
    """Times public calls, normalised like every other timing: the
    samples go into the run's ledger under the probe's name and a
    reference sample follows each probe."""

    def __init__(self, s: W.Samples) -> None:
        self.s = s
        self.values: dict[str, float] = {}
        #: nominal seconds per raw second at the latest probe
        self.scale = 1.0

    def time(self, name: str, fn, reps: int = 1, unit: float = 1.0):
        """Record ``unit`` (1e3 for ms, 1e6 for us) times the
        normalised median wall of ``reps`` calls of ``fn`` under
        ``name``; returns the last call's result."""
        for _ in range(reps):
            t0 = time.perf_counter()
            out = fn()
            self.s.add(name, time.perf_counter() - t0)
        self.s.ref()
        self.scale = self.s.scale(self.s.at[name][-1])
        self.values[name] = unit * self.s.median(name)
        return out


@contextmanager
def on_cpus(cpus):
    """Let the calling thread, and the threads and processes it starts
    meanwhile, run on ``cpus``."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def probe_operator(p: Probes, spec, pristine: TLRMatrix, rhs: np.ndarray, scratch: str, all_cpus) -> None:
    """One public call per numerical layer, on the workload's operator."""
    v = p.values
    b, nt, tol = spec.tile_size, pristine.n_tiles, spec.accuracy
    lower = [(m, k) for k in range(nt) for m in range(k, nt)]

    # ---- kernels.matgen, linalg.tile_matrix, linalg.lowrank
    gen = RBFMatrixGenerator(
        np.asarray(spec.points), shape_parameter=spec.shape_parameter,
        tile_size=b, nugget=spec.nugget,
    )
    tiles = p.time("kernels.matgen.generate_s", lambda: {mk: gen.tile(*mk) for mk in lower})
    v["kernels.matgen.tiles"] = len(tiles)
    source = lambda m, k: tiles[(m, k)]  # noqa: E731 - generation excluded
    for name, method in (("compress_s", "svd"), ("compress_rand_s", "rand")):
        p.time(
            f"linalg.tile_matrix.{name}",
            lambda: TLRMatrix.compress(source, spec.n, b, tol, compression=method, storage="fp64"),
        )
    off = [mk for mk in lower if mk[0] != mk[1]]
    sample = [tiles[off[i]] for i in np.linspace(0, len(off) - 1, 8).astype(int)]
    p.time(
        "linalg.lowrank.compress_block_us",
        lambda: [compress_block(blk, tol, max_rank=pristine.max_rank) for blk in sample],
        reps=3, unit=1e6 / len(sample),
    )
    del tiles, sample
    stats = pristine.off_diagonal_rank_stats()
    v["linalg.tile_matrix.density"] = pristine.density()
    v["linalg.tile_matrix.rank_avg"] = stats["avg"]
    v["linalg.tile_matrix.rank_max"] = stats["max"]

    # ---- core.analysis, core.trimming, runtime.dag
    ranks = pristine.rank_matrix()
    analysis = p.time("core.analysis.analyze_s", lambda: analyze_ranks(pristine.rank_array(), nt), reps=3)
    tasks = p.time(
        "core.trimming.tasks_s",
        lambda: cholesky_tasks(nt, analysis=analysis, tile_size=b, rank_of=lambda m, k: int(ranks[m, k])),
        reps=3,
    )
    graph = p.time("runtime.dag.build_s", lambda: build_graph(tasks), reps=3)
    v["runtime.dag.tasks"] = len(graph)
    v["core.trimming.tasks_trimmed_frac"] = 1.0 - len(tasks) / len(cholesky_tasks(nt))

    # ---- runtime.engine / parallel / parallel_mp: one factorization each
    def factorize(name: str, **kw):
        a = pristine.copy()
        return p.time(f"bench.probe.{name}_s", lambda: tlr_cholesky(a, **kw))

    res = factorize("serial", engine="serial")
    serial_wall = v.pop("bench.probe.serial_s")
    factor, n_tasks = res.factor, len(res.graph)
    busy, by_class = res.trace.busy_time(), res.trace.time_by_class()
    v["core.tlr_cholesky.setup_s"] = p.scale * res.setup_seconds
    v["runtime.engine.execute_s"] = p.scale * res.execute_seconds
    v["runtime.engine.kernel_busy_s"] = p.scale * busy
    v["runtime.engine.overhead_us_per_task"] = 1e6 * p.scale * (res.execute_seconds - busy) / n_tasks
    for klass in ("POTRF", "TRSM", "SYRK", "GEMM"):
        v[f"runtime.engine.time_{klass.lower()}_s"] = p.scale * by_class.get(klass, 0.0)
    v["runtime.engine.flops"] = res.trace.total_flops()
    v["runtime.engine.gflops"] = res.trace.total_flops() / v["runtime.engine.execute_s"] / 1e9

    # the parallel engines on every core the machine has: the one place
    # the benchmark leaves its single core, so that speed-up and idle
    # share mean what they say (not gated: see README.md, "One core")
    for label, engine in (("runtime.parallel", "threads"), ("runtime.parallel_mp", "mp")):
        with on_cpus(all_cpus):
            par = factorize(engine, engine=engine, workers=W.WORKERS)
        v[f"{label}.factorize_s"] = v.pop(f"bench.probe.{engine}_s")
        v[f"{label}.execute_s"] = p.scale * par.execute_seconds
        v[f"{label}.busy_s"] = p.scale * par.trace.busy_time()
        v[f"{label}.idle_frac"] = 1.0 - par.trace.busy_time() / (W.WORKERS * par.trace.makespan)
        v[f"{label}.speedup_vs_serial"] = serial_wall / v[f"{label}.factorize_s"]
    # a 1-tile factorization is all fork + arena + teardown
    one_tile = TLRMatrix.from_dense(2.0 * np.eye(8), 8, tol)
    p.time(
        "runtime.parallel_mp.spawn_s",
        lambda: tlr_cholesky(one_tile.copy(), engine="mp", workers=W.WORKERS),
        reps=3,
    )

    # ---- protections on, against the run above with them off
    with tempfile.TemporaryDirectory(prefix="ckpt-", dir=scratch) as ckpt:
        factorize("verify", engine="serial", verify_tiles=True)
        v["linalg.integrity.verify_overhead_frac"] = v.pop("bench.probe.verify_s") / serial_wall - 1.0
        factorize("checkpoint", engine="serial", checkpoint=ckpt)
        v["runtime.checkpoint.checkpoint_overhead_frac"] = (
            v.pop("bench.probe.checkpoint_s") / serial_wall - 1.0
        )

    # ---- linalg.kernels_tlr: one call each on tiles of this matrix
    lowrank = [m for m in range(1, nt) if isinstance(factor.tile(m, 0), LowRankTile)]
    m1, m2 = (lowrank[0], lowrank[1]) if len(lowrank) > 1 else (1, 2)
    l00 = p.time("linalg.kernels_tlr.potrf_us", lambda: potrf_tile(pristine.tile(0, 0)), reps=5, unit=1e6)
    l_m1 = p.time("linalg.kernels_tlr.trsm_us", lambda: trsm_tile(l00, pristine.tile(m1, 0)), reps=5, unit=1e6)
    p.time("linalg.kernels_tlr.syrk_us", lambda: syrk_tile(pristine.tile(m1, m1), l_m1), reps=5, unit=1e6)
    c, l_m2 = pristine.tile(m2, m1), factor.tile(m2, 0)
    p.time(
        "linalg.kernels_tlr.gemm_us",
        lambda: gemm_tile(c, l_m2, l_m1, tol=tol, max_rank=pristine.max_rank),
        reps=5, unit=1e6,
    )
    v["linalg.kernels_tlr.gemm_flops"] = gemm_tlr_flops(b, l_m2.rank, l_m1.rank, c.rank)
    v["linalg.kernels_tlr.gemm_gflops"] = (
        v["linalg.kernels_tlr.gemm_flops"] / v["linalg.kernels_tlr.gemm_us"] / 1e3
    )
    if isinstance(l_m1, LowRankTile) and isinstance(l_m2, LowRankTile):
        inflated = LowRankFactor(np.hstack([l_m1.u, l_m2.u]), np.hstack([l_m1.v, l_m2.v]))
    else:  # tiny quick matrices may have no two low-rank tiles in column 0
        rng = np.random.default_rng(0)
        inflated = LowRankFactor(rng.standard_normal((b, 8)), rng.standard_normal((b, 8)))
    p.time("linalg.lowrank.recompress_us", lambda: recompress(inflated, tol), reps=5, unit=1e6)

    # ---- linalg.arena (the mp engine's copy-in / copy-out)
    arena = p.time("linalg.arena.copy_in_s", lambda: TileArena.from_store(pristine))
    try:
        target = pristine.copy()
        p.time("linalg.arena.flush_s", lambda: arena.flush_to(target))
    finally:
        arena.close()
        arena.unlink()

    # ---- linalg.integrity, linalg.serialization (writes beside reads)
    p.time("linalg.integrity.checksum_s", lambda: matrix_checksums(factor))
    path = Path(scratch) / f"factor-{os.getpid()}.npz"
    try:
        p.time("linalg.serialization.save_s", lambda: save_tlr(factor, path, compressed=False))
        v["linalg.serialization.bytes"] = path.stat().st_size
        p.time("linalg.serialization.load_s", lambda: load_tlr(path))
    finally:
        path.unlink(missing_ok=True)

    # ---- core.solver, linalg.matvec
    rng = np.random.default_rng(1)
    for cols in (1, 8, 32):
        block = rhs if cols == 1 else rng.standard_normal((spec.n, cols))
        p.time(f"core.solver.solve{cols}_ms", lambda: solve_cholesky(factor, block), reps=5, unit=1e3)
    p.time("core.solver.logdet_ms", lambda: logdet(factor), reps=5, unit=1e3)
    p.time("linalg.matvec.matvec_ms", lambda: tlr_matvec(pristine, rhs), reps=5, unit=1e3)


def probe_cache(p: Probes, spec, scratch: str) -> None:
    """service.spec and service.cache: fingerprint, a bare build, a
    cache miss with its disk-tier write, a memory hit, and a disk
    reload by a second cache over the same directory."""
    v = p.values
    p.time("service.spec.fingerprint_us", lambda: spec.fingerprint, reps=5, unit=1e6)
    built = p.time("service.spec.build_s", spec.build)
    v["service.spec.build_compress_s"] = p.scale * built.compress_seconds
    v["service.spec.build_factorize_s"] = p.scale * built.factorize_seconds
    with tempfile.TemporaryDirectory(prefix="probe-cache-", dir=scratch) as d:
        cache = OperatorCache(directory=d)
        entry, outcome = p.time("bench.probe.acquire_s", lambda: cache.acquire(spec))
        p.s.op(outcome == "build", f"fresh cache answered {outcome!r}, expected a build")
        # a miss is a build plus the disk-tier write
        v["service.cache.disk_write_s"] = v.pop("bench.probe.acquire_s") - p.scale * entry.build_seconds
        p.time("service.cache.hit_us", lambda: cache.acquire(spec), reps=20, unit=1e6)
        second = OperatorCache(directory=d)
        _, outcome = p.time("service.cache.disk_reload_ms", lambda: second.acquire(spec), unit=1e3)
        p.s.op(outcome == "disk", f"second cache answered {outcome!r}, expected a disk reload")


def probe_service(p: Probes, st: W.ServeState, rng, rec, windows: int, scratch: str) -> None:
    """service.server, service.batching, service.fleet, service.router:
    the ``serve_mixed`` request mix through the service (alternating
    span-free and span-recording windows), a staged burst, and the same
    mix through a 2-shard fleet."""
    v, s = p.values, p.s
    hot = st.hot[-1]
    for spec in st.hot:  # resident before the windows (a build on a library workload)
        st.svc.submit_solve(spec, st.rhs1).result(timeout=W.REQUEST_TIMEOUT_S)
    for i in range(2 * windows):
        if i % 2:
            W.serve_window(st, s, rng, rec, prefix="traced")
        else:
            W.serve_window(st, s, rng, prefix="served")
    factor = st.cache.get_or_build(hot).factor
    p.time("bench.probe.direct_solve_s", lambda: solve_cholesky(factor, st.rhs1), reps=9)
    v["service.server.overhead_ms"] = 1e3 * (
        s.median("served_solve1_p50_s") - v.pop("bench.probe.direct_solve_s")
    )
    v["service.server.warm_p99_ms"] = 1e3 * s.median("served_p99_s")
    v["service.batching.realized_batch_mean"] = st.svc.metrics.to_dict()["batch"]["mean"]
    stats = st.cache.stats()
    for key in ("hits", "misses", "evictions"):
        v[f"service.cache.{key}"] = stats[key]

    # deterministic batch formation: stage a burst, then start
    staged = SolveService(cache=st.cache, workers=W.WORKERS, start=False)
    try:
        handles = [staged.submit_solve(hot, st.rhs1) for _ in range(STAGED_BURST)]

        def drain():
            staged.start()
            return [h.result(timeout=W.REQUEST_TIMEOUT_S) for h in handles]

        results = p.time("bench.probe.staged_burst_s", drain)
    finally:
        staged.close()
    for x in results:
        s.op(bool(np.all(np.isfinite(x))), "staged burst returned non-finite data")
    v["service.batching.staged_burst_rps"] = STAGED_BURST / v.pop("bench.probe.staged_burst_s")

    # fleet: 2 shards x 1 worker, the same request mix
    with tempfile.TemporaryDirectory(prefix="fleet-cache-", dir=scratch) as d:
        fleet = p.time(
            "service.fleet.start_s",
            lambda: FleetService(shards=2, workers_per_shard=1, cache_dir=d),
        )
        try:
            for spec in st.hot[:-1]:
                fleet.submit_solve(spec, st.rhs1).result(timeout=W.REQUEST_TIMEOUT_S)
            x = p.time(
                "service.fleet.cold_s",
                lambda: fleet.submit_solve(hot, st.rhs1).result(timeout=W.REQUEST_TIMEOUT_S),
            )
            s.op(bool(np.all(np.isfinite(x))), "fleet cold request returned non-finite data")
            for _ in range(windows):
                W.serve_window(st, s, rng, svc=fleet, prefix="fleet")
        finally:
            fleet.close()
    v["service.fleet.hop_ms"] = 1e3 * (s.median("fleet_p50_s") - s.median("served_p50_s"))
    router = FleetRouter(ConsistentHashRing(["shard-0", "shard-1"]), replication=2)
    p.time(
        "service.router.route_us",
        lambda: [router.route(hot.fingerprint) for _ in range(100)],
        reps=5, unit=1e6 / 100,
    )


def traced_run(wl: W.Workload, st, s: W.Samples, args) -> tuple[dict, list[dict]]:
    """The whole traced pass; returns (layer metric values, span table)."""
    rec = SpanRecorder()
    rng = np.random.default_rng([args.seed, 3])
    scratch = args.out
    reps, windows = (1, 1) if args.quick else (3, 3)

    # ---- part 1: the workload's reps, span-free and span-recording
    if wl.kind == "library":
        plain = s.sibling()
        for rep in range(reps):
            rec.rep = rep
            W.library_rep(st, plain)
            W.library_rep(st, s, rec)
        overhead = s.median("time_to_solution_s") / plain.median("time_to_solution_s") - 1.0
        raw_tts = plain.raw["time_to_solution_s"] + s.raw["time_to_solution_s"]
        raw_factorize = plain.raw["factorize_s"] + s.raw["factorize_s"]
        s.absorb_ops(plain)
        spec, pristine, rhs = st.spec, st.pristine_last, st.rhs
        serve = W.ServeState(wl, [spec], args.seed, scratch)
        root = "time_to_solution"
    else:
        W.serve_cold_phase(st, s, rec)
        for rep in range(reps):
            rec.rep = rep
            W.serve_round(st, s, rng, rec)
        raw_tts, raw_factorize = s.raw["time_to_solution_s"], s.raw["factorize_s"]
        spec, serve = st.hot[-1], st
        pristine, rhs = st.cache.get_or_build(spec).operator, st.rhs1
        root = "service.cold_request"
    try:
        p = Probes(s)
        v = p.values
        probe_operator(p, spec, pristine, rhs, scratch, args.all_cpus)
        probe_cache(p, spec, scratch)
        probe_service(p, serve, rng, rec, windows, scratch)
    finally:
        if serve is not st:
            serve.close()
    if wl.kind != "library":
        # one span per request: the windows carry the comparison
        overhead = s.median("traced_wall_s") / s.median("served_wall_s") - 1.0
    v["bench.trace_overhead_frac"] = overhead
    v["bench.span_coverage_frac"] = rec.coverage(root)
    v["machine.ref_ms"] = 1e3 * float(np.median(s.refs))
    v["machine.raw.time_to_solution_s"] = float(np.median(raw_tts))
    v["machine.raw.factorize_s"] = float(np.median(raw_factorize))
    rec.write_chrome_trace(Path(scratch) / f"trace-{wl.name}.json")
    return v, sorted(rec.table(), key=lambda r: -r["total_s"])
