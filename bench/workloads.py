"""The four benchmark workloads: inputs, set-up, and one timed rep each.

Every workload is real numerics on ``virus_population`` geometry with
a Gaussian RBF, ``nugget = 100 * accuracy`` and default (SVD)
compression.  The point-set *shape* is part of the workload definition
(fixed base seeds), because tile ranks -- and with them task counts,
flops and factor bytes -- depend on where the virions sit: drawing the
geometry from ``--seed`` moves ``factor_mb`` by 10 % and the task
count by 2x.  ``--seed`` instead drives a rigid motion of the cloud
(distances, hence ranks, are preserved; the coordinates the program
sees are not), every right-hand side, and the order of the client
requests.  The whole workload process runs on one core (worker.py).

Why these four (see README.md for the metric -> workload table):

``sparse_tts``    the paper's regime: density ~0.2, trimming removes
                  ~83 % of the dense DAG, compression is ~90 % of the
                  cold path.  Compression/trimming changes show here,
                  kernel changes barely do.
``dense_factor``  density 1.0: trimmed DAG == full DAG (trimming is
                  bypassed), factorization is ~half the cold path and
                  GEMM + recompression dominates it.
``fine_engines``  b=50: ~1000 tasks of ~100 us, so per-task dispatch,
                  locking, IPC and arena copies are what the parallel
                  engines add.  The operator is compressed once in
                  set-up, so compression lands in ``setup_s``.
``serve_mixed``   the serving path: cold builds through the cache with
                  evictions and disk writes, then a closed loop of two
                  clients mixing coalescible single-RHS solves, block
                  solves and memoised logdets on the hot operators.
"""

from __future__ import annotations

import gc
import tempfile
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from machine_ref import REF_NOMINAL_S, reference
from spans import span

from repro.core import solve_cholesky, tlr_cholesky
from repro.geometry import min_spacing, virus_population
from repro.kernels import RBFMatrixGenerator
from repro.linalg import TLRMatrix, tlr_matvec
from repro.linalg.integrity import matrix_checksums
from repro.service import OperatorCache, OperatorSpec, SolveService

#: solve residual gate against the pristine compressed operator
#: (today 1-5e-3: the nugget is 100x the compression accuracy)
RESIDUAL_GATE = 1.0e-2
#: warm direct solves closing every library rep
WARM_SOLVES = 40
#: workers for the threaded / process-pool engines and the service
WORKERS = 2


@dataclass(frozen=True)
class OperatorConfig:
    """One RBF operator recipe (before the seed's rigid motion)."""

    viruses: int
    points_per_virus: int
    tile_size: int
    accuracy: float
    #: shape parameter as a multiple of half the minimum point spacing
    shape_mult: float
    geometry_seed: int = 0

    @property
    def n(self) -> int:
        return self.viruses * self.points_per_virus


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library" or "serve"
    operator: OperatorConfig
    quick: OperatorConfig
    #: library: compress once in set-up instead of in every rep
    compress_in_setup: bool = False
    #: serve: distinct operators requested cold, hot-set size
    cold_operators: int = 16
    hot_operators: int = 4
    #: serve: cache byte budget in operators (< cold_operators, so the
    #: cold phase evicts; > hot_operators, so the hot set stays resident)
    cache_operators: int = 6


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse_tts",
            "library",
            OperatorConfig(8, 400, 200, 1e-6, 30.0),
            OperatorConfig(4, 150, 100, 1e-6, 30.0),
        ),
        Workload(
            "dense_factor",
            "library",
            OperatorConfig(8, 300, 200, 1e-8, 200.0),
            OperatorConfig(4, 100, 100, 1e-8, 200.0),
        ),
        Workload(
            "fine_engines",
            "library",
            OperatorConfig(8, 250, 50, 1e-6, 30.0),
            OperatorConfig(4, 100, 50, 1e-6, 30.0),
            compress_in_setup=True,
        ),
        Workload(
            "serve_mixed",
            "serve",
            OperatorConfig(4, 400, 100, 1e-6, 30.0),
            OperatorConfig(2, 150, 75, 1e-6, 30.0),
        ),
    )
}


def rigid_motion(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A seeded proper rotation and translation."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-1.0, 1.0, 3)


def make_points(cfg: OperatorConfig, seed: int) -> np.ndarray:
    base = virus_population(
        cfg.viruses, points_per_virus=cfg.points_per_virus, seed=cfg.geometry_seed
    )
    q, shift = rigid_motion(np.random.default_rng([seed, cfg.geometry_seed]))
    return np.ascontiguousarray(base @ q.T + shift)


def make_spec(cfg: OperatorConfig, seed: int, label: str = "") -> OperatorSpec:
    pts = make_points(cfg, seed)
    return OperatorSpec(
        points=pts,
        shape_parameter=0.5 * min_spacing(pts) * cfg.shape_mult,
        tile_size=cfg.tile_size,
        accuracy=cfg.accuracy,
        nugget=100.0 * cfg.accuracy,
        compression="svd",
        storage_precision="fp64",
        label=label,
    )


def compress_operator(spec: OperatorSpec, tile_source=None, compression="svd"):
    """generate -> compress, exactly as ``OperatorSpec.build`` does it
    (kept separate so generation and compression can be timed)."""
    gen = RBFMatrixGenerator(
        np.asarray(spec.points),
        shape_parameter=spec.shape_parameter,
        tile_size=spec.tile_size,
        nugget=spec.nugget,
    )
    return TLRMatrix.compress(
        tile_source(gen) if tile_source is not None else gen.tile,
        gen.n,
        spec.tile_size,
        spec.accuracy,
        compression=compression,
        storage="fp64",
    )


def relative_residual(operator, x: np.ndarray, rhs: np.ndarray) -> float:
    return float(
        np.linalg.norm(tlr_matvec(operator, x) - rhs) / np.linalg.norm(rhs)
    )


class Samples:
    """Raw timings per metric, the timeline of reference samples they
    sit in, and the op ledger (an op = one factorization, one solve or
    one request)."""

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = {}
        #: per sample: how many reference samples preceded it
        self.at: dict[str, list[int]] = {}
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def ref(self) -> None:
        """Time the reference routine once."""
        self.refs.append(reference())

    def add(self, name: str, raw: float) -> None:
        """Record a timing taken since the latest reference sample;
        the next ``ref()`` closes its bracket."""
        self.raw.setdefault(name, []).append(raw)
        self.at.setdefault(name, []).append(len(self.refs))

    def scale(self, at: int) -> float:
        """Nominal-machine seconds per raw second for a sample that
        ``at`` reference samples preceded: ``REF_NOMINAL_S`` over the
        mean of the reference samples before and after it (set-up has
        none before: the pair that follows)."""
        near = self.refs[max(0, at - 1) : max(at + 1, 2)]
        return REF_NOMINAL_S / (sum(near) / len(near))

    def norm(self, name: str) -> np.ndarray:
        """Every ``name`` sample in nominal-machine seconds."""
        return np.asarray(
            [raw * self.scale(at) for raw, at in zip(self.raw[name], self.at[name])]
        )

    def median(self, name: str) -> float:
        return float(np.median(self.norm(name)))

    def sibling(self) -> "Samples":
        """A second ledger on this one's reference timeline."""
        other = Samples()
        other.refs = self.refs
        return other

    def absorb_ops(self, other: "Samples") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.violations += other.violations

    def op(self, ok: bool, what: str = "", count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.violations.append(what)


ENGINES = {
    "serial": ("runtime.engine", "factorize_s"),
    "threads": ("runtime.parallel", "factorize_threads_s"),
    "mp": ("runtime.parallel_mp", "factorize_mp_s"),
}


def lift_factorization(rec, idx: int, res, t_start: float, t_end: float, engine: str) -> None:
    """Lift ``FactorizationResult`` public fields into child spans of
    the ``tlr_cholesky`` call span ``idx``: set-up (analysis, trimming,
    DAG build), execution, and -- for the serial engine, whose trace is
    one lane -- every task as a kernel span."""
    rec.add(f"core.tlr_cholesky.{engine}.setup", t_start, t_start + res.setup_seconds, idx)
    ex_start = t_end - res.execute_seconds
    ex = rec.add(f"{ENGINES[engine][0]}.execute", ex_start, t_end, idx)
    if engine == "serial":
        for e in res.trace.events:
            rec.add(
                f"linalg.kernels_tlr.{e.klass.lower()}",
                ex_start + e.start,
                ex_start + e.end,
                ex,
            )


def factorize(engine: str, pristine, s: Samples, rec=None):
    """Factorize a copy of ``pristine`` on ``engine``; the wall time is
    recorded under the engine's metric and returned with the result."""
    a = pristine.copy()
    t0 = time.perf_counter()
    with span(rec, f"core.tlr_cholesky.{engine}") as idx:
        res = tlr_cholesky(a, engine=engine, workers=WORKERS)
    t1 = time.perf_counter()
    s.add(ENGINES[engine][1], t1 - t0)
    if rec:
        lift_factorization(rec, idx, res, t0, t1, engine)
    return res, t1 - t0


def parallel_engines(pristine, serial, s: Samples, rec=None) -> None:
    """The factorization ``serial`` came from, again on the threads
    and mp engines, a reference sample after each; both factors must
    equal the serial one bitwise."""
    serial_sums = matrix_checksums(serial.factor)
    for engine in ("threads", "mp"):
        res, _ = factorize(engine, pristine, s, rec)
        s.ref()
        s.op(
            matrix_checksums(res.factor) == serial_sums,
            f"{engine} factor differs bitwise from serial",
        )


def add_window(s: Samples, prefix: str, latencies, wall: float) -> None:
    """One window of warm operations (a rep's direct solves, a
    closed-loop service window): its latency percentiles and wall."""
    for p in (50, 95, 99):
        s.add(f"{prefix}_p{p}_s", float(np.percentile(latencies, p)))
    s.add(f"{prefix}_wall_s", wall)


def end_to_end(s: Samples, factor, window_ops: int) -> dict[str, float]:
    """The timing and footprint metrics every workload reports: each a
    median over reps (or windows) of machine-normalised values.
    ``window_ops`` is the warm operations in one window.  The tail
    latency is the lower quartile over windows instead: a burst on the
    host lands in a window's p95 before it moves anything else, and
    only ever upwards."""
    return {
        "time_to_solution_s": s.median("time_to_solution_s"),
        "factorize_s": s.median("factorize_s"),
        "factorize_threads_s": s.median("factorize_threads_s"),
        "factorize_mp_s": s.median("factorize_mp_s"),
        "warm_p50_ms": 1e3 * s.median("warm_p50_s"),
        "warm_p95_ms": 1e3 * float(np.percentile(s.norm("warm_p95_s"), 25)),
        "requests_per_s": window_ops / s.median("warm_wall_s"),
        "factor_mb": factor.memory_bytes() / 1e6,
    }


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------


class LibraryState:
    """Set-up product of a library workload: spec, RHS and -- for
    ``fine_engines`` -- the operator compressed once."""

    def __init__(self, wl: Workload, cfg: OperatorConfig, seed: int) -> None:
        self.wl = wl
        self.spec = make_spec(cfg, seed, label=wl.name)
        self.rhs = np.random.default_rng([seed, 1]).standard_normal(self.spec.n)
        self.pristine = compress_operator(self.spec) if wl.compress_in_setup else None
        #: the latest rep's compressed operator and serial factorization
        self.pristine_last = self.result = None

    def close(self) -> None:
        pass


def traced_tile_source(rec):
    def wrap(gen):
        def tile(i, j):
            with rec.span("kernels.matgen.tile"):
                return gen.tile(i, j)

        return tile

    return wrap


def library_rep(st: LibraryState, s: Samples, rec=None) -> None:
    """One rep: cold path -> serial factorization -> first solve; the
    same factorization on the threads and mp engines (bitwise gate);
    then ``WARM_SOLVES`` direct solves on one RHS."""
    gc.collect()
    now = time.perf_counter
    with span(rec, "rep"):
        with span(rec, "time_to_solution"):
            if st.wl.compress_in_setup:
                pristine, t_compress = st.pristine, 0.0
            else:
                t0 = now()
                with span(rec, "linalg.tile_matrix.compress"):
                    pristine = compress_operator(
                        st.spec, traced_tile_source(rec) if rec else None
                    )
                t_compress = now() - t0
            # untimed in between: the pristine copy (the residual gate
            # and the other engines need the operator) and span lifting
            res, t_factorize = factorize("serial", pristine, s, rec)
            t0 = now()
            with span(rec, "core.solver.first_solve"):
                x = solve_cholesky(res.factor, st.rhs)
            s.add("time_to_solution_s", t_compress + t_factorize + (now() - t0))
        s.ref()
        residual = relative_residual(pristine, x, st.rhs)
        s.op(residual <= RESIDUAL_GATE, f"factorize+solve residual {residual:.2e}")

        parallel_engines(pristine, res, s, rec)

        lat = []
        with span(rec, "core.solver.warm_solves"):
            for _ in range(WARM_SOLVES):
                t0 = now()
                x = solve_cholesky(res.factor, st.rhs)
                lat.append(now() - t0)
        add_window(s, "warm", lat, sum(lat))
        s.ref()
        # the solves repeat one computation: the last result speaks for all
        residual = relative_residual(pristine, x, st.rhs)
        s.op(residual <= RESIDUAL_GATE, f"warm solve residual {residual:.2e}", WARM_SOLVES)
    st.pristine_last, st.result = pristine, res


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------

#: closed-loop request mix on the hot operators, per client and window
#: (70 / 20 / 10 %): the same solver and cache used three ways, so a
#: batching gain that taxes block solves (or a logdet memo regression)
#: shows.  Exact counts, not a draw: the tail percentile sits among the
#: block solves, and a binomial share of them would move it.
MIX = (("solve1", 42), ("solve8", 12), ("logdet", 6))
CLIENTS = 2
WINDOW_REQUESTS = CLIENTS * sum(count for _, count in MIX)
REQUEST_TIMEOUT_S = 60.0


class ServeState:
    """A started service over a budgeted two-tier cache, the operator
    specs it will be asked for, and the right-hand sides."""

    def __init__(self, wl: Workload, specs: list[OperatorSpec], seed: int, scratch: str) -> None:
        self.wl = wl
        self.specs = specs
        n = specs[0].n
        rng = np.random.default_rng([seed, 2])
        self.rhs1 = rng.standard_normal(n)
        self.rhs8 = rng.standard_normal((n, 8))
        self.tmp = tempfile.TemporaryDirectory(prefix="serve-cache-", dir=scratch)
        # unbudgeted until the first build says what one entry weighs
        self.cache = OperatorCache(directory=self.tmp.name)
        self.svc = SolveService(cache=self.cache, workers=WORKERS)
        self.result = None

    @classmethod
    def for_workload(cls, wl: Workload, cfg: OperatorConfig, seed: int, scratch: str):
        """``serve_mixed`` set-up: ``cold_operators`` distinct geometries."""
        specs = [
            make_spec(replace(cfg, geometry_seed=i), seed, label=f"op{i}")
            for i in range(wl.cold_operators)
        ]
        return cls(wl, specs, seed, scratch)

    @property
    def hot(self) -> list[OperatorSpec]:
        return self.specs[-self.wl.hot_operators :]

    def close(self) -> None:
        self.svc.close()
        self.tmp.cleanup()


def serve_cold_phase(st: ServeState, s: Samples, rec=None) -> None:
    """Every distinct operator requested cold, one after another:
    builds, disk-tier writes and (past the byte budget) evictions."""
    now = time.perf_counter
    for spec in st.specs:
        gc.collect()
        t0 = now()
        with span(rec, "service.cold_request") as idx:
            x = st.svc.submit_solve(spec, st.rhs1).result(timeout=REQUEST_TIMEOUT_S)
        s.add("time_to_solution_s", now() - t0)
        s.ref()
        entry = st.cache.get_or_build(spec)  # resident: the request just built it
        if st.cache.byte_budget is None:
            st.cache.byte_budget = st.wl.cache_operators * entry.nbytes
        if rec:
            rec.add("service.cache.build", t0, t0 + entry.build_seconds, idx)
        residual = relative_residual(entry.operator, x, st.rhs1)
        s.op(
            bool(np.all(np.isfinite(x))) and residual <= RESIDUAL_GATE,
            f"cold request residual {residual:.2e}",
        )


def _client(st: ServeState, svc, plan, out: list, barrier: threading.Barrier) -> None:
    now = time.perf_counter
    submit = {
        "solve1": lambda spec: svc.submit_solve(spec, st.rhs1),
        "solve8": lambda spec: svc.submit_solve(spec, st.rhs8),
        "logdet": lambda spec: svc.submit_logdet(spec),
    }
    barrier.wait()
    for kind, op in plan:
        t0 = now()
        try:
            value = submit[kind](st.hot[op]).result(timeout=REQUEST_TIMEOUT_S)
        except Exception as exc:  # a refused or failed request is a failed op
            out.append((kind, op, now() - t0, None, repr(exc)))
            continue
        out.append((kind, op, now() - t0, value, ""))


def serve_window(
    st: ServeState, s: Samples, rng: np.random.Generator, rec=None, svc=None, prefix="warm"
) -> None:
    """One closed-loop window: ``CLIENTS`` threads, each sending its
    next request only after the previous one completed.  ``svc``
    (default: the state's own service) may be any front door with the
    ``submit_solve``/``submit_logdet`` API, e.g. a fleet."""
    svc = svc if svc is not None else st.svc
    # every client sends the same requests (the mix, spread evenly over
    # the hot operators) in its own seeded order
    mix = [(kind, i % len(st.hot)) for kind, count in MIX for i in range(count)]
    plans = [[mix[i] for i in rng.permutation(len(mix))] for _ in range(CLIENTS)]
    outs: list[list] = [[] for _ in range(CLIENTS)]
    barrier = threading.Barrier(CLIENTS + 1)
    threads = [
        threading.Thread(target=_client, args=(st, svc, plan, out, barrier))
        for plan, out in zip(plans, outs)
    ]
    gc.collect()
    for t in threads:
        t.start()
    with span(rec, f"service.{prefix}"):
        barrier.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
    done = [r for out in outs for r in out]
    add_window(s, prefix, [r[2] for r in done], wall)
    solve1 = [r[2] for r in done if r[0] == "solve1"]
    s.add(f"{prefix}_solve1_p50_s", float(np.median(solve1)))
    s.ref()
    checked = False
    for kind, op, _, value, err in done:
        ok = value is not None and bool(np.all(np.isfinite(value)))
        what = err or f"{kind} returned non-finite data"
        if ok and kind == "solve1" and not checked:
            # one residual check per window, outside the timed region
            checked = True
            operator = st.cache.get_or_build(st.hot[op]).operator
            residual = relative_residual(operator, value, st.rhs1)
            ok, what = residual <= RESIDUAL_GATE, f"served residual {residual:.2e}"
        s.op(ok, what)


def serve_round(st: ServeState, s: Samples, rng: np.random.Generator, rec=None) -> None:
    """One closed-loop window, then the most recent hot operator
    factorized directly on each engine (the single-threaded baseline
    and both parallel engines at the served tile size)."""
    serve_window(st, s, rng, rec)
    gc.collect()
    pristine = st.cache.get_or_build(st.hot[-1]).operator
    st.result, _ = factorize("serial", pristine, s, rec)
    s.ref()
    s.op(True)
    parallel_engines(pristine, st.result, s, rec)
