"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Library version and available machine models / configurations.
``factorize``
    Real-numerics TLR Cholesky on a synthetic virus workload; prints
    density, rank statistics, task counts and the factorization
    residual.
``simulate``
    At-scale performance estimation (the analytic model) for a chosen
    machine, node count and framework configuration.
``deform``
    End-to-end RBF mesh deformation demo.
``tune``
    Model-driven tile-size auto-tuning (:mod:`repro.machine.autotune`)
    for a chosen machine, node count and matrix size.
``serve``
    In-process demo of the batched, cached solve-serving subsystem
    (:mod:`repro.service`); prints cache/batch/latency metrics.
``serve-fleet``
    Sharded serving-fleet demo (:class:`repro.service.FleetService`):
    consistent-hash routing over supervised shard processes, with
    optional mid-run chaos (``--kill-shard``) to demonstrate failover
    replay and warm respawn.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Data-sparse TLR Cholesky (HiCMA-PaRSEC reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and model inventory")

    f = sub.add_parser("factorize", help="real-numerics TLR Cholesky demo")
    f.add_argument("--viruses", type=int, default=4)
    f.add_argument("--points-per-virus", type=int, default=400)
    f.add_argument("--tile-size", type=int, default=200)
    f.add_argument("--accuracy", type=float, default=1e-6)
    f.add_argument("--shape-multiplier", type=float, default=30.0,
                   help="shape parameter as a multiple of half min spacing")
    f.add_argument("--no-trim", action="store_true",
                   help="disable DAG trimming (Lorapo-style full DAG)")
    f.add_argument("--workers", type=int, default=None,
                   help="DAG worker threads (default $REPRO_WORKERS or "
                        "serial; 0 = one per core)")
    f.add_argument("--engine", type=str, default=None,
                   choices=["threads", "serial"],
                   help="executor at --workers > 1: 'threads' (default; "
                        "GIL-bound glue, BLAS overlaps) or 'serial'; "
                        "the factor is bitwise identical on both")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--trace", type=str, default=None,
                   help="write a Chrome trace JSON of the execution "
                        "(one lane per worker)")
    f.add_argument("--inject-faults", type=str, default=None, metavar="SPEC",
                   help="deterministic fault plan, e.g. 'all:0.1' or "
                        "'GEMM:0.2,TRSM:delay:0.05' "
                        "(CLASS:RATE or CLASS:KIND:RATE, kinds: "
                        "transient/delay/corrupt/crash/bitflip; 'crash' "
                        "kills the process with exit 137, 'bitflip' "
                        "silently flips one bit of an operand tile)")
    f.add_argument("--max-retries", type=int, default=3,
                   help="per-task transient-failure retries with tile "
                        "rollback (0 = fail fast with TaskFailedError)")
    f.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the injected fault plan")
    f.add_argument("--checkpoint-dir", type=str, default=None, metavar="DIR",
                   help="periodically checkpoint the completed-task "
                        "frontier + dirty tiles into DIR (atomic, "
                        "checksummed); a killed run resumes with --resume")
    f.add_argument("--checkpoint-every", type=int, default=25, metavar="N",
                   help="checkpoint cadence in retired tasks "
                        "(default: 25)")
    f.add_argument("--checkpoint-every-seconds", type=float, default=None,
                   metavar="S",
                   help="additional wall-clock checkpoint cadence")
    f.add_argument("--resume", action="store_true",
                   help="resume from the newest valid checkpoint in "
                        "--checkpoint-dir (fresh run if none); the "
                        "resumed factor is bitwise identical to an "
                        "uninterrupted run")
    f.add_argument("--verify-tiles", action="store_true",
                   help="verify per-tile SHA-256 checksums before every "
                        "kernel and once at run end (also: "
                        "$REPRO_VERIFY_TILES=1)")
    f.add_argument("--save-factor", type=str, default=None, metavar="PATH",
                   help="save the computed factor as one sealed tile "
                        "file, raw panels with per-tile SHA-256 digests "
                        "(atomic write; conventionally *.tlr)")

    s = sub.add_parser("simulate", help="at-scale performance estimate")
    s.add_argument("--machine", choices=["shaheen", "fugaku"], default="shaheen")
    s.add_argument("--nodes", type=int, default=512)
    s.add_argument("--matrix-size", type=float, default=2.99e6)
    s.add_argument("--tile-size", type=int, default=0,
                   help="0 = the paper's sqrt(N) tuning rule")
    s.add_argument("--shape", type=float, default=3.7e-4)
    s.add_argument("--accuracy", type=float, default=1e-4)
    s.add_argument(
        "--config",
        choices=["lorapo", "trim", "band", "hicma"],
        default="hicma",
    )

    d = sub.add_parser("deform", help="RBF mesh deformation demo")
    d.add_argument("--points", type=int, default=1000)
    d.add_argument("--angle-degrees", type=float, default=5.0)
    d.add_argument("--accuracy", type=float, default=1e-6)

    t = sub.add_parser("tune", help="model-driven tile-size auto-tuning")
    t.add_argument("--machine", choices=["shaheen", "fugaku"], default="shaheen")
    t.add_argument("--nodes", type=int, default=64)
    t.add_argument("--matrix-size", type=float, default=2.99e6)
    t.add_argument("--shape", type=float, default=3.7e-4)
    t.add_argument("--accuracy", type=float, default=1e-4)

    sv = sub.add_parser(
        "serve", help="in-process solve-serving demo (repro.service)"
    )
    sv.add_argument("--viruses", type=int, default=2)
    sv.add_argument("--points-per-virus", type=int, default=200)
    sv.add_argument("--tile-size", type=int, default=100)
    sv.add_argument("--accuracy", type=float, default=1e-6)
    sv.add_argument("--operators", type=int, default=2,
                    help="number of distinct cached operators to serve")
    sv.add_argument("--requests", type=int, default=48,
                    help="total solve/logdet requests to fire")
    sv.add_argument("--workers", type=int, default=2)
    sv.add_argument("--factor-workers", type=int, default=None,
                    help="DAG worker threads for cache-miss "
                         "factorizations (0 = one per core)")
    sv.add_argument("--backlog", type=int, default=256)
    sv.add_argument("--max-inflight", type=int, default=None,
                    help="admission-control cap on in-flight requests; "
                         "excess submissions shed with a Retry-After "
                         "hint (default: uncapped)")
    sv.add_argument("--request-timeout", type=float, default=None,
                    help="per-request deadline in seconds, propagated "
                         "through every pipeline stage (default: none)")
    sv.add_argument("--drain", action="store_true",
                    help="after serving, run the graceful drain "
                         "protocol (stop admissions, flush, seal the "
                         "cache for warm handoff) and print its summary")
    sv.add_argument("--max-batch", type=int, default=16)
    sv.add_argument("--cache-budget-mb", type=float, default=None,
                    help="resident-bytes LRU budget (default: unbounded)")
    sv.add_argument("--cache-dir", type=str, default=None,
                    help="disk persistence directory for built factors")
    sv.add_argument("--trace", type=str, default=None,
                    help="write a Chrome trace JSON of the serving run")
    sv.add_argument("--seed", type=int, default=0)

    fl = sub.add_parser(
        "serve-fleet", help="sharded serving-fleet demo (repro.service.fleet)"
    )
    fl.add_argument("--shards", type=int, default=2,
                    help="shard processes behind the front door")
    fl.add_argument("--replication", type=int, default=2,
                    help="preference-list length for hot operators "
                         "(primary + replicas; 1 disables replication)")
    fl.add_argument("--kill-shard", type=int, default=None, metavar="I",
                    help="chaos: SIGKILL shard I halfway through the "
                         "request stream and report the failover")
    fl.add_argument("--operators", type=int, default=3,
                    help="distinct operators routed across the fleet")
    fl.add_argument("--requests", type=int, default=48,
                    help="total solve/logdet requests to fire")
    fl.add_argument("--viruses", type=int, default=2)
    fl.add_argument("--points-per-virus", type=int, default=200)
    fl.add_argument("--tile-size", type=int, default=100)
    fl.add_argument("--accuracy", type=float, default=1e-6)
    fl.add_argument("--workers-per-shard", type=int, default=2)
    fl.add_argument("--cache-dir", type=str, default=None,
                    help="shared sealed-cache directory (the warm-handoff "
                         "medium; default: private temp dir)")
    fl.add_argument("--request-timeout", type=float, default=60.0,
                    help="per-request end-to-end deadline in seconds")
    fl.add_argument("--heartbeat-interval", type=float, default=0.1)
    fl.add_argument("--checkpoint-interval", type=float, default=2.0,
                    help="seconds between periodic cache seals in each "
                         "shard (bounds respawn-to-warm time)")
    fl.add_argument("--seed", type=int, default=0)

    return p


def _cmd_info() -> int:
    import repro
    from repro import FUGAKU, SHAHEEN_II

    print(f"repro {repro.__version__} — HiCMA-PaRSEC reproduction (IPDPS'22)")
    print("\nmachine models:")
    for m in (SHAHEEN_II, FUGAKU):
        print(
            f"  {m.name:12s} {m.cores_per_node} cores/node, "
            f"{m.core_gemm_flops/1e9:.0f} Gflop/s/core, "
            f"{m.network_bandwidth/1e9:.1f} GB/s network"
        )
    print("\nframework configurations: lorapo, trim, band, hicma")
    return 0


def _cmd_factorize(args) -> int:
    from repro import (
        RBFMatrixGenerator,
        TLRMatrix,
        min_spacing,
        tlr_cholesky,
        virus_population,
    )

    pts = virus_population(
        args.viruses, points_per_virus=args.points_per_virus, seed=args.seed
    )
    delta = 0.5 * min_spacing(pts) * args.shape_multiplier
    gen = RBFMatrixGenerator(
        pts, delta, tile_size=args.tile_size, nugget=100 * args.accuracy
    )
    a = TLRMatrix.from_generator(gen, args.accuracy)
    stats = a.off_diagonal_rank_stats()
    print(f"N={gen.n}, NT={a.n_tiles}, density={a.density():.3f}, "
          f"ranks max/avg {stats['max']:.0f}/{stats['avg']:.1f}")
    if a.compression_stats is not None:
        cs = a.compression_stats.to_dict()
        print(f"compression: svd={cs['svd_tiles']} "
              f"svd-fallback={cs['svd_fallback']} "
              f"screened-null={cs['screened_null']} "
              f"bound-null={cs['bound_null']} "
              f"sampled-rank avg/max {cs['sampled_rank_avg']:.1f}/"
              f"{cs['sampled_rank_max']}")
    from repro.runtime.faults import (
        FaultInjector,
        FaultPlan,
        RetryPolicy,
        TaskFailedError,
    )
    from repro.runtime.parallel import resolve_workers

    injector = None
    retry = None
    if args.inject_faults:
        # hard_crash: an injected 'crash' takes the whole process down
        # with exit 137 (SIGKILL semantics) — the checkpoint/resume
        # path is exercised exactly as a real kill would.
        injector = FaultInjector(
            FaultPlan.parse(args.inject_faults, seed=args.fault_seed),
            hard_crash=True,
        )
        if args.max_retries > 0:
            retry = RetryPolicy(
                max_retries=args.max_retries, backoff_seconds=0.001
            )
    manager = None
    resume_from = None
    if args.checkpoint_dir:
        from repro.runtime.checkpoint import CheckpointManager, load_checkpoint

        manager = CheckpointManager(
            args.checkpoint_dir,
            every_tasks=args.checkpoint_every,
            every_seconds=args.checkpoint_every_seconds,
        )
        if args.resume:
            resume_from = load_checkpoint(args.checkpoint_dir)
            if resume_from is None:
                print("no usable checkpoint found; starting from scratch")
    elif args.resume:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    nworkers = resolve_workers(args.workers)
    try:
        result = tlr_cholesky(
            a,
            trim=not args.no_trim,
            workers=args.workers,
            fault_injector=injector,
            retry=retry,
            checkpoint=manager,
            resume_from=resume_from,
            verify_tiles=True if args.verify_tiles else None,
            engine=args.engine,
        )
    except TaskFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if injector is not None:
            print(f"faults injected: {dict(injector.counters)}", file=sys.stderr)
        return 1
    print(f"tasks: {len(result.graph)} {result.graph.task_counts()}")
    print(f"factorization: {result.elapsed:.3f} s "
          f"({'trimmed' if not args.no_trim else 'full DAG'}, "
          f"{nworkers} worker{'s' if nworkers != 1 else ''})")
    if injector is not None:
        print(f"faults injected: {injector.counters.get('total', 0)} "
              f"{dict(injector.counters)}")
        print(f"task retries: {result.retries} "
              f"(max {args.max_retries} per task)")
    if manager is not None:
        print(f"checkpoints: {result.checkpoints_written} written, "
              f"{result.resumed_tasks} tasks resumed, "
              f"{result.tiles_healed} tiles healed")
    print(f"residual: {result.residual(gen.dense()):.2e}")
    if args.save_factor:
        from repro.linalg.serialization import save_tlr

        save_tlr(result.factor, args.save_factor)
        print(f"factor written to {args.save_factor}")
    if args.trace:
        result.trace.save_chrome_trace(
            args.trace, process_name="repro.factorize", label_worker_lanes=True
        )
        print(f"trace written to {args.trace}")
    return 0


def _cmd_simulate(args) -> int:
    from repro import FUGAKU, SHAHEEN_II, AnalyticModel, SyntheticRankField
    from repro.core.hicma_parsec import BAND_ONLY, HICMA_PARSEC, TRIM_ONLY
    from repro.core.lorapo import LORAPO

    machine = SHAHEEN_II if args.machine == "shaheen" else FUGAKU
    config = {
        "lorapo": LORAPO,
        "trim": TRIM_ONLY,
        "band": BAND_ONLY,
        "hicma": HICMA_PARSEC,
    }[args.config]
    n = int(args.matrix_size)
    b = args.tile_size or max(256, int(2440 * np.sqrt(n / 2.99e6)))
    field = SyntheticRankField.from_parameters(
        n, b, shape_parameter=args.shape, accuracy=args.accuracy
    )
    r = AnalyticModel(machine, args.nodes, config).factorization_time(field)
    print(f"{config.name} on {machine.name}, {args.nodes} nodes")
    print(f"N={n/1e6:.2f}M, tile {b}, NT={field.nt}, "
          f"density {r.initial_density:.4f} -> {r.final_density:.4f}")
    print(f"time-to-solution : {r.makespan:10.2f} s")
    print(f"  critical path  : {r.t_critical_path:10.2f} s")
    print(f"  work           : {r.t_work:10.2f} s")
    print(f"  communication  : {r.t_comm:10.2f} s")
    print(f"tasks            : {r.n_tasks:,} ({r.n_null_tasks:,} null)")
    print(f"cp efficiency    : {r.cp_efficiency:.1%}")
    return 0


def _cmd_deform(args) -> int:
    from repro import RBFMeshDeformation, random_cloud, synthetic_virus
    from repro.apps import rigid_rotation

    boundary = synthetic_virus(n_points=args.points, seed=0)
    d_b = rigid_rotation(boundary, angle=np.deg2rad(args.angle_degrees))
    volume = random_cloud(300, extent=0.3, seed=1) - 0.15
    solver = RBFMeshDeformation(boundary, accuracy=args.accuracy)
    res = solver.deform(volume, d_b)
    print(f"boundary points   : {len(boundary)}")
    print(f"boundary error    : {res.boundary_error:.2e}")
    print(f"max volume motion : {np.abs(res.volume_displacements).max():.2e}")
    for k, v in res.timings.items():
        if isinstance(v, float):
            print(f"  {k:26s}: {v:.3f}")
    return 0


def _cmd_tune(args) -> int:
    from repro import FUGAKU, SHAHEEN_II
    from repro.core.hicma_parsec import HICMA_PARSEC
    from repro.machine.autotune import tune_tile_size

    machine = SHAHEEN_II if args.machine == "shaheen" else FUGAKU
    res = tune_tile_size(
        machine,
        args.nodes,
        HICMA_PARSEC,
        n=int(args.matrix_size),
        shape_parameter=args.shape,
        accuracy=args.accuracy,
    )
    print(f"tile-size tuning on {machine.name}, {args.nodes} nodes, "
          f"N={args.matrix_size/1e6:.2f}M")
    for b, t in res.evaluations:
        marker = "  <-- best" if b == res.best_tile_size else ""
        print(f"  b={b:6d}: {t:10.2f} s{marker}")
    return 0


def _cmd_serve(args) -> int:
    from repro.geometry import min_spacing, virus_population
    from repro.service import OperatorCache, OperatorSpec, SolveService

    budget = (
        int(args.cache_budget_mb * 1e6) if args.cache_budget_mb else None
    )
    cache = OperatorCache(byte_budget=budget, directory=args.cache_dir)
    specs = []
    for i in range(args.operators):
        pts = virus_population(
            args.viruses,
            points_per_virus=args.points_per_virus,
            cube_edge=1.7,
            seed=args.seed + i,
        )
        specs.append(
            OperatorSpec(
                points=pts,
                shape_parameter=0.5 * min_spacing(pts) * 40,
                tile_size=args.tile_size,
                accuracy=args.accuracy,
                nugget=1e-4,
                label=f"op-{i}",
            )
        )
    rng = np.random.default_rng(args.seed)
    from repro.service import ServiceError

    shed = 0
    drain_summary = None
    with SolveService(
        cache=cache,
        workers=args.workers,
        backlog=args.backlog,
        max_batch=args.max_batch,
        factor_workers=args.factor_workers,
        max_inflight=args.max_inflight,
    ) as svc:
        handles = []
        for i in range(args.requests):
            spec = specs[i % len(specs)]
            try:
                if i % 8 == 7:
                    handles.append(
                        svc.submit_logdet(spec, timeout=args.request_timeout)
                    )
                else:
                    handles.append(
                        svc.submit_solve(
                            spec,
                            rng.standard_normal(spec.n),
                            timeout=args.request_timeout,
                        )
                    )
            except ServiceError:
                shed += 1  # admission control: typed, synchronous
        for h in handles:
            try:
                h.result()
            except ServiceError:
                shed += 1  # expired in the pipeline: typed, async
        if args.drain:
            drain_summary = svc.drain()
        snapshot = svc.metrics.to_dict()
        if args.trace:
            names = {1 + w: f"solve-worker-{w}" for w in range(args.workers)}
            svc.metrics.save_chrome_trace(
                args.trace, process_name="repro.service", thread_names=names
            )
    print(f"served {args.requests} requests over {args.operators} operator(s), "
          f"{args.workers} worker(s)")
    c = snapshot["counters"]
    print(f"completed={c.get('completed', 0)} "
          f"builds={c.get('cache_builds', 0)} "
          f"hit-rate={snapshot['cache_hit_rate']:.2%} "
          f"resident={snapshot['bytes_resident']/1e6:.1f} MB")
    b = snapshot["batch"]
    print(f"batches: {b['count']} (mean size {b['mean']:.1f}, max {b['max']})")
    for kind, lat in sorted(snapshot["latency_seconds"].items()):
        print(f"latency[{kind}]: p50 {lat['p50']*1e3:.1f} ms, "
              f"p90 {lat['p90']*1e3:.1f} ms, p99 {lat['p99']*1e3:.1f} ms")
    if shed:
        print(f"shed/expired: {shed} "
              f"(admission={c.get('shed_admission', 0)}, "
              f"backlog={c.get('rejected_backlog', 0)}, "
              f"expired={c.get('expired', 0)})")
    if drain_summary is not None:
        print(f"drain: completed={drain_summary['drained']} "
              f"in {drain_summary['drain_seconds']*1e3:.0f} ms, "
              f"sealed {drain_summary['sealed_entries']} cache entries, "
              f"{drain_summary['inflight_remaining']} left in flight")
    if args.trace:
        print(f"trace written to {args.trace}")
    return 0


def _cmd_serve_fleet(args) -> int:
    from repro.geometry import min_spacing, virus_population
    from repro.service import FleetService, OperatorSpec, ServiceError

    specs = []
    for i in range(args.operators):
        pts = virus_population(
            args.viruses,
            points_per_virus=args.points_per_virus,
            cube_edge=1.7,
            seed=args.seed + i,
        )
        specs.append(
            OperatorSpec(
                points=pts,
                shape_parameter=0.5 * min_spacing(pts) * 40,
                tile_size=args.tile_size,
                accuracy=args.accuracy,
                nugget=1e-4,
                label=f"op-{i}",
            )
        )
    rng = np.random.default_rng(args.seed)
    shed = 0
    killed = None
    with FleetService(
        shards=args.shards,
        replication=args.replication,
        workers_per_shard=args.workers_per_shard,
        cache_dir=args.cache_dir,
        heartbeat_interval=args.heartbeat_interval,
        checkpoint_interval=args.checkpoint_interval,
    ) as fleet:
        print(f"fleet up: {len(fleet.live_shards())} shard(s) "
              f"{fleet.live_shards()}")
        handles = []
        for i in range(args.requests):
            spec = specs[i % len(specs)]
            try:
                if i % 8 == 7:
                    handles.append(
                        fleet.submit_logdet(spec, timeout=args.request_timeout)
                    )
                else:
                    handles.append(
                        fleet.submit_solve(
                            spec,
                            rng.standard_normal(spec.n),
                            timeout=args.request_timeout,
                        )
                    )
            except ServiceError:
                shed += 1
            if args.kill_shard is not None and i == args.requests // 2:
                try:
                    pid = fleet.kill_shard(args.kill_shard)
                    killed = (f"shard-{args.kill_shard}", pid)
                    print(f"chaos: SIGKILLed shard-{args.kill_shard} "
                          f"(pid {pid}) mid-stream")
                except ServiceError as exc:
                    print(f"chaos: {exc}", file=sys.stderr)
        failed = 0
        for h in handles:
            try:
                h.result()
            except ServiceError:
                failed += 1
        snapshot = fleet.metrics.to_dict()
        report = fleet.report()
        statuses = fleet.status()
    c = snapshot["counters"]
    print(f"served {args.requests} requests over {args.operators} operator(s), "
          f"{args.shards} shard(s), replication {args.replication}")
    print(f"completed={c.get('completed', 0)} failed={failed} shed={shed} "
          f"replayed={report['requests_replayed']} "
          f"stale={report['stale_results']}")
    for kind, lat in sorted(snapshot.get("latency_seconds", {}).items()):
        print(f"latency[{kind}]: p50 {lat['p50']*1e3:.1f} ms, "
              f"p99 {lat['p99']*1e3:.1f} ms")
    for s in statuses:
        print(f"  {s.name}: {s.state} epoch={s.epoch} "
              f"completed={s.completed} cache={s.cache_entries}")
    if killed is not None:
        print(f"failover: killed {killed[0]} (pid {killed[1]}); "
              f"respawns={report['supervisor']['respawns']}, "
              f"replayed={report['requests_replayed']}, "
              f"verified-identical={report['replay_verified_identical']}, "
              f"mismatches={report['replay_mismatch']}")
        if report["respawns"]:
            r = report["respawns"][-1]
            print(f"respawn: {r['shard']} back in "
                  f"{r['respawn_seconds']*1e3:.0f} ms with "
                  f"{r['warm_disk_entries']} warm disk entries")
    return 1 if (failed and killed is None) else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "factorize":
        return _cmd_factorize(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "deform":
        return _cmd_deform(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "serve-fleet":
        return _cmd_serve_fleet(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
