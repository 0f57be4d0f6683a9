"""One workload in one fresh process (spawned by ``run.py``).

Prints one JSON object as the last line of stdout: end-to-end metric
values (``--trace 0``) or per-layer metric values (``--trace 1``), the
op ledger, and the diagnostics the harness keeps beside them.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: fewest reps (library) or closed-loop rounds (serve) behind a metric
MIN_REPS = 10


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() in the parent just before the spawn")
    ap.add_argument("--out", required=True, help="directory for traces and cache files")
    ap.add_argument("--tag", default="", help="unique argv token for leak scans")
    return ap.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    """Set up and run one workload; returns what ``main`` prints."""
    import numpy as np
    import scipy

    import workloads as W

    wl = W.WORKLOADS[args.workload]
    cfg = wl.quick if args.quick else wl.operator
    os.makedirs(args.out, exist_ok=True)

    # ---- set-up: interpreter start -> first timed rep ready
    if wl.kind == "library":
        st = W.LibraryState(wl, cfg, args.seed)
    else:
        st = W.ServeState.for_workload(wl, cfg, args.seed, scratch=args.out)
    try:
        setup_raw = time.time() - args.spawned_at
        s = W.Samples()
        W.reference()  # the first call pays one-off BLAS warm-up
        s.add("setup_s", setup_raw)
        s.ref()
        s.ref()
        if args.setup_only:
            return {"setup_s": s.median("setup_s")}

        min_reps = 2 if args.quick else MIN_REPS
        t_begin = time.perf_counter()
        reps = 0

        def more() -> bool:
            return reps < min_reps or time.perf_counter() - t_begin < args.seconds

        layer_table = None
        if args.trace:
            import layers

            metrics, layer_table = layers.traced_run(wl, st, s, args)
        elif wl.kind == "library":
            while more():
                W.library_rep(st, s)
                reps += 1
            metrics = W.end_to_end(s, st.result.factor, W.WARM_SOLVES)
        else:
            W.serve_cold_phase(st, s)
            rng = np.random.default_rng([args.seed, 3])
            while more():
                W.serve_round(st, s, rng)
                reps += 1
            metrics = W.end_to_end(s, st.result.factor, W.WINDOW_REQUESTS)
    finally:
        st.close()

    leaked = multiprocessing.active_children()
    s.op(not leaked, f"child processes survived the workload: {leaked}")

    if not args.trace:
        metrics["setup_s"] = s.median("setup_s")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "affinity": sorted(os.sched_getaffinity(0)),
        },
        "metrics": metrics,
        "attempted": s.attempted,
        "failed": s.failed,
        "violations": s.violations[:20],
        "ref_ms": 1e3 * float(np.median(s.refs)),
        "samples": {k: len(v) for k, v in s.raw.items()},
        "raw_medians": {k: float(np.median(v)) for k, v in s.raw.items()},
    }
    if layer_table is not None:
        out["layer_table"] = layer_table
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # One core for everything gated (threads and forked workers
    # inherit it).  Left to the scheduler, two GIL-bound threads land on
    # one core or on two for minutes at a time, and the same code reads
    # 0.11 or 0.19 s (README.md, "One core").
    args.all_cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(args.all_cpus)})
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found beside bench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
