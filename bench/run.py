#!/usr/bin/env python3
"""One benchmark for the whole repo: four real-numerics workloads,
machine-normalised end-to-end metrics, a per-module layer table.

    python bench/run.py                       # all workloads, end to end
    python bench/run.py --workload sparse_tts --seed 3
    python bench/run.py --layers              # traced pass: per-layer table
    python bench/run.py --aa                  # A/A noise floor vs the bounds
    python bench/run.py --record              # append records to history.jsonl
    python bench/run.py --quick               # tiny sizes (smoke test)

Metric names, units and bounds are read from ``BENCHMARK.json``; this
script refuses to report a run that does not emit every one of them.
The last stdout line of a single-workload run is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
HISTORY = BENCH / "history.jsonl"
NOISE_FLOOR = BENCH / "noise_floor.json"

#: extra set-up-only processes per run: ``setup_s`` is the median over
#: these and the measuring process's own set-up
SETUP_PROBES = 4
#: runs per side of ``--aa``
AA_RUNS = 5
#: one workload (probes and measuring process) must end within this
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def child_env() -> dict:
    """Single-threaded BLAS: engine workers and service clients are the
    only parallelism, so load never exceeds the worker/client count.
    ``REPRO_*`` variables would change what the program does."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def survivors(tag: str) -> list[str]:
    """Processes still alive that descend from a tagged worker (forked
    mp workers and shards inherit its argv) or carry a shard title."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path("/proc", pid, "cmdline").read_bytes().decode(errors="replace")
            comm = Path("/proc", pid, "comm").read_text().strip()
        except OSError:
            continue
        if tag in cmdline or comm.startswith("tlr-shard"):
            found.append(f"{pid}:{comm}")
    return found


def spawn(args, workload: str, tag: str, setup_only: bool, deadline: float) -> dict:
    """One worker process in its own process group, killed as a group
    if it outlives ``deadline``."""
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(OUT),
        "--tag", tag,
    ]
    if args.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload}: worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(args, workload: str, contract: dict) -> dict:
    """One workload in fresh processes; returns the contract's result
    object plus diagnostics under ``_`` keys."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    tag = f"bench-tag-{os.getpid()}-{time.monotonic_ns()}"
    shm_before = shm_segments()
    setups = []
    if not args.trace:
        setups = [
            spawn(args, workload, tag, True, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
    res = spawn(args, workload, tag, False, deadline)
    values = res["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups + [values["setup_s"]])

    # two more ops: nothing may outlive the workload
    attempted, failed, violations = res["attempted"], res["failed"], list(res["violations"])
    for what, leaked in (
        ("processes survived the workload", survivors(tag)),
        ("/dev/shm segments leaked", sorted(shm_segments() - shm_before)),
    ):
        attempted += 1
        if leaked:
            failed += 1
            violations.append(f"{what}: {leaked}")

    declared = contract["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{workload}: metrics not emitted: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
        "_violations": violations,
        "_stamp": stamp(args, res),
        "_layer_table": res.get("layer_table"),
    }


def public(result: dict) -> dict:
    return {k: v for k, v in result.items() if not k.startswith("_")}


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def stamp(args, res: dict) -> dict:
    """The environment a record was measured in."""
    return {
        "commit": git_commit(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "blas_threads": 1,
        **res["env"],
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "ref_ms": res["ref_ms"],
        "samples": res["samples"],
        "raw_medians": res["raw_medians"],
    }


def print_result(workload: str, result: dict) -> None:
    st = result["_stamp"]
    print(f"\n== {workload}  seed {st['seed']}  (nominal-machine units; raw medians in history)")
    print(
        f"   commit {st['commit'][:12]}  cpus {st['cpu_count']} (on {st['affinity']})  {st['blas']} x{st['blas_threads']}"
        f"  python {st['python']}  numpy {st['numpy']}  scipy {st['scipy']}  ref {st['ref_ms']:.1f} ms"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'ops_attempted':44s} {result['attempted']:14d} count")
    print(f"  {'ops_failed':44s} {result['failed']:14d} count")
    for v in result["_violations"]:
        print(f"  VIOLATION: {v}")
    if result["_layer_table"]:
        print(f"\n  {'span':40s} {'calls':>7s} {'total s':>10s} {'self s':>10s} {'of parent':>10s}")
        for row in result["_layer_table"]:
            print(
                f"  {row['name']:40s} {row['calls']:7d} {row['total_s']:10.4f} "
                f"{row['self_s']:10.4f} {100 * row['share_of_parent']:9.1f}%"
            )


def record(args, workload: str, result: dict) -> None:
    """Append (never overwrite) one stamped record to history.jsonl."""
    entry = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload,
        "trace": args.trace,
        **result["_stamp"],
        **public(result),
    }
    with open(HISTORY, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median -- the statistic this benchmark is accepted on."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def run_aa(args, workloads: list[str], contract: dict) -> int:
    """Two interleaved sets of runs of the same tree, one seed each:
    per (workload, metric) the medians of both sets must agree within
    the metric's bound, and the spread of all runs must stay inside it.
    The measured floor is written beside the bounds' file."""
    sets: dict[str, tuple[dict, dict]] = {w: ({}, {}) for w in workloads}
    failed_ops = 0
    for i in range(2 * AA_RUNS):
        for w in workloads:
            args.seed = i
            result = run_workload(args, w, contract)
            failed_ops += result["failed"]
            if args.record:
                record(args, w, result)
            for name, m in result["metrics"].items():
                sets[w][i % 2].setdefault(name, []).append(m["value"])
    over = failed_ops > 0
    floor = {}
    print(f"{'workload':14s} {'metric':22s} {'median A':>12s} {'median B':>12s} "
          f"{'gap':>7s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        for meta in contract["end_to_end"]:
            name, bound = meta["name"], meta["bound"]
            a, b = sets[w][0][name], sets[w][1][name]
            am, bm = statistics.median(a), statistics.median(b)
            gap, iqr = abs(bm - am) / am, spread(a + b)
            # set-up's spread is not gated: only its medians are
            bad = gap > bound or (iqr > bound and name != "setup_s")
            over |= bad
            floor[f"{w}/{name}"] = {
                "median_a": am, "median_b": bm, "gap": gap, "spread": iqr, "bound": bound,
                "runs_a": a, "runs_b": b,
            }
            print(f"{w:14s} {name:22s} {am:12.5g} {bm:12.5g} {100 * gap:6.1f}% "
                  f"{100 * iqr:6.1f}% {100 * bound:5.1f}%" + ("  OVER" if bad else ""))
    if failed_ops:
        print(f"{failed_ops} failed ops")
    with open(NOISE_FLOOR, "w") as f:
        json.dump({"commit": git_commit(), "cpu_count": os.cpu_count(),
                   "runs_per_side": AA_RUNS, "seconds": args.seconds,
                   "pairs": floor}, f, indent=1, sort_keys=True)
        f.write("\n")
    return int(over)


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=names, help="default: all, one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--layers", action="store_true", help="same as --trace 1")
    ap.add_argument("--quick", action="store_true", help="tiny sizes, 2 reps")
    ap.add_argument("--aa", action="store_true", help="A/A comparison against the bounds")
    ap.add_argument("--record", action="store_true", help="append records to history.jsonl")
    args = ap.parse_args(argv)
    if args.layers:
        args.trace = 1
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found beside bench/", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workloads = [args.workload] if args.workload else names
    if args.aa:
        return run_aa(args, workloads, contract)

    status = 0
    for w in workloads:
        result = run_workload(args, w, contract)
        print_result(w, result)
        if args.record:
            record(args, w, result)
        if not result["correct"]:
            status = 1
        print(json.dumps(public(result)), flush=True)
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(3)
