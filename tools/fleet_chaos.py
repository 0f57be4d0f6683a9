#!/usr/bin/env python3
"""Shard-kill chaos probe: what the serving fleet's mechanisms buy when a
shard dies.

One run starts a 2-shard fleet (one worker lane per shard) over a few
virus-population operators plus one operator whose build always fails
(a multiquadric kernel with no nugget: POTRF breaks down).  Closed-loop
clients send solves and logdets with deadlines, one more client keeps
asking for the failing operator, and a third of the way into the window
the probe SIGKILLs the primary shard of the hottest operator, which is
also the failing operator's primary.  It reports

* admitted, lost, late and failed requests on the servable operators
  (lost: settled by ``ShardFailedError`` / ``ShardUnavailableError`` or
  never settled; late: ``DeadlineExpiredError`` or answered past the
  deadline; requests refused at submit are not admitted);
* the window's p50 and p99 latency and the respawn-to-ready time;
* the failing operator's requests submitted after the respawned shard
  came up, by error type (``CircuitOpenError``: refused without a
  build; a build failure: charged ``1 + build_retries`` builds), and
  the builds of it that the respawned and the surviving shard ran;
* the fleet's failover counters (replayed requests, replay mismatches).

``--ablate`` switches one mechanism off, in this process before any
shard forks:

* ``replay``: each parked request is settled with ``ShardFailedError``
  instead of being re-sent to the next owner of its key;
* ``prewarm`` / ``handoff``: the hot-operator replica prewarm
  (``replication=1``) and the breaker-state handoff on respawn (a no-op
  ``SolveService.import_handoff``).  Neither moved a lost, late or p99
  number in this probe and both were deleted, so these two arms run
  only on a tree that still has them (commit 6cf25cc and before).

``--pairs N`` runs N interleaved baseline/ablated pairs (seed i for
pair i, the order alternating), each run in a fresh process, and
prints one TSV row per run.

Usage::

    python tools/fleet_chaos.py --quick                    # one short run
    python tools/fleet_chaos.py --ablate replay --pairs 10 > ab.tsv

A single run without ``--ablate`` exits 1 if any admitted request was
lost or any replayed answer disagreed with the original.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.geometry import min_spacing, random_cloud, virus_population  # noqa: E402
from repro.service import (  # noqa: E402
    CircuitOpenError,
    ConsistentHashRing,
    FleetService,
    OperatorSpec,
    ServiceError,
    ShardFailedError,
    ShardUnavailableError,
    SolveService,
)
from repro.service.errors import DeadlineExpiredError  # noqa: E402

ARMS = ("none", "prewarm", "handoff", "replay")
FIELDS = (
    "seed", "ablate", "admitted", "lost", "late", "failed", "refused",
    "p50_ms", "p99_ms", "respawn_s", "bad_open_after_respawn",
    "bad_build_failed_after_respawn", "bad_builds_respawned",
    "bad_builds_survivor", "requests_replayed", "replay_mismatch",
)


def operators(seed: int, count: int) -> list[OperatorSpec]:
    """``count`` servable virus-population operators (N = 200, NT = 4)."""
    specs = []
    for i in range(count):
        pts = virus_population(2, points_per_virus=100, cube_edge=1.7, seed=100 * seed + i)
        specs.append(OperatorSpec(points=pts, shape_parameter=20 * min_spacing(pts),
                                  tile_size=50, accuracy=1e-6, nugget=1e-4))
    return specs


def failing_operator(owner: str) -> OperatorSpec:
    """A conditionally positive definite operator (its build always
    fails) whose primary shard on a 2-shard ring is ``owner``."""
    ring = ConsistentHashRing(["shard-0", "shard-1"])
    for k in range(1, 100):
        spec = OperatorSpec(points=random_cloud(60, seed=k), shape_parameter=0.05,
                            tile_size=30, accuracy=1e-6, nugget=0.0, kernel="multiquadric")
        if ring.lookup(spec.fingerprint) == owner:
            return spec
    raise RuntimeError(f"no failing operator lands on {owner}")


def ablate(arm: str, build_log: Path) -> dict:
    """Switch ``arm`` off; returns extra ``FleetService`` arguments.
    Also logs every build of the failing operator, with the pid of the
    shard that ran it."""
    real_build = OperatorSpec.build

    def logged_build(spec, **kwargs):
        if spec.nugget == 0.0:
            with open(build_log, "a") as f:
                f.write(f"{os.getpid()} {time.monotonic()}\n")
        return real_build(spec, **kwargs)

    OperatorSpec.build = logged_build
    if arm == "replay":
        real_replay = FleetService._replay

        def settle_parked(self, p):
            if p.handle.done() or p.route_key is None:
                return real_replay(self, p)
            self._give_up(p, ShardFailedError(f"request {p.request.request_id}: "
                                              "replay ablated"), "failed")

        FleetService._replay = settle_parked
    elif arm == "handoff":
        if not hasattr(SolveService, "import_handoff"):
            sys.exit("this tree has no breaker-state handoff to ablate")
        SolveService.import_handoff = lambda self, payload: {
            "breaker_keys": 0, "retry_budget_keys": 0}
    elif arm == "prewarm":
        import inspect

        if "replication" not in inspect.signature(FleetService).parameters:
            sys.exit("this tree has no replica prewarm to ablate")
        return {"replication": 1}
    return {}


def run(seed: int, arm: str, window: float, deadline: float) -> dict:
    specs = operators(seed, 4)
    hot = specs[0]
    target = ConsistentHashRing(["shard-0", "shard-1"]).lookup(hot.fingerprint)
    bad = failing_operator(target)
    weights = np.array([4.0] + [4.0 / 3] * (len(specs) - 1))
    weights /= weights.sum()
    with tempfile.TemporaryDirectory(prefix="fleet-chaos-") as tmp:
        build_log = Path(tmp) / "bad-builds"
        build_log.touch()
        extra = ablate(arm, build_log)
        fleet = FleetService(shards=2, workers_per_shard=1,
                             cache_dir=Path(tmp) / "cache", **extra)
        try:
            return drive(fleet, specs, weights, bad, target, seed, window,
                         deadline, build_log) | {"seed": seed, "ablate": arm}
        finally:
            fleet.close()


def drive(fleet, specs, weights, bad, target, seed, window, deadline, build_log) -> dict:
    # staging: every operator built (and written through to disk); the
    # failing operator's breaker open on its primary, and a beat later
    for spec in specs:
        fleet.submit_solve(spec, np.ones(spec.n), timeout=60.0).result(60.0)
    for _ in range(10):
        try:
            fleet.submit_logdet(bad, timeout=60.0).result(60.0)
        except CircuitOpenError:
            break
        except ServiceError:
            pass
    time.sleep(0.3)

    stop = threading.Event()
    records, bad_records = [], []  # (t_submit, outcome, latency)

    def client(cid: int) -> None:
        rng = np.random.default_rng([seed, cid])
        while not stop.is_set():
            spec = specs[rng.choice(len(specs), p=weights)]
            t0 = time.monotonic()
            try:
                if rng.random() < 0.125:
                    h = fleet.submit_logdet(spec, timeout=deadline)
                else:
                    h = fleet.submit_solve(spec, rng.standard_normal(spec.n), timeout=deadline)
            except ServiceError:
                records.append((t0, "refused", 0.0))
                time.sleep(0.01)
                continue
            try:
                h.result(deadline + 5.0)
                outcome = "ok" if time.monotonic() - t0 <= deadline else "late"
            except DeadlineExpiredError:
                outcome = "late"
            except (ShardFailedError, ShardUnavailableError, TimeoutError):
                outcome = "lost"
            except ServiceError:
                outcome = "failed"
            records.append((t0, outcome, time.monotonic() - t0))

    def bad_client() -> None:
        while not stop.is_set():
            t0 = time.monotonic()
            try:
                fleet.submit_logdet(bad, timeout=deadline).result(deadline + 5.0)
                outcome = "ok"
            except CircuitOpenError:
                outcome = "open"
            except ServiceError as exc:
                outcome = "build_failed" if "FactorizationFailed" in str(exc) else "other"
            except TimeoutError:
                outcome = "lost"
            bad_records.append((t0, outcome))
            time.sleep(0.02)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(3)]
    threads.append(threading.Thread(target=bad_client))
    t_start = time.monotonic()
    for t in threads:
        t.start()
    time.sleep(window / 3)
    fleet.kill_shard(target)
    t_kill, t_ready = time.monotonic(), None
    while time.monotonic() - t_start < window:
        if t_ready is None and fleet.report()["respawns"]:
            t_ready = time.monotonic()
        time.sleep(0.005)
    stop.set()
    for t in threads:
        t.join()

    report = fleet.report()
    shard_pids = {s.name: s.pid for s in fleet.status()}
    builds = [line.split() for line in build_log.read_text().splitlines()]
    counts = {k: sum(r[1] == k for r in records) for k in ("ok", "late", "lost", "failed", "refused")}
    lat = [r[2] for r in records if r[1] in ("ok", "late")]
    after = [o for t0, o in bad_records if t_ready is not None and t0 >= t_ready]
    survivor = next(n for n in shard_pids if n != target)
    return {
        "admitted": len(records) - counts["refused"],
        "lost": counts["lost"],
        "late": counts["late"],
        "failed": counts["failed"],
        "refused": counts["refused"],
        "p50_ms": round(1e3 * float(np.percentile(lat, 50)), 2) if lat else None,
        "p99_ms": round(1e3 * float(np.percentile(lat, 99)), 2) if lat else None,
        "respawn_s": round(report["respawns"][0]["respawn_seconds"], 3)
        if report["respawns"] else None,
        "bad_open_after_respawn": after.count("open"),
        "bad_build_failed_after_respawn": after.count("build_failed"),
        "bad_builds_respawned": sum(pid == str(shard_pids[target]) for pid, _ in builds),
        "bad_builds_survivor": sum(pid == str(shard_pids[survivor]) and float(t) >= t_kill
                                   for pid, t in builds),
        "requests_replayed": report["requests_replayed"],
        "replay_mismatch": report["replay_mismatch"],
    }


def pairs(n: int, arm: str, window: float, deadline: float) -> None:
    print("\t".join(FIELDS))
    for i in range(n):
        order = ("none", arm) if i % 2 == 0 else (arm, "none")
        for a in order:
            out = subprocess.run(
                [sys.executable, __file__, "--seed", str(i), "--ablate", a, "--json",
                 "--window", str(window), "--deadline", str(deadline)],
                capture_output=True, text=True, check=False,
            )
            row = json.loads(out.stdout.strip().splitlines()[-1])
            print("\t".join(str(row[f]) for f in FIELDS), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ablate", choices=ARMS, default="none")
    ap.add_argument("--window", type=float, default=6.0,
                    help="seconds of closed-loop traffic; the kill lands at a third")
    ap.add_argument("--deadline", type=float, default=2.0,
                    help="per-request deadline in seconds")
    ap.add_argument("--quick", action="store_true", help="a 3 s window")
    ap.add_argument("--pairs", type=int, default=0,
                    help="run this many interleaved baseline/ablated pairs")
    ap.add_argument("--json", action="store_true", help="print the report as one JSON line")
    args = ap.parse_args()
    window = 3.0 if args.quick else args.window
    if args.pairs:
        pairs(args.pairs, args.ablate, window, args.deadline)
        return 0
    row = run(args.seed, args.ablate, window, args.deadline)
    if args.json:
        print(json.dumps(row))
    else:
        for f in FIELDS:
            print(f"{f:32s} {row[f]}")
    bad = row["lost"] or row["replay_mismatch"]
    return 1 if bad and args.ablate == "none" else 0


if __name__ == "__main__":
    sys.exit(main())
