"""Worker chaos: supervised recovery from real SIGKILLs and hangs.

The mp engine's supervision contract, exercised as the chaos CI job
runs it: kill (or wedge) workers mid-factorization — by injected
``worker_kill``/``worker_hang`` fault kinds and by a thread delivering
real ``os.kill(pid, SIGKILL)`` — and assert the run still completes
with a factor **bitwise identical** to the unkilled serial run, with
no orphaned worker processes and no leaked ``/dev/shm`` segments.

This is distinct from ``test_mp_kill_resume``: there the *injected
hard crash* (exit 137) takes the coordinator down by design and
recovery flows through checkpoint/restart; here real signal deaths are
absorbed by the supervisor and the caller never notices.
"""

import copy
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from scipy.spatial.distance import pdist

from repro.core.tlr_cholesky import register_cholesky_kernels, tlr_cholesky
from repro.core.trimming import cholesky_tasks
from repro.geometry import virus_population
from repro.kernels.matgen import RBFMatrixGenerator
from repro.linalg.integrity import tile_checksum
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.dag import build_graph
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.parallel_mp import (
    MultiprocessExecutionEngine,
    WorkerCrashError,
)
from repro.runtime.supervisor import ProcessFailure, ProcessSupervisor
from tests import procs

ACCURACY = 1e-6


def _graph(a):
    ranks = a.rank_matrix()
    return build_graph(
        cholesky_tasks(
            a.n_tiles,
            tile_size=a.tile_size,
            rank_of=lambda m, k: int(ranks[m, k]),
        )
    )


def _operator(seed=3):
    """80 tasks trimmed, 100 untrimmed (26 / 36 GEMMs): enough frontier
    for kills to land mid-run."""
    pts = virus_population(4, points_per_virus=200, cube_edge=1.7, seed=seed)
    min_spacing = pdist(pts).min()
    gen = RBFMatrixGenerator(
        points=pts,
        shape_parameter=0.5 * min_spacing * 40,
        tile_size=80,
        nugget=1e-4,
    )
    return TLRMatrix.compress(gen.tile, gen.n, 80, ACCURACY, max_rank=40)


def _checksums(a):
    return {key: tile_checksum(tile) for key, tile in a}


@pytest.fixture(scope="module")
def base_operator():
    """Compressed once per module: compression dominates test time."""
    return _operator()


@pytest.fixture()
def operator(base_operator):
    return copy.deepcopy(base_operator)


@pytest.fixture(scope="module")
def reference_checksums(base_operator):
    a = copy.deepcopy(base_operator)
    tlr_cholesky(a, workers=1)
    return _checksums(a)


def _assert_clean(shm_before):
    leaked = set(os.listdir("/dev/shm")) - shm_before
    assert not leaked, f"leaked shared-memory segments: {leaked}"


@pytest.mark.timeout(600)
class TestInjectedWorkerKill:
    """``worker_kill`` fault kind: the worker SIGKILLs itself mid-task."""

    # ids feed the CI chaos matrix: each -k "seedN or not seed" shard
    # runs one seed's kill pattern plus every unparametrized test
    @pytest.mark.parametrize("seed", [0, 1, 2], ids=lambda s: f"seed{s}")
    @pytest.mark.parametrize("workers", [2, 4], ids=lambda w: f"w{w}")
    def test_killed_workers_recover_bitwise(
        self, seed, workers, operator, reference_checksums
    ):
        shm_before = set(os.listdir("/dev/shm"))
        a = operator
        injector = FaultInjector(
            FaultPlan.parse("GEMM:worker_kill:0.1", seed=seed)
        )
        result = tlr_cholesky(
            a, workers=workers, engine="mp", fault_injector=injector
        )
        assert _checksums(a) == reference_checksums
        # a killed worker dies before it can report its fault counter,
        # so the supervisor's respawn count is the kill evidence
        assert result.workers_respawned > 0
        _assert_clean(shm_before)

    def test_worker_kill_is_noop_in_serial_engine(
        self, operator, reference_checksums
    ):
        """``in_worker`` gate: the same plan in an in-process engine
        must neither kill the test process nor perturb the factor."""
        a = operator
        injector = FaultInjector(
            FaultPlan.parse("GEMM:worker_kill:0.5", seed=0)
        )
        tlr_cholesky(a, workers=1, fault_injector=injector)
        assert _checksums(a) == reference_checksums
        assert injector.counters.get(("worker_kill", "GEMM"), 0) == 0

    def test_respawn_budget_exhaustion_surfaces(self, operator):
        a = operator
        injector = FaultInjector(
            FaultPlan.parse("GEMM:worker_kill:0.9", seed=0)
        )
        shm_before = set(os.listdir("/dev/shm"))
        # tiny budget so the test is quick even at 90% kill probability
        eng = MultiprocessExecutionEngine(
            workers=2, fault_injector=injector, max_respawns=2
        )
        register_cholesky_kernels(eng)
        with pytest.raises(WorkerCrashError, match="respawn budget"):
            eng.run(_graph(a), a)
        _assert_clean(shm_before)

    def test_supervision_disabled_fails_fast(self, operator):
        a = operator
        injector = FaultInjector(
            FaultPlan.parse("GEMM:worker_kill:0.9", seed=0)
        )
        shm_before = set(os.listdir("/dev/shm"))
        eng = MultiprocessExecutionEngine(
            workers=2, fault_injector=injector, supervise=False
        )
        register_cholesky_kernels(eng)
        with pytest.raises(WorkerCrashError, match="supervision disabled"):
            eng.run(_graph(a), a)
        _assert_clean(shm_before)


@pytest.mark.timeout(600)
class TestRealSigkill:
    """A thread delivering genuine ``os.kill(pid, SIGKILL)`` to live
    workers — the acceptance-criteria scenario, no injection anywhere."""

    def test_sigkill_mid_run_is_bitwise_transparent(
        self, operator, reference_checksums
    ):
        shm_before = set(os.listdir("/dev/shm"))
        a = operator
        eng = MultiprocessExecutionEngine(workers=3)
        killed = []
        stop = threading.Event()

        def killer():
            while not stop.wait(0.04) and len(killed) < 2:
                pids = dict(eng.worker_pids)
                if not pids:
                    continue
                lane, pid = sorted(pids.items())[len(killed) % len(pids)]
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.append(pid)
                except ProcessLookupError:
                    pass

        register_cholesky_kernels(eng)
        graph = _graph(a)
        t = threading.Thread(target=killer)
        t.start()
        try:
            eng.run(graph, a)
        finally:
            stop.set()
            t.join()

        assert _checksums(a) == reference_checksums
        if killed:  # a fast box may retire everything before the kill
            assert eng.last_run_supervision["respawns"] >= 1
        # no orphaned replacement/original workers
        for pid in eng.worker_pids.values():
            with pytest.raises(OSError):
                os.kill(pid, 0)
        _assert_clean(shm_before)


@pytest.mark.timeout(600)
class TestWorkerHang:
    """``worker_hang`` wedges a worker; the supervisor SIGKILLs it into
    the same recovery path once the hang budget expires."""

    def test_hung_worker_is_killed_and_replaced(
        self, operator, reference_checksums
    ):
        shm_before = set(os.listdir("/dev/shm"))
        a = operator
        injector = FaultInjector(
            FaultPlan.parse("GEMM:worker_hang:0.05", seed=1)
        )
        eng = MultiprocessExecutionEngine(
            workers=2, fault_injector=injector, hang_timeout=1.0
        )
        register_cholesky_kernels(eng)
        eng.run(_graph(a), a)
        assert _checksums(a) == reference_checksums
        report = eng.last_run_supervision
        assert report["hung_killed"] >= 1
        assert report["respawns"] >= report["hung_killed"]
        _assert_clean(shm_before)


#: a coordinator slow enough (every task sleeps first) to be killed mid-run
_COORDINATOR = """
import numpy as np
from repro.core.tlr_cholesky import tlr_cholesky
from repro.linalg.tile_matrix import TLRMatrix
from repro.runtime.faults import FaultInjector, FaultPlan

a = TLRMatrix.from_dense(4.0 * np.eye(64) + 0.01, 16, 1e-8)
slow = FaultInjector(FaultPlan.parse("all:delay:1.0", delay_seconds=0.2))
tlr_cholesky(a, engine="mp", workers=2, fault_injector=slow)
"""


def _wait_for(condition, seconds):
    give_up = time.monotonic() + seconds
    while not (value := condition()) and time.monotonic() < give_up:
        time.sleep(0.02)
    return value


@pytest.mark.timeout(120)
class TestCoordinatorDeath:
    """The other direction: the *coordinator* takes a real SIGKILL."""

    def test_workers_and_segments_do_not_outlive_the_coordinator(self):
        shm_before = set(os.listdir("/dev/shm"))
        src = Path(__file__).resolve().parents[2] / "src"
        coordinator = subprocess.Popen(
            [sys.executable, "-c", _COORDINATOR],
            env={**os.environ, "PYTHONPATH": str(src)},
        )

        def family():  # two workers and the resource tracker
            kids = [
                int(pid)
                for pid in filter(str.isdigit, os.listdir("/proc"))
                if (procs.stat(pid) or (None, None))[1] == coordinator.pid
            ]
            segments = set(os.listdir("/dev/shm")) - shm_before
            return kids if len(kids) >= 3 and len(segments) >= 2 else None

        try:
            kids = _wait_for(family, 60.0)
            assert kids, "the coordinator never got going"
            coordinator.kill()
            coordinator.wait()
            assert procs.wait_gone(kids, 5.0) == []
            assert _wait_for(
                lambda: not set(os.listdir("/dev/shm")) - shm_before, 5.0
            ), f"leaked: {set(os.listdir('/dev/shm')) - shm_before}"
        finally:
            coordinator.kill()
            coordinator.wait()


class TestSupervisorUnit:
    """The supervisor's policy as the mp engine drives it — arm a lane
    on dispatch, disarm it on retirement — with fake processes and an
    injectable clock.  (``tests/service/test_health.py`` holds the
    rest of the policy, driven the fleet's way.)"""

    class FakeProc:
        def __init__(self, pid=4242, exitcode=None):
            self.pid = pid
            self.exitcode = exitcode

    def test_validation(self):
        with pytest.raises(ValueError, match="max_respawns"):
            ProcessSupervisor(max_respawns=-1)
        with pytest.raises(ValueError, match="timeout"):
            ProcessSupervisor(timeout=0.0)

    def test_dead_lane_reported_once_with_task(self):
        sup = ProcessSupervisor(max_respawns=1, clock=lambda: 7.0)
        sup.attach(0, self.FakeProc(exitcode=-9))
        sup.arm(0)
        assert sup.poll() == [
            ProcessFailure(key=0, pid=4242, exitcode=-9, hung=False, age=0.0)
        ]
        assert sup.poll() == []  # the corpse is forgotten, not re-reported

    def test_hang_detection_uses_clock_and_kills(self, monkeypatch):
        now = [0.0]
        sup = ProcessSupervisor(
            max_respawns=1, timeout=5.0, clock=lambda: now[0]
        )
        killed = []
        monkeypatch.setattr(
            ProcessSupervisor, "kill", staticmethod(lambda p: killed.append(p))
        )
        proc = self.FakeProc()
        sup.attach(0, proc)
        sup.arm(0)
        now[0] = 4.9
        assert sup.poll() == []
        now[0] = 5.1
        (failure,) = sup.poll()
        assert failure.hung and failure.key == 0 and failure.age == 5.1
        assert killed == [proc]
        assert sup.report() == {"respawns": 0, "hung_killed": 1}

    def test_idle_lane_never_hangs(self):
        now = [0.0]
        sup = ProcessSupervisor(timeout=1.0, clock=lambda: now[0])
        sup.attach(0, self.FakeProc())
        now[0] = 100.0
        assert sup.poll() == []

    def test_retire_clears_hang_timer(self):
        now = [0.0]
        sup = ProcessSupervisor(timeout=1.0, clock=lambda: now[0])
        sup.attach(0, self.FakeProc())
        sup.arm(0)
        sup.disarm(0)
        now[0] = 100.0
        assert sup.poll() == []

    def test_respawn_budget(self):
        sup = ProcessSupervisor(max_respawns=2)
        assert sup.can_respawn()
        sup.record_respawn()
        sup.record_respawn()
        assert not sup.can_respawn()
        assert sup.report()["respawns"] == 2
