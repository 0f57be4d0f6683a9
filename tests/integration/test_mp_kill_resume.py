"""Kill/resume robustness with the process-pool engine, as real processes.

Same contract as ``test_kill_resume`` but with kernels running in
forked worker processes against the shared-memory tile arena: a
``crash`` fault hard-kills a worker with ``os._exit(137)``, the
coordinator unlinks every arena segment and mirrors the exit code, and
a fresh process resumes from the checkpoint directory to a factor
**bitwise identical** to an uninterrupted run.  The /dev/shm listing
before and after proves the crash path leaks no shared-memory
segments.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.linalg.serialization import load_tlr

BASE = [
    sys.executable, "-m", "repro", "factorize",
    "--viruses", "2", "--points-per-virus", "150", "--tile-size", "50",
    "--engine", "mp", "--workers", "4",
]


def run_cli(extra, cwd):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        BASE + extra, cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )


@pytest.mark.timeout(600)
class TestMpKillResume:
    def test_killed_mp_run_resumes_bitwise_identical(self, tmp_path):
        ck = tmp_path / "ck"
        clean_path = tmp_path / "clean.npz"
        resumed_path = tmp_path / "resumed.npz"
        shm_before = set(os.listdir("/dev/shm"))

        # 1. the uninterrupted serial reference
        ref = subprocess.run(
            BASE[:-4] + ["--save-factor", str(clean_path)],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.path.abspath(
                os.path.join(os.path.dirname(__file__), "..", "..", "src")
            )},
            capture_output=True, text=True, timeout=300,
        )
        assert ref.returncode == 0, ref.stderr

        # 2. an mp run killed mid-flight by an injected hard crash in a
        #    forked worker; the coordinator must mirror exit 137
        killed = run_cli(
            ["--checkpoint-dir", str(ck), "--checkpoint-every", "3",
             "--inject-faults", "GEMM:crash:0.3", "--fault-seed", "1"],
            tmp_path,
        )
        assert killed.returncode == 137, (
            f"expected SIGKILL-style exit, got {killed.returncode}:\n"
            f"{killed.stdout}\n{killed.stderr}"
        )
        assert list(ck.glob("ckpt-*.json")), "crash left no checkpoint"
        leaked = set(os.listdir("/dev/shm")) - shm_before
        assert not leaked, f"crash leaked shared-memory segments: {leaked}"

        # 3. resume with the mp engine in a fresh process
        resumed = run_cli(
            ["--checkpoint-dir", str(ck), "--resume",
             "--save-factor", str(resumed_path)],
            tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "tasks resumed" in resumed.stdout

        a = load_tlr(clean_path).to_dense(symmetrize=False)
        b = load_tlr(resumed_path).to_dense(symmetrize=False)
        assert np.array_equal(a, b), "resumed factor is not bitwise identical"
