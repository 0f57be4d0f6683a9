"""Headline robustness demo, as real processes: kill, resume, compare.

A ``crash`` fault with ``hard_crash`` kills the factorize CLI with
``os._exit(137)`` — SIGKILL semantics, no cleanup, no atexit — exactly
what an OOM-killer or a preempted node does.  A second process resumes
from the checkpoint directory and must produce a factor **bitwise
identical** to an uninterrupted third process.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.linalg.serialization import SUFFIX, load_tlr

BASE = [
    sys.executable, "-m", "repro", "factorize",
    "--viruses", "2", "--points-per-virus", "150", "--tile-size", "50",
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
class TestKillResume:
    def test_killed_run_resumes_bitwise_identical(self, tmp_path):
        self._kill_and_resume(tmp_path, [])

    def test_killed_threaded_run_resumes_bitwise(self, tmp_path):
        """The crash lands in a worker thread: same exit, same resume.
        It can beat the first flush (another worker is still writing
        it — the whole run is shorter than one checkpoint write), and
        the resume then starts over past a torn checkpoint file."""
        self._kill_and_resume(tmp_path, ["--workers", "4"])

    @staticmethod
    def _kill_and_resume(tmp_path, workers):
        ck = tmp_path / "ck"
        clean_path = tmp_path / "clean.tlr"
        resumed_path = tmp_path / "resumed.tlr"

        # 1. the uninterrupted (serial) reference
        ref = run_cli(["--save-factor", str(clean_path)], tmp_path)
        assert ref.returncode == 0, ref.stderr

        # 2. a run killed mid-flight by an injected hard crash
        killed = run_cli(
            workers
            + ["--checkpoint-dir", str(ck), "--checkpoint-every", "3",
               "--inject-faults", "GEMM:crash:0.3", "--fault-seed", "1"],
            tmp_path,
        )
        assert killed.returncode == 137, (
            f"expected SIGKILL-style exit, got {killed.returncode}:\n"
            f"{killed.stdout}\n{killed.stderr}"
        )
        if not workers:
            assert list(ck.glob(f"ckpt-*{SUFFIX}")), "crash left no checkpoint"

        # 3. resume in a fresh process and save the factor
        resumed = run_cli(
            workers
            + ["--checkpoint-dir", str(ck), "--resume",
               "--save-factor", str(resumed_path)],
            tmp_path,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "tasks resumed" in resumed.stdout

        a = load_tlr(clean_path).to_dense(symmetrize=False)
        b = load_tlr(resumed_path).to_dense(symmetrize=False)
        assert np.array_equal(a, b), "resumed factor is not bitwise identical"

    def test_repeated_kills_eventually_finish(self, tmp_path):
        """Crash after crash, the frontier only grows; a final resume
        with no injector always lands the identical factor."""
        ck = tmp_path / "ck"
        clean_path = tmp_path / "clean.tlr"
        final_path = tmp_path / "final.tlr"
        ref = run_cli(["--save-factor", str(clean_path)], tmp_path)
        assert ref.returncode == 0, ref.stderr

        kills = 0
        for seed in range(3):
            proc = run_cli(
                ["--checkpoint-dir", str(ck), "--resume",
                 "--checkpoint-every", "2",
                 "--inject-faults", "all:crash:0.2",
                 "--fault-seed", str(seed),
                 "--save-factor", str(final_path)],
                tmp_path,
            )
            assert proc.returncode in (0, 137), proc.stderr
            if proc.returncode == 0:
                break
            kills += 1
        else:
            proc = run_cli(
                ["--checkpoint-dir", str(ck), "--resume",
                 "--save-factor", str(final_path)],
                tmp_path,
            )
            assert proc.returncode == 0, proc.stderr
        assert kills > 0, "the crash plan killed no run"

        a = load_tlr(clean_path).to_dense(symmetrize=False)
        b = load_tlr(final_path).to_dense(symmetrize=False)
        assert np.array_equal(a, b)
