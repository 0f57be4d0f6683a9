"""Shared fixtures: small deterministic workloads used across the suite.

Everything here is laptop-scale but structurally faithful to the
paper's workload: a Hilbert-ordered virus population, its Gaussian RBF
operator, and compressed TLR matrices in the sparse / mixed / dense
regimes.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.geometry import min_spacing, virus_population
from repro.kernels import RBFMatrixGenerator
from repro.linalg import TLRMatrix
from tests import procs

# ----------------------------------------------------------------------
# session-finish leak check: no process and no shared memory outlives
# the suite, whichever tests ran
# ----------------------------------------------------------------------

#: stamped into ``os.environ`` for the session, so every process a test
#: starts with ``subprocess`` — and whatever that process forks, even
#: after it is killed — carries it in ``/proc/<pid>/environ``
_SESSION_VAR = "TLR_TEST_SESSION"
_SEGMENTS_AT_START = pytest.StashKey[set]()


def _segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def _strays(marker: bytes) -> list[str]:
    """Live processes of this session other than pytest itself: forked
    descendants (found by parent pid) and marked ones (found by
    environment, so orphans reparented to init count too)."""
    live = {}
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            environ = Path("/proc", pid, "environ").read_bytes()
            cmdline = Path("/proc", pid, "cmdline").read_bytes()
        except OSError:
            continue
        # the tracker outlives every process it tracks for, by design
        if (st := procs.stat(pid)) and b"multiprocessing.resource_tracker" not in cmdline:
            live[int(pid)] = (st[1], marker in environ, cmdline)
    me = os.getpid()

    def descends(pid: int) -> bool:
        while pid in live and pid != me:
            pid = live[pid][0]
        return pid == me

    return [
        f"{pid}: {cmdline.replace(bytes(1), b' ').decode(errors='replace')[:120]}"
        for pid, (_, marked, cmdline) in sorted(live.items())
        if pid != me and (marked or descends(pid))
    ]


def pytest_sessionstart(session):
    os.environ[_SESSION_VAR] = f"{os.getpid()}-{time.time_ns()}"
    session.config.stash[_SEGMENTS_AT_START] = _segments()


def pytest_sessionfinish(session, exitstatus):
    if hasattr(session.config, "workerinput"):  # an xdist worker: its controller checks
        return
    marker = f"{_SESSION_VAR}={os.environ[_SESSION_VAR]}".encode()
    before = session.config.stash[_SEGMENTS_AT_START]
    give_up = time.monotonic() + 3.0  # a child reaped by its test may still be exiting
    while True:
        strays, leaked = _strays(marker), sorted(_segments() - before)
        if not (strays or leaked) or time.monotonic() >= give_up:
            break
        time.sleep(0.05)
    if strays or leaked:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.ensure_newline()
        for line in (
            "session-finish leak check FAILED",
            *(f"  process left behind: {s}" for s in strays),
            *(f"  shared-memory segment left behind: /dev/shm/{n}" for n in leaked),
        ):
            reporter.write_line(line, red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def virus_points():
    """Four small virions in the paper's cube (1600 points)."""
    return virus_population(4, points_per_virus=400, cube_edge=1.7, seed=1)


@pytest.fixture(scope="session")
def spacing(virus_points):
    return min_spacing(virus_points)


@pytest.fixture(scope="session")
def sparse_generator(virus_points, spacing):
    """Shape parameter at the paper's rule (half min spacing, scaled
    up 40x for interesting ranks at this tiny scale); sparse operator."""
    return RBFMatrixGenerator(
        virus_points,
        shape_parameter=0.5 * spacing * 40,
        tile_size=200,
        nugget=1e-4,
    )


@pytest.fixture(scope="session")
def sparse_tlr(sparse_generator):
    """Compressed sparse-regime TLR operator (has null tiles)."""
    g = sparse_generator
    return TLRMatrix.compress(g.tile, g.n, g.tile_size, accuracy=1e-6)


@pytest.fixture(scope="session")
def sparse_dense_ref(sparse_generator):
    """Dense reference of the sparse-regime operator."""
    return sparse_generator.dense()


@pytest.fixture(scope="session")
def dense_generator(virus_points, spacing):
    """Large shape parameter: strongly coupled, mostly dense operator."""
    return RBFMatrixGenerator(
        virus_points,
        shape_parameter=0.5 * spacing * 150,
        tile_size=200,
        nugget=1e-2,
    )


@pytest.fixture(scope="session")
def dense_tlr(dense_generator):
    g = dense_generator
    return TLRMatrix.compress(g.tile, g.n, g.tile_size, accuracy=1e-7)


@pytest.fixture()
def spd_matrix(rng):
    """A random well-conditioned SPD matrix (order 96)."""
    n = 96
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.linspace(1.0, 10.0, n)
    return (q * eig) @ q.T
