"""The supervised-child transport's four rules, on real processes."""

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime import transport
from tests.procs import stat, wait_gone

CTX = multiprocessing.get_context("fork")
SRC = str(Path(__file__).resolve().parents[2] / "src")


def _burst_then_die(n, down, up):
    for i in range(n):
        up.send(i)
    os.kill(os.getpid(), signal.SIGKILL)


def _deaf(down, up):
    while True:  # never reads its pipe: no sentinel, no EOF reaches it
        time.sleep(60)


def _echo(down, up):
    while (frame := down.recv()) is not None:
        up.send(frame)


@pytest.mark.timeout(60)
class TestRules:
    def test_frames_before_a_sigkill_arrive_in_order_then_the_pipe_retires(self):
        child = transport.spawn(CTX, _burst_then_die, (200,), "burst")
        frames = []
        while child.ups[0] is not None:
            frames += [f for _, f in transport.recv_ready([child], 5.0)]
        assert frames == list(range(200))
        # retired exactly once: never waited on or returned again, even
        # though an EOF'd connection is permanently "ready"
        assert list(transport.recv_ready([child], None)) == []
        child.process.join(5.0)  # all its descriptors are closed by now
        assert not child.send("anyone there?")
        transport.stop([child], None, 1.0)
        assert child.process.exitcode == -signal.SIGKILL

    def test_round_trip_and_clean_stop(self):
        child = transport.spawn(CTX, _echo, (), "echo")
        assert child.send({"k": (1, 2)})
        assert [f for _, f in transport.recv_ready([child], 5.0)] == [{"k": (1, 2)}]
        transport.stop([child], None, 5.0)
        assert child.process.exitcode == 0

    def test_stop_kills_a_child_that_ignores_the_sentinel(self):
        children = [transport.spawn(CTX, _deaf, (), f"deaf-{i}") for i in range(2)]
        start = time.monotonic()
        transport.stop(children, None, 0.3)
        assert time.monotonic() - start < 5.0  # one deadline, not one each
        for child in children:
            assert child.process.exitcode == -signal.SIGKILL

    def test_spawn_stop_cycles_leak_no_descriptor(self):
        def cycle():
            children = [transport.spawn(CTX, _echo, (), "echo", up=2) for _ in range(2)]
            transport.stop(children, None, 5.0)

        cycle()  # whatever the first fork sets up for good
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            cycle()
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before


#: a "parent" that spawns a listener, then a child too busy to ever
#: read its pipe (forked later, so it inherits the listener's
#: parent-side ends), then a listener with a listener child of its own
_PARENT = """
import json, multiprocessing, time
from repro.runtime import transport

ctx = multiprocessing.get_context("fork")

def listen(nested, down, up):
    kids = [transport.spawn(ctx, listen, (False,), "leaf")] if nested else []
    up.send([k.pid for k in kids])
    try:
        down.recv()
    except EOFError:  # the parent is gone
        pass

def busy(down, up):
    time.sleep(60)

a = transport.spawn(ctx, listen, (False,), "a")
b = transport.spawn(ctx, busy, (), "b")
c = transport.spawn(ctx, listen, (True,), "c")
leaves = []
while len(leaves) < 2:
    leaves += [frame for _, frame in transport.recv_ready([a, c], None)]
print(json.dumps({"listeners": [a.pid, c.pid, *sum(leaves, [])], "busy": b.pid}), flush=True)
time.sleep(60)
"""


@pytest.mark.timeout(60)
def test_children_of_a_killed_parent_exit_on_eof():
    """Rule 2 closes *every* parent-side end: were each child to close
    only its own, the busy sibling would hold the first listener's
    pipe open and it would outlive its parent."""
    parent = subprocess.Popen(
        [sys.executable, "-c", _PARENT],
        env={**os.environ, "PYTHONPATH": SRC},
        stdout=subprocess.PIPE,
        text=True,
    )
    pids = json.loads(parent.stdout.readline())
    try:
        assert len(pids["listeners"]) == 3 and stat(pids["busy"])
        parent.kill()
        parent.wait()
        assert wait_gone(pids["listeners"], 2.0) == []
    finally:
        parent.kill()
        for pid in (pids["busy"], *pids["listeners"]):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert wait_gone([pids["busy"], *pids["listeners"]], 5.0) == []
