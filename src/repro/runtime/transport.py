"""Supervised-child transport: the one forked-child pipe protocol.

Two process populations — the fleet's shards and the distributed
executor's ranks — are forked children that take frames from their
parent and answer on pipes of their own.  They share this module
instead of each writing the protocol out, because the protocol is
only correct when *all four* of its rules hold:

1. **The parent drops the child's pipe ends** right after the fork.
   Only the child then holds the write end of its reply pipes, so its
   death — however abrupt — reads as EOF in the parent.  (Keep a copy
   and a dead rank leaves the coordinator blocked in ``recv`` forever.)
2. **The child drops every parent-side end**, its own and those of all
   children forked before it: a later fork inherits the earlier
   children's ends, so only this module knows the full set.  The
   parent's death then reads as EOF in every child, which exits
   instead of living on under init.  (Close only its own ends and a
   sibling keeps the pipe open.)
3. **An EOF'd pipe is retired only after its buffered frames drain**,
   and exactly once: frames a child raced out before dying are
   delivered in order first, and because an EOF'd connection is
   permanently "ready", leaving it in the wait set would starve the
   caller's liveness poll.
4. **Stop is sentinel → one shared join deadline → SIGKILL**, then
   close.  No child is trusted to honour the sentinel, and stragglers
   get the supervisor's one rule (kill, reap), never ``terminate``.

Why single-writer pipes rather than one shared ``mp.Queue``: a queue's
feeder thread takes a cross-process write lock around every put.  A
SIGKILL landing inside that window — exactly what the shard-chaos
suites inject — leaves the lock held forever and wedges every
surviving child's replies.  A pipe whose write end lives in one
process has no lock to orphan; ``spawn`` therefore gives each child
its own reply pipes and the parent multiplexes them in
:func:`recv_ready`, the only ``connection.wait`` in the package.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from multiprocessing import connection

from repro.runtime.supervisor import ProcessSupervisor

__all__ = ["Child", "WorkerCrashError", "frames", "recv_ready", "spawn", "stop"]

#: every transport pipe end this process holds: the parent-side ends of
#: its children plus, in a child, its own ends (so that *its* children
#: drop them too).  Weak, so an abandoned child does not pin its fds.
_ends: weakref.WeakSet = weakref.WeakSet()
#: serialises spawns: a fork between one child's ``Pipe()`` and the
#: close of its child-side ends would leak those ends into a sibling
_lock = threading.Lock()


def _close(conn) -> None:
    # Under the spawn lock: a close racing a fork could hand the child
    # a Connection already marked closed over a descriptor still open,
    # which its bootstrap would then skip.
    with _lock:
        _ends.discard(conn)
        conn.close()


class WorkerCrashError(RuntimeError):
    """A child process died holding work its parent cannot recover."""


class Child:
    """Parent-side handle of one spawned child."""

    __slots__ = ("process", "down", "ups")

    def __init__(self, process, down, ups) -> None:
        self.process = process
        #: write end of the parent→child pipe
        self.down = down
        #: read ends of the child→parent pipes; ``None`` once retired
        self.ups = ups

    @property
    def pid(self) -> int:
        return self.process.pid

    def send(self, frame) -> bool:
        """Send one frame down; False when the child is gone (its
        death is the supervisor's to report, not the sender's)."""
        try:
            self.down.send(frame)
            return True
        except OSError:
            return False


def _bootstrap(target, args, mine) -> None:
    global _lock
    for conn in list(_ends):  # rule 2
        conn.close()
    _ends.clear()
    _ends.update(mine)
    _lock = threading.Lock()  # the forking thread held the old one
    # multiprocessing refuses a daemonic process children of its own,
    # and a child may spawn in turn (rule 2 counts on it: ``mine``
    # joins ``_ends``).  The flag exists so that children do not
    # outlive their parent: rule 2 sees to that.
    multiprocessing.current_process().daemon = False
    target(*args, *mine)


def frames(down):
    """Child side: yield the parent's frames until the ``None``
    sentinel or EOF — a dead parent ends the loop just as a stop does."""
    while True:
        try:
            frame = down.recv()
        except (EOFError, OSError):
            return
        if frame is None:
            return
        yield frame


def spawn(ctx, target, args, name, up: int = 1) -> Child:
    """Fork ``target(*args, down, *ups)`` as a child process.

    ``down`` is the read end of a fresh parent→child pipe and ``ups``
    the write ends of ``up`` fresh child→parent pipes, each written by
    this child alone.
    """
    with _lock:
        down_recv, down_send = ctx.Pipe(duplex=False)
        pairs = [ctx.Pipe(duplex=False) for _ in range(up)]
        mine = (down_recv, *(send for _, send in pairs))
        child = Child(None, down_send, [recv for recv, _ in pairs])
        _ends.update((child.down, *child.ups))
        child.process = ctx.Process(
            target=_bootstrap, args=(target, args, mine), name=name, daemon=True
        )
        child.process.start()
        for conn in mine:  # rule 1
            conn.close()
    return child


def recv_ready(children, timeout, channel: int = 0):
    """Yield ``(child, frame)`` for every frame readable on the
    children's ``channel`` reply pipes, waiting up to ``timeout``
    seconds (``None`` = until one is) for the first.

    Dead children stay in ``children`` until their pipe has drained
    (rule 3); frames are received lazily, so a consumer that stops
    iterating early loses nothing.
    """
    conns = {
        c.ups[channel]: c for c in children if c.ups[channel] is not None
    }
    if not conns and timeout is None:  # would never wake
        return
    for conn in connection.wait(list(conns), timeout):
        child = conns[conn]
        while True:
            try:
                frame = conn.recv()
            except (EOFError, OSError):  # writer gone (or died mid-frame)
                child.ups[channel] = None
                _close(conn)
                break
            yield child, frame
            if not conn.poll(0):
                break


def stop(children, sentinel, timeout: float, on_frame=None) -> None:
    """Tear ``children`` down (rule 4) and close every pipe end.

    Channel-0 frames that arrive while the children wind down go to
    ``on_frame``: the parent keeps reading, so a child blocked on a
    full reply pipe can still finish the work it accepted.
    """
    children = list(children)
    for child in children:
        # a child too wedged to drain its pipe must not wedge the
        # teardown: its sentinel is dropped, the deadline kills it
        os.set_blocking(child.down.fileno(), False)
        child.send(sentinel)
    deadline = time.monotonic() + timeout
    while (left := deadline - time.monotonic()) > 0 and any(
        c.ups[0] is not None for c in children
    ):
        for _, frame in recv_ready(children, left):
            if on_frame is not None:
                on_frame(frame)
    for child in children:
        child.process.join(max(0.0, deadline - time.monotonic()))
        if child.process.exitcode is None:
            ProcessSupervisor.kill(child.process)
        for conn in (child.down, *child.ups):
            if conn is not None:
                _close(conn)
        child.ups = [None] * len(child.ups)
