"""Process supervision: liveness, hang-kill, and the respawn budget.

The distributed runtimes this project models (PaRSEC, the fan-both
solvers) treat node loss as an operating condition, not an exception,
so the fleet's shards are watched by a :class:`ProcessSupervisor`.  It
owns the *policy*: which process is dead, which is wedged, and whether
a replacement is still affordable.  The owner keeps the recovery
*mechanics* (re-forking, replay, state restoration), which need its
internals.

A key is **armed** while its process owes a sign of life, and the
supervisor only knows the time it was last armed: the fleet arms a
shard when it attaches it (one full timeout of grace: fork and cache
recovery legitimately precede the first heartbeat) and again on every
beat — a shard must stay responsive even when it holds no request at
all.  A key armed for longer than ``timeout`` is SIGKILLed, which
folds hangs into the one recovery path, death::

    attached --arm--> armed --arm--> armed ...
       |                |  \\
       |                |   +--timeout--> killed (SIGKILL)
       +---exit/killed--+---------------------+
                        |
             poll() reports it once and forgets the key
                        |
             budget left      -> owner respawns and re-attaches
             budget exhausted -> owner surfaces the failure
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

__all__ = ["ProcessFailure", "ProcessSupervisor"]


@dataclass(frozen=True)
class ProcessFailure:
    """One detected failure, as the owning fleet consumes it."""

    #: the key the process was attached under (the shard name)
    key: object
    #: OS pid of the failed process
    pid: int
    #: exit code (negative = died by signal); for a hung process this is
    #: the post-SIGKILL code (or ``None`` if it refused to die)
    exitcode: int | None
    #: True when the failure is a hang the supervisor resolved by kill
    hung: bool
    #: seconds since the key was last armed (0.0 for one never armed)
    age: float


class ProcessSupervisor:
    """Keyed process registry + liveness polling + respawn budget.

    Parameters
    ----------
    max_respawns:
        Total replacement processes allowed over this supervisor's
        lifetime.  0 disables recovery (every failure is fatal).
    timeout:
        Seconds a key may stay armed before its process is declared
        hung and killed.  ``None`` disables hang detection (exit codes
        still detect deaths).
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_respawns: int = 0,
        timeout: float | None = None,
        clock=time.monotonic,
    ) -> None:
        if max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {max_respawns}")
        if timeout is not None and timeout <= 0.0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        self.max_respawns = int(max_respawns)
        self.timeout = timeout
        self._clock = clock
        self._procs: dict = {}
        #: key -> time it was last armed
        self._armed: dict = {}
        self.respawns = 0
        self.hung_killed = 0

    def attach(self, key, process) -> None:
        """Register (or replace, after a respawn) a key's process."""
        self._procs[key] = process
        self._armed.pop(key, None)

    def detach(self, key) -> None:
        self._procs.pop(key, None)
        self._armed.pop(key, None)

    def arm(self, key) -> None:
        """(Re)start ``key``'s hang timer."""
        self._armed[key] = self._clock()

    def poll(self) -> list[ProcessFailure]:
        """Detect dead and hung processes (hung ones are killed here).

        A reported key is detached, so each failure is reported exactly
        once whether the owner respawns it or gives up.
        """
        failures = []
        now = self._clock()
        for key in sorted(self._procs):
            proc = self._procs[key]
            age = now - self._armed.get(key, now)
            hung = False
            if proc.exitcode is None:
                if (
                    self.timeout is None
                    or key not in self._armed
                    or age < self.timeout
                ):
                    continue
                hung = True
                self.hung_killed += 1
                self.kill(proc)
            failures.append(
                ProcessFailure(key, proc.pid, proc.exitcode, hung, age)
            )
        for failure in failures:
            self.detach(failure.key)
        return failures

    @staticmethod
    def kill(proc) -> None:
        """Deliver SIGKILL and reap (idempotent, race-tolerant)."""
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # already gone
            pass
        proc.join(timeout=5.0)

    def can_respawn(self) -> bool:
        return self.respawns < self.max_respawns

    def record_respawn(self) -> None:
        self.respawns += 1

    def report(self) -> dict[str, int]:
        """Counters so far (merged into the fleet's report)."""
        return {"respawns": self.respawns, "hung_killed": self.hung_killed}
