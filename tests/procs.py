"""``/proc`` helpers for the tests that kill processes and then look
for what is left (a zombie counts as gone: the container's init does
not always reap what is reparented to it)."""

from __future__ import annotations

import os
import time
from pathlib import Path


def stat(pid) -> tuple[str, int] | None:
    """``(state, parent pid)`` of a live process, else None."""
    try:
        # pid (comm) state ppid ...; comm may hold spaces and parens
        fields = Path("/proc", str(pid), "stat").read_text().rpartition(")")[2].split()
    except OSError:
        return None
    return None if fields[0] == "Z" else (fields[0], int(fields[1]))


def threads(pid) -> int:
    """How many threads ``pid`` has right now (0 once it is gone)."""
    try:
        return len(os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return 0


def wait_gone(pids, seconds: float) -> list[int]:
    """The pids still alive after at most ``seconds``."""
    give_up = time.monotonic() + seconds
    while (alive := [p for p in pids if stat(p)]) and time.monotonic() < give_up:
        time.sleep(0.02)
    return alive
