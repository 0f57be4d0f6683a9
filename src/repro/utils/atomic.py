"""Crash-safe file writes: temp file + fsync + atomic rename.

A process killed mid-``write()`` leaves a torn file; if that file is a
cache entry or a checkpoint, every future run that trusts it is
poisoned.  POSIX gives the standard recipe: write the full payload to
a temporary file *in the same directory* (so the rename cannot cross
filesystems), fsync it, then ``os.replace`` onto the final name —
readers only ever observe the old complete file or the new complete
file, never a prefix.
"""

from __future__ import annotations

import io
import os
import tempfile
from collections.abc import Callable
from pathlib import Path

__all__ = ["atomic_write_via", "quarantine"]


def _fsync_dir(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


def atomic_write_via(
    path: str | os.PathLike, writer: Callable[[io.BufferedWriter], None]
) -> Path:
    """Stream ``writer(file_object)`` into ``path`` atomically.

    The writer receives a binary file object for a temp file alongside
    the target; on success the temp file is fsynced and renamed over
    ``path``.  On any failure the temp file is removed and the target
    is left untouched (old version intact, or still absent).
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "wb") as f:
            writer(f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    return path


def quarantine(path: Path) -> None:
    """Rename a corrupt file to ``<name>.corrupt`` (best effort, never
    raises): out of every loader's way, kept for post-mortem."""
    try:
        path.rename(path.with_name(path.name + ".corrupt"))
    except OSError:
        pass
