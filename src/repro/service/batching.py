"""Work-conserving request batching: a keyed pool that workers pull from.

Single-RHS solve requests against the same cached factor are far
cheaper executed as one blocked multi-RHS triangular solve: the
Python tile loop and the per-tile skinny GEMMs are paid once per
*batch* instead of once per *request*.  The batcher holds pending
requests grouped by an opaque batch key (the server uses
``(fingerprint, kind, refine)``); a free worker takes the group of the
oldest pending request, up to ``max_batch`` of it.

Nothing is ever held back to grow a batch (H2OPUS-TLR marshals the
operations that are ready, it does not wait for more): requests
coalesce exactly when they queued behind busy workers, and a request
that finds a worker idle runs at once as a batch of one.  So there is
no timer and no clock here — pure data-structure logic; the service
supplies the lock and the threads.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Hashable

from repro.utils.validation import check_positive

__all__ = ["RequestBatcher"]


class RequestBatcher:
    """Pending items grouped by key, taken oldest group first."""

    def __init__(self, max_batch: int = 32) -> None:
        check_positive("max_batch", max_batch)
        self.max_batch = int(max_batch)
        self._arrivals = itertools.count()
        #: key -> [(arrival number, item), ...], oldest first
        self._pending: dict[Hashable, list[tuple[int, Any]]] = {}
        self._count = 0

    def add(self, key: Hashable | None, item: Any) -> None:
        """Queue ``item`` under ``key``; ``None`` never coalesces."""
        if key is None:
            key = object()
        self._pending.setdefault(key, []).append((next(self._arrivals), item))
        self._count += 1

    def take(self) -> list[Any]:
        """Pop the oldest pending item together with every other item
        of its key, up to ``max_batch`` (``[]`` when nothing is pending).

        Overflow past ``max_batch`` stays pending and is ordered by its
        own oldest member, so groups are served FIFO by oldest member.
        A ``max_batch`` of 1 degenerates to unbatched FIFO operation.
        """
        if not self._pending:
            return []
        key = min(self._pending, key=lambda k: self._pending[k][0][0])
        group = self._pending.pop(key)
        if len(group) > self.max_batch:
            self._pending[key] = group[self.max_batch :]
            group = group[: self.max_batch]
        self._count -= len(group)
        return [item for _, item in group]

    def prune(self, predicate: Callable[[Any], bool]) -> list[Any]:
        """Remove (and return) every pending item matching ``predicate``.

        Deadline propagation into the pool: a request whose deadline
        expires *while pending* must be shed here, not carried into a
        batch and discovered dead at execution time.  Groups left
        empty are dropped; survivors keep their arrival order.
        """
        removed: list[Any] = []
        for key, group in list(self._pending.items()):
            live = []
            for entry in group:
                if predicate(entry[1]):
                    removed.append(entry[1])
                else:
                    live.append(entry)
            if len(live) == len(group):
                continue
            if live:
                self._pending[key] = live
            else:
                del self._pending[key]
        self._count -= len(removed)
        return removed

    def __len__(self) -> int:
        """Pending items (not groups)."""
        return self._count
