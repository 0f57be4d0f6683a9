"""Consistent-hash routing of operator fingerprints across shards.

The fleet's front door must answer one question cheaply and stably:
*which shard owns this operator?*  A modulo mapping would reshuffle
almost every fingerprint whenever a shard joins or leaves — each move
costs a full operator rebuild (or at best a disk reload) on the
receiving shard.  A consistent-hash ring bounds the churn to the
theoretical minimum: when a shard departs, only the keys on *its* arc
move (to the clockwise successors); every other key keeps its shard.

:class:`ConsistentHashRing` is the classic ketama-style construction:
each shard is hashed onto the ring at ``vnodes`` pseudo-random points
(virtual nodes flatten the per-shard load variance to roughly
``1/sqrt(vnodes)``), and a key is owned by the first shard point at or
clockwise-after the key's own hash.  The hash is BLAKE2b, keyed only
by shard name and fingerprint text — deterministic across processes,
machines and Python versions, so router decisions are reproducible and
testable.

:class:`FleetRouter` layers serving policy on the ring:

* **preference lists** — ``route()`` returns the first ``replication``
  *distinct* shards clockwise from the key.  The head is the primary;
  the tail are the replica shards that warm the same operator so a
  primary loss degrades latency (a disk reload at worst), not
  availability.
* **hotness tracking** — replicas are only warmed for operators that
  earn it: a fingerprint becomes *hot* once it has been routed
  ``hot_threshold`` times, and :meth:`FleetRouter.route` reports the
  crossing exactly once so the fleet can send each replica a single
  prewarm message.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from dataclasses import dataclass, field

__all__ = ["ConsistentHashRing", "FleetRouter", "RouteDecision"]


def _ring_hash(data: str) -> int:
    """Deterministic 64-bit ring position for ``data``."""
    return int.from_bytes(
        hashlib.blake2b(data.encode(), digest_size=8).digest(), "big"
    )


class ConsistentHashRing:
    """Ketama-style consistent hashing with virtual nodes.

    Not thread-safe by itself; :class:`FleetRouter` (and the fleet)
    serialize mutations behind their own locks.

    Parameters
    ----------
    nodes:
        Initial node names.
    vnodes:
        Ring points per node.  More points flatten the load spread
        (relative imbalance ~ ``1/sqrt(vnodes)``) at the cost of a
        larger sorted ring; 64–128 is the conventional sweet spot.
    """

    def __init__(self, nodes: tuple[str, ...] | list[str] = (), vnodes: int = 128) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        #: sorted ring positions and the node owning each
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, node: str) -> None:
        """Insert ``node`` at its ``vnodes`` ring points (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for v in range(self.vnodes):
            point = _ring_hash(f"{node}#{v}")
            idx = bisect.bisect_left(self._points, point)
            # BLAKE2b collisions over 64 bits are negligible, but keep
            # insertion deterministic if one ever lands: order by name
            while (
                idx < len(self._points)
                and self._points[idx] == point
                and self._owners[idx] < node
            ):  # pragma: no cover - needs a 64-bit hash collision
                idx += 1
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    def remove(self, node: str) -> None:
        """Remove ``node``'s points; its arc flows to the successors."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    def lookup(self, key: str) -> str | None:
        """The node owning ``key`` (``None`` on an empty ring)."""
        if not self._points:
            return None
        idx = bisect.bisect_right(self._points, _ring_hash(key))
        if idx == len(self._points):
            idx = 0  # wrap: the ring is circular
        return self._owners[idx]

    def preference(self, key: str, k: int) -> list[str]:
        """First ``k`` *distinct* nodes clockwise from ``key``'s hash.

        The head is the primary owner; the rest are the failover order
        — exactly the shards that inherit the key's arc if the ones
        before them leave, so replicating to them makes every single
        failure a warm handoff.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if not self._points:
            return []
        out: list[str] = []
        start = bisect.bisect_right(self._points, _ring_hash(key))
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in out:
                out.append(owner)
                if len(out) == k:
                    break
        return out


@dataclass
class RouteDecision:
    """One routing answer: where a fingerprint goes, and whether it
    just crossed the hotness threshold (warm the replicas *now*)."""

    primary: str
    #: failover order after the primary (replication - 1 shards)
    replicas: list[str] = field(default_factory=list)
    #: True exactly once per fingerprint, on the request that makes it hot
    became_hot: bool = False
    #: requests routed for this fingerprint so far (this one included)
    count: int = 0


class FleetRouter:
    """Thread-safe routing policy: ring + replication + hotness.

    Parameters
    ----------
    ring:
        The shared hash ring (mutated by the fleet on join/leave).
    replication:
        Preference-list length (1 = no replicas).
    hot_threshold:
        Requests after which a fingerprint's replicas are warmed.  1
        replicates everything on first touch; higher values spend
        replica memory only on operators with proven traffic.
    """

    def __init__(
        self,
        ring: ConsistentHashRing,
        replication: int = 1,
        hot_threshold: int = 2,
    ) -> None:
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if hot_threshold < 1:
            raise ValueError(f"hot_threshold must be >= 1, got {hot_threshold}")
        self.ring = ring
        self.replication = int(replication)
        self.hot_threshold = int(hot_threshold)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._hot: set[str] = set()

    def route(self, fingerprint: str, count: bool = True) -> RouteDecision | None:
        """Route one request for ``fingerprint`` (``None``: no shards).

        ``count=False`` re-resolves the preference list without
        advancing the hotness counter — the failover/replay path, which
        must not double-count a request it is re-homing.
        """
        with self._lock:
            pref = self.ring.preference(fingerprint, self.replication)
            if not pref:
                return None
            became_hot = False
            if count:
                c = self._counts.get(fingerprint, 0) + 1
                self._counts[fingerprint] = c
            else:
                c = self._counts.get(fingerprint, 0)
            if (
                self.replication > 1
                and c >= self.hot_threshold
                and fingerprint not in self._hot
            ):
                self._hot.add(fingerprint)
                became_hot = True
            return RouteDecision(
                primary=pref[0],
                replicas=pref[1:],
                became_hot=became_hot,
                count=c,
            )

    def add_node(self, node: str) -> None:
        """Insert a shard into the ring (its arc becomes routable)."""
        with self._lock:
            self.ring.add(node)

    def remove_node(self, node: str) -> None:
        """Remove a shard; only its arc moves (to ring successors)."""
        with self._lock:
            self.ring.remove(node)

    def live_nodes(self) -> set[str]:
        with self._lock:
            return self.ring.nodes

    def is_hot(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._hot

    def hot_fingerprints(self) -> set[str]:
        with self._lock:
            return set(self._hot)
