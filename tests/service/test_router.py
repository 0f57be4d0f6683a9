"""Unit tests for the consistent-hash ring and the fleet router."""

import pytest

from repro.service import ConsistentHashRing, FleetRouter
from repro.service.router import _ring_hash


def ring_of(n, vnodes=64):
    return ConsistentHashRing([f"shard-{i}" for i in range(n)], vnodes=vnodes)


KEYS = [f"op-{i}" for i in range(500)]


class TestRing:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="vnodes"):
            ConsistentHashRing(vnodes=0)

    def test_empty_ring_has_no_owner(self):
        r = ConsistentHashRing()
        assert r.lookup("anything") is None
        assert r.preference("anything", 2) == []

    def test_hash_is_deterministic_across_instances(self):
        assert _ring_hash("op-1") == _ring_hash("op-1")
        a, b = ring_of(4), ring_of(4)
        assert [a.lookup(k) for k in KEYS] == [b.lookup(k) for k in KEYS]

    def test_single_node_owns_everything(self):
        r = ring_of(1)
        assert {r.lookup(k) for k in KEYS} == {"shard-0"}

    def test_add_is_idempotent(self):
        r = ring_of(2)
        points = len(r._points)
        r.add("shard-0")
        assert len(r._points) == points

    def test_remove_unknown_is_noop(self):
        r = ring_of(2)
        r.remove("shard-9")
        assert len(r) == 2

    def test_remove_moves_only_the_dead_arc(self):
        r = ring_of(4)
        before = {k: r.lookup(k) for k in KEYS}
        r.remove("shard-2")
        for k in KEYS:
            if before[k] != "shard-2":
                assert r.lookup(k) == before[k]
            else:
                assert r.lookup(k) != "shard-2"

    def test_failed_keys_flow_to_the_old_first_replica(self):
        """The shard inheriting a key is exactly the next distinct shard
        clockwise: the second entry of the key's preference list."""
        r = ring_of(4)
        pref = {k: r.preference(k, 2) for k in KEYS}
        r.remove("shard-1")
        for k in KEYS:
            if pref[k][0] == "shard-1":
                assert r.lookup(k) == pref[k][1]

    def test_preference_distinct_and_headed_by_owner(self):
        r = ring_of(5)
        for k in KEYS[:50]:
            p = r.preference(k, 3)
            assert len(p) == len(set(p)) == 3
            assert p[0] == r.lookup(k)

    def test_preference_capped_by_population(self):
        r = ring_of(2)
        assert len(r.preference("op", 5)) == 2
        with pytest.raises(ValueError, match="k must be"):
            r.preference("op", 0)

    def test_vnodes_flatten_load(self):
        r = ring_of(4, vnodes=128)
        counts = {}
        for k in KEYS:
            counts[r.lookup(k)] = counts.get(r.lookup(k), 0) + 1
        assert len(counts) == 4
        # all shards carry real traffic (no starved shard)
        assert min(counts.values()) > len(KEYS) / 4 / 4


class TestFleetRouter:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="replication"):
            FleetRouter(ring_of(2), replication=0)

    def test_route_on_empty_ring_is_none(self):
        router = FleetRouter(ConsistentHashRing())
        assert router.route("op") is None

    def test_route_returns_primary_plus_replicas(self):
        router = FleetRouter(ring_of(4), replication=3)
        d = router.route("op-1")
        assert [d.primary] + d.replicas == router.ring.preference("op-1", 3)

    def test_add_remove_node(self):
        router = FleetRouter(ring_of(2), replication=2)
        router.add_node("shard-9")
        assert "shard-9" in router.live_nodes()
        router.remove_node("shard-9")
        assert "shard-9" not in router.live_nodes()
