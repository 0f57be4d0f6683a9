"""Properties of the fleet's consistent-hash ring.

Two contracts carry the fleet's failure-domain story and must hold for
*any* shard population and key set, not just the examples in the unit
suite:

* **minimal disruption** — removing a shard moves exactly the keys it
  owned (to their old first replica) and no others; adding a shard
  steals keys only for itself.  This is why a shard failure rebalances
  one arc instead of churning every cache in the fleet.
* **balanced distribution** — with enough virtual nodes, no shard owns
  a pathological share of the key space for any fleet size the service
  supports (1–16 shards).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ConsistentHashRing

shard_counts = st.integers(min_value=1, max_value=16)
key_sets = st.lists(
    st.text(
        alphabet="abcdef0123456789", min_size=1, max_size=32
    ),
    min_size=1,
    max_size=200,
    unique=True,
)


def ring_of(n, vnodes=64):
    return ConsistentHashRing([f"shard-{i}" for i in range(n)], vnodes=vnodes)


class TestMinimalDisruption:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 16), keys=key_sets, victim=st.integers(0, 15))
    def test_removal_moves_only_the_victims_keys(self, n, keys, victim):
        victim_name = f"shard-{victim % n}"
        ring = ring_of(n)
        before = {k: ring.lookup(k) for k in keys}
        successors = {k: ring.preference(k, 2) for k in keys}
        ring.remove(victim_name)
        for k in keys:
            after = ring.lookup(k)
            if before[k] == victim_name:
                # a moved key lands on the next shard of its old
                # preference list: the failover order is predictable
                if len(successors[k]) > 1:
                    assert after == successors[k][1]
                assert after != victim_name
            else:
                assert after == before[k]

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 15), keys=key_sets)
    def test_join_steals_keys_only_for_itself(self, n, keys):
        ring = ring_of(n)
        before = {k: ring.lookup(k) for k in keys}
        ring.add("shard-new")
        for k in keys:
            after = ring.lookup(k)
            assert after == before[k] or after == "shard-new"

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 16), keys=key_sets, victim=st.integers(0, 15))
    def test_remove_then_readd_restores_the_mapping(self, n, keys, victim):
        """Respawning a shard under its old name restores its exact arc
        — the ring is a pure function of the member-name set."""
        victim_name = f"shard-{victim % n}"
        ring = ring_of(n)
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(victim_name)
        ring.add(victim_name)
        assert {k: ring.lookup(k) for k in keys} == before


class TestBalancedDistribution:
    @settings(max_examples=20, deadline=None)
    @given(n=shard_counts)
    def test_no_shard_owns_a_pathological_share(self, n):
        ring = ring_of(n, vnodes=128)
        keys = [f"fingerprint-{i:04d}" for i in range(2000)]
        counts = {f"shard-{i}": 0 for i in range(n)}
        for k in keys:
            counts[ring.lookup(k)] += 1
        assert sum(counts.values()) == len(keys)
        fair = len(keys) / n
        # every shard carries traffic, none more than 2x its fair share
        # (128 vnodes bounds the spread far tighter in practice)
        assert min(counts.values()) > 0
        assert max(counts.values()) < 2.0 * fair + 1

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 16), keys=key_sets, k=st.integers(2, 4))
    def test_preference_lists_are_distinct_prefixes(self, n, keys, k):
        ring = ring_of(n)
        for key in keys:
            pref = ring.preference(key, min(k, n))
            assert pref[0] == ring.lookup(key)
            assert len(pref) == len(set(pref)) == min(k, n)

    @settings(max_examples=20, deadline=None)
    @given(n=shard_counts, keys=key_sets)
    def test_lookup_is_deterministic_across_instances(self, n, keys):
        a, b = ring_of(n), ring_of(n)
        assert [a.lookup(k) for k in keys] == [b.lookup(k) for k in keys]
