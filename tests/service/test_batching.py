"""Tests for the pending pool's coalescing policy (no threads, no clock)."""

import pytest

from repro.service import RequestBatcher


def filled(max_batch, *pairs):
    b = RequestBatcher(max_batch=max_batch)
    for key, item in pairs:
        b.add(key, item)
    return b


class TestSizeTrigger:
    def test_batch_released_at_max_batch(self):
        """A take stops at ``max_batch``; the overflow waits its turn by
        its own oldest member (FIFO by oldest member), so it does not
        jump ahead of a group that arrived before it."""
        b = filled(2, ("a", 1), ("a", 2), ("b", 3), ("a", 4), ("a", 5))
        assert len(b) == 5  # items, not groups
        assert [b.take() for _ in range(4)] == [[1, 2], [3], [4, 5], []]
        assert len(b) == 0

    def test_max_batch_one_is_unbatched(self):
        b = filled(1, ("k", 1), ("j", 2), ("k", 3))
        assert [b.take() for _ in range(3)] == [[1], [2], [3]]

    def test_distinct_keys_never_mix(self):
        b = filled(10, ("a", 1), ("b", 2), ("a", 3), ("b", 4))
        assert b.take() == [1, 3]  # the oldest item and all of its key
        assert b.take() == [2, 4]

    def test_none_key_never_coalesces(self):
        b = filled(10, (None, 1), (None, 2), ("k", 3), ("k", 4))
        assert [b.take() for _ in range(3)] == [[1], [2], [3, 4]]


class TestValidation:
    def test_bad_max_batch(self):
        with pytest.raises(ValueError):
            RequestBatcher(max_batch=0)


class TestPrune:
    def test_prune_removes_matching_and_returns_them(self):
        b = filled(10, ("k", 1), ("k", 2), ("k", 3))
        assert b.prune(lambda it: it % 2 == 1) == [1, 3]
        b.add("k", 4)
        assert len(b) == 2
        assert b.take() == [2, 4] and len(b) == 0  # the group survives

    def test_prune_drops_emptied_groups(self):
        b = filled(10, ("a", 1), ("b", 2))
        assert b.prune(lambda it: it == 1) == [1]
        assert b.take() == [2] and len(b) == 0

    def test_prune_keeps_oldest_item_window(self):
        """Survivors keep their own arrival stamps: a group that loses
        its oldest member is re-ranked by the oldest survivor, neither
        keeping the dead member's place nor going to the back."""
        b = filled(10, ("k", 1), ("j", 2), ("k", 3), ("i", 4))
        b.prune(lambda it: it == 1)
        assert [b.take() for _ in range(3)] == [[2], [3], [4]]

    def test_prune_nothing_is_a_noop(self):
        b = filled(10, ("k", 1))
        assert b.prune(lambda it: False) == []
        assert len(b) == 1
