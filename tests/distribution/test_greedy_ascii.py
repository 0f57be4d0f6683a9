"""Tests for the ASCII owner-map rendering (paper Fig. 3)."""

import pytest

from repro.distribution import TwoDBlockCyclic, owner_map_ascii


class TestOwnerMapAscii:
    def test_shape_and_content(self):
        art = owner_map_ascii(TwoDBlockCyclic(2, 3), 4)
        lines = art.split("\n")
        assert len(lines) == 4
        assert lines[0].strip() == "0"
        assert lines[1].split() == ["3", "4"]

    def test_rejects_bad_nt(self):
        with pytest.raises(ValueError):
            owner_map_ascii(TwoDBlockCyclic(2, 3), 0)
