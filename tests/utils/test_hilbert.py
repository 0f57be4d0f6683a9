"""Tests for the 3D Hilbert space-filling-curve ordering."""

import numpy as np
import pytest

from repro.utils.hilbert import hilbert_index_3d, hilbert_order


def skilling_key(coord, bits):
    """One point's key, straight from Skilling's scalar algorithm."""
    x = [int(c) for c in coord]
    q = 1 << (bits - 1)
    while q > 1:
        for i in range(3):
            if x[i] & q:
                x[0] ^= q - 1
            else:
                t = (x[0] ^ x[i]) & (q - 1)
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    for i in range(1, 3):
        x[i] ^= x[i - 1]
    t, q = 0, 1 << (bits - 1)
    while q > 1:
        if x[2] & q:
            t ^= q - 1
        q >>= 1
    key = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(3):
            key = (key << 1) | (((x[i] ^ t) >> bit) & 1)
    return key


class TestHilbertIndex:
    def test_bijective_on_small_grid(self):
        """Every cell of a 2^3-per-side grid gets a distinct key."""
        bits = 3
        side = 1 << bits
        coords = np.array(
            [(x, y, z) for x in range(side) for y in range(side) for z in range(side)]
        )
        keys = hilbert_index_3d(coords, bits=bits)
        assert len(np.unique(keys)) == side**3
        assert keys.min() == 0
        assert keys.max() == side**3 - 1

    def test_curve_is_continuous(self):
        """Consecutive keys map to grid cells exactly one step apart."""
        bits = 3
        side = 1 << bits
        coords = np.array(
            [(x, y, z) for x in range(side) for y in range(side) for z in range(side)]
        )
        keys = hilbert_index_3d(coords, bits=bits)
        order = np.argsort(keys)
        walk = coords[order]
        steps = np.abs(np.diff(walk, axis=0)).sum(axis=1)
        assert np.all(steps == 1), "Hilbert walk must move one cell at a time"

    @pytest.mark.parametrize("bits", [1, 2, 5, 16, 21])
    def test_matches_scalar_skilling(self, bits):
        """The whole-column passes and the magic-mask interleave give
        the scalar algorithm's key, bit for bit, up to 63-bit keys."""
        coords = np.random.default_rng(bits).integers(0, 1 << bits, (300, 3))
        coords[:2] = [[0, 0, 0], [(1 << bits) - 1] * 3]
        keys = hilbert_index_3d(coords, bits=bits)
        assert keys.dtype == np.uint64
        assert keys.tolist() == [skilling_key(c, bits) for c in coords]

    def test_single_point(self):
        keys = hilbert_index_3d(np.array([[0, 0, 0]]), bits=4)
        assert keys.shape == (1,)
        assert keys[0] == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hilbert_index_3d(np.array([[8, 0, 0]]), bits=3)
        with pytest.raises(ValueError):
            hilbert_index_3d(np.array([[-1, 0, 0]]), bits=3)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            hilbert_index_3d(np.zeros((1, 3), dtype=int), bits=0)
        with pytest.raises(ValueError):
            hilbert_index_3d(np.zeros((1, 3), dtype=int), bits=22)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            hilbert_index_3d(np.zeros((3, 2), dtype=int))


class TestHilbertOrder:
    def test_returns_permutation(self, rng):
        pts = rng.random((200, 3))
        perm = hilbert_order(pts)
        assert sorted(perm) == list(range(200))

    def test_locality_improvement(self, rng):
        """After ordering, consecutive points are much closer on
        average than under a random order — the property that drives
        off-diagonal compressibility (Sec. IV-C)."""
        pts = rng.random((2000, 3))
        perm = hilbert_order(pts)
        ordered = pts[perm]
        d_ordered = np.linalg.norm(np.diff(ordered, axis=0), axis=1).mean()
        d_random = np.linalg.norm(np.diff(pts, axis=0), axis=1).mean()
        assert d_ordered < 0.3 * d_random

    def test_deterministic(self, rng):
        pts = rng.random((100, 3))
        assert np.array_equal(hilbert_order(pts), hilbert_order(pts))

    def test_degenerate_dimension(self):
        """Points on a plane (zero z-span) must not crash."""
        pts = np.random.default_rng(0).random((50, 3))
        pts[:, 2] = 0.5
        perm = hilbert_order(pts)
        assert sorted(perm) == list(range(50))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_a_value_error(self, bad):
        """One NaN used to warn in the integer cast and return an
        arbitrary permutation."""
        pts = np.random.default_rng(0).random((20, 3))
        pts[4, 1] = bad
        with pytest.raises(ValueError, match="1 non-finite"):
            hilbert_order(pts)

    def test_complex_points_are_a_type_error(self):
        with pytest.raises(TypeError, match="complex"):
            hilbert_order(np.ones((5, 3), dtype=complex))
