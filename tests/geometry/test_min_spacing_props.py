"""Property test for ``min_spacing``: on every cloud it is bitwise the
minimum ``scipy.spatial.cKDTree`` finds (``==``, never ``isclose``),
since every shape parameter and operator fingerprint rests on it.

The library's grid search never imports ``scipy.spatial``; the oracle
here may."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from repro.geometry import min_spacing, regular_grid, virus_population


def kdtree_min(points: np.ndarray) -> float:
    dist, _ = cKDTree(points).query(points, k=2)
    return float(dist[:, 1].min())


@st.composite
def clouds(draw):
    """Random, jittered-lattice, lattice, virion, near-duplicate and
    two-point clouds, scaled by 1e-6 .. 1e6 and shifted."""
    kind = draw(st.sampled_from(["random", "jittered", "lattice", "virions", "near_dup", "pair"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    if kind == "random":
        pts = rng.random((n, 3))
    elif kind == "jittered":
        side = draw(st.integers(2, 7))
        jitter = draw(st.sampled_from([1e-15, 1e-12, 1e-9, 1e-4]))
        pts = regular_grid(side) + jitter * rng.standard_normal((side**3, 3))
    elif kind == "lattice":
        pts = regular_grid(draw(st.integers(2, 7)))
    elif kind == "virions":
        pts = virus_population(
            draw(st.integers(1, 4)), points_per_virus=draw(st.integers(4, 120)),
            seed=draw(st.integers(0, 50)),
        )
    elif kind == "near_dup":
        pts = rng.random((n, 3))
        pts[rng.integers(1, n)] = pts[0] + draw(
            st.sampled_from([1e-15, 1e-12, 1e-9])
        ) * rng.standard_normal(3)
    else:
        pts = rng.random((2, 3))
    scale = 10.0 ** draw(st.integers(-6, 6))
    shift = draw(st.sampled_from([0.0, 1.0, -1e3]))
    return pts * scale + shift * scale


@settings(max_examples=300, deadline=None)
@given(clouds())
def test_equals_kdtree_bitwise(points):
    expected = kdtree_min(points)
    if expected == 0.0:
        with pytest.raises(ValueError, match="duplicate"):
            min_spacing(points)
    else:
        assert min_spacing(points) == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 200), st.integers(0, 2**16), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_duplicates_and_non_finite_points_raise(n, seed, bad):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    i, j = rng.integers(0, n, 2)
    dup = pts.copy()
    dup[i if i != j else (j + 1) % n] = pts[j]
    with pytest.raises(ValueError, match="duplicate"):
        min_spacing(dup)
    pts[i, rng.integers(3)] = bad
    with pytest.raises(ValueError, match="non-finite"):
        min_spacing(pts)


def test_huge_cloud_with_a_tiny_pair():
    """1e15 cells per axis: ranked cells, so no key overflows."""
    pts = np.random.default_rng(0).random((500, 3)) * 1e6
    pts[7] = pts[3] + [1e-9, 0.0, 0.0]
    assert min_spacing(pts) == kdtree_min(pts)
