"""Property test for the packed triangular solves: on random tile grids
mixing every stored representation they agree with dense triangular
solves of the same lower factor, and the one-column path (``dtrsv``)
agrees with the several-column one (``dtrsm``)."""

import numpy as np
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.solver import solve_cholesky, solve_lower
from repro.linalg.integrity import matrix_checksums
from repro.linalg.lowrank import LowRankFactor
from repro.linalg.tile import DenseTile, LowRankTile, NullTile
from repro.linalg.tile_matrix import TLRMatrix


@st.composite
def random_factor(draw):
    """A lower factor on an ``nt x nt`` grid with a ragged last tile:
    null / low-rank / dense off-diagonal tiles, C- and
    F-ordered arrays, junk above the diagonal of the diagonal tiles."""
    nt = draw(st.integers(1, 5))
    b = draw(st.sampled_from([5, 8]))
    last = draw(st.integers(1, b))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    order = lambda a: np.asfortranarray(a) if rng.integers(2) else a  # noqa: E731
    height = lambda m: last if m == nt - 1 else b  # noqa: E731
    tiles = {}
    for k in range(nt):
        d = 0.1 * rng.standard_normal((height(k), height(k)))
        tiles[(k, k)] = DenseTile(order(d + 2.0 * np.eye(height(k))))
        for m in range(k + 1, nt):
            kind = draw(st.sampled_from(["null", "lowrank", "dense"]))
            if kind == "null":
                tiles[(m, k)] = NullTile((height(m), b))
            elif kind == "dense":
                tiles[(m, k)] = DenseTile(order(0.1 * rng.standard_normal((height(m), b))))
            else:
                r = int(rng.integers(1, 4))
                u = order(0.1 * rng.standard_normal((height(m), r)))
                v = order(rng.standard_normal((b, r)))
                tiles[(m, k)] = LowRankTile(LowRankFactor(u, v))
    factor = TLRMatrix((nt - 1) * b + last, b, tiles, accuracy=1e-8)
    cols = draw(st.sampled_from([None, 1, 3]))
    rhs = rng.standard_normal(factor.n if cols is None else (factor.n, cols))
    return factor, rhs, rng.standard_normal((factor.n, 3))


def close(x, ref):
    return np.linalg.norm(x - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)


@given(data=random_factor())
@settings(max_examples=120, deadline=None)
def test_packed_solves_equal_dense_triangular_solves(data):
    factor, rhs, block = data
    dense = factor.to_dense(symmetrize=False)
    kept, sums, nbytes = rhs.copy(), matrix_checksums(factor), factor.memory_bytes()
    y = solve_lower(factor, rhs)
    x = solve_cholesky(factor, rhs)
    assert x.shape == y.shape == rhs.shape
    assert np.array_equal(rhs, kept)
    assert close(y, sla.solve_triangular(dense, rhs, lower=True))
    assert close(x, sla.solve_triangular(dense, y, lower=True, trans="T"))
    # packing moved the tiles into panels without changing a stored value
    assert matrix_checksums(factor) == sums and factor.memory_bytes() == nbytes
    # one column: the same path as a vector, bitwise; a wrong ``lower`` or
    # ``trans`` flag on it would still be finite, so each column of the
    # blocked solve must agree with it
    for solve in (solve_lower, solve_cholesky):
        blocked = solve(factor, block)
        for j in range(block.shape[1]):
            single = solve(factor, block[:, j])
            assert np.array_equal(solve(factor, block[:, j : j + 1])[:, 0], single)
            assert close(blocked[:, j], single)
