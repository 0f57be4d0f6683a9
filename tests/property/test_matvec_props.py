"""Property-based tests for TLR matvec and persistence on randomly
structured TLR matrices (random mixtures of dense/low-rank/null)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.lowrank import LowRankFactor
from repro.linalg.matvec import tlr_matvec
from repro.linalg.tile import DenseTile, LowRankTile, NullTile
from repro.linalg.tile_matrix import TLRMatrix


@st.composite
def random_tlr(draw):
    nt = draw(st.integers(1, 5))
    b = draw(st.sampled_from([8, 16]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    tiles = {}
    for k in range(nt):
        for m in range(k, nt):
            if m == k:
                d = rng.standard_normal((b, b))
                tiles[(m, k)] = DenseTile(d + d.T + 2 * b * np.eye(b))
            else:
                kind = rng.integers(0, 3)
                if kind == 0:
                    tiles[(m, k)] = NullTile((b, b))
                elif kind == 1:
                    r = int(rng.integers(1, 4))
                    tiles[(m, k)] = LowRankTile(
                        LowRankFactor(
                            rng.standard_normal((b, r)),
                            rng.standard_normal((b, r)),
                        )
                    )
                else:
                    tiles[(m, k)] = DenseTile(rng.standard_normal((b, b)))
    return TLRMatrix(nt * b, b, tiles, accuracy=1e-8), seed


class TestMatvecProperties:
    @given(data=random_tlr())
    @settings(max_examples=40, deadline=None)
    def test_matvec_equals_dense(self, data):
        a, seed = data
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal(a.n)
        dense = a.to_dense()
        assert np.allclose(tlr_matvec(a, x), dense @ x, atol=1e-8)

    @given(data=random_tlr())
    @settings(max_examples=30, deadline=None)
    def test_matvec_linearity(self, data):
        a, seed = data
        rng = np.random.default_rng(seed + 2)
        x = rng.standard_normal(a.n)
        y = rng.standard_normal(a.n)
        lhs = tlr_matvec(a, 2.0 * x + y)
        rhs = 2.0 * tlr_matvec(a, x) + tlr_matvec(a, y)
        assert np.allclose(lhs, rhs, atol=1e-8)

    @given(data=random_tlr())
    @settings(max_examples=20, deadline=None)
    def test_save_load_roundtrip(self, data, tmp_path_factory):
        from repro.linalg.serialization import load_tlr, save_tlr

        a, seed = data
        path = tmp_path_factory.mktemp("tlr") / "m.tlr"
        save_tlr(a, path)
        back = load_tlr(path)
        assert np.array_equal(back.to_dense(), a.to_dense())
        assert np.array_equal(back.rank_matrix(), a.rank_matrix())
