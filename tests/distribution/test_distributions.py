"""Tests for the tile-to-process distributions of Fig. 3."""

import numpy as np
import pytest

from repro.distribution import (
    BandDistribution,
    DiamondDistribution,
    HybridDistribution,
    OneDBlockCyclic,
    TwoDBlockCyclic,
    load_per_process,
    square_grid,
)

NT = 12
#: the cases, keyed by the ids the suite has always given them
ALL = {
    "TwoDBlockCyclicTwoDBlockCyclic(p=2, q=3)": TwoDBlockCyclic(2, 3),
    "OneDBlockCyclicOneDBlockCyclic(nproc=6)": OneDBlockCyclic(6),
    "HybridDistributionHybridDistribution(p=2, q=3, band_width=1)": HybridDistribution(2, 3),
    "BandDistributionBandDistribution(off_band=TwoDBlockCyclic(p=2, q=3))": (
        BandDistribution.over_2d(2, 3)
    ),
    "BandDistributionBandDistribution(off_band=DiamondDistribution(p=2, q=3))": (
        BandDistribution(DiamondDistribution(2, 3))
    ),
    "DiamondDistributionDiamondDistribution(p=2, q=3)": DiamondDistribution(2, 3),
}


@pytest.mark.parametrize("dist", ALL.values(), ids=ALL.keys())
class TestCommonInvariants:
    def test_owner_in_range(self, dist):
        for k in range(NT):
            for m in range(k, NT):
                assert 0 <= dist.owner(m, k) < dist.nproc

    def test_owner_vec_matches_scalar(self, dist):
        ms, ks = [], []
        for k in range(NT):
            for m in range(k, NT):
                ms.append(m)
                ks.append(k)
        ms, ks = np.array(ms), np.array(ks)
        vec = dist.owner_vec(ms, ks)
        scalar = [dist.owner(int(m), int(k)) for m, k in zip(ms, ks)]
        assert np.array_equal(np.asarray(vec), np.asarray(scalar))

    def test_upper_triangle_rejected(self, dist):
        with pytest.raises(IndexError):
            dist.owner(0, 1)
        with pytest.raises(IndexError):
            dist.owner(1, -1)

    def test_every_process_used(self, dist):
        owners = {dist.owner(m, k) for k in range(NT) for m in range(k, NT)}
        assert owners == set(range(dist.nproc))


class TestSquareGrid:
    def test_exact_factorizations(self):
        assert square_grid(16) == (4, 4)
        assert square_grid(512) == (16, 32)
        assert square_grid(6) == (2, 3)
        assert square_grid(1) == (1, 1)

    def test_p_le_q(self):
        for n in [2, 12, 24, 100, 1024]:
            p, q = square_grid(n)
            assert p <= q and p * q == n

    def test_prime(self):
        assert square_grid(7) == (1, 7)


class TestTwoDBlockCyclic:
    def test_scalapack_formula(self):
        d = TwoDBlockCyclic(2, 3)
        assert d.owner(0, 0) == 0
        assert d.owner(1, 0) == 3
        assert d.owner(2, 1) == 1
        assert d.owner(3, 2) == 5

    def test_column_group_size_p(self):
        d = TwoDBlockCyclic(4, 8)
        assert len(d.column_group(0, 64)) == 4

    def test_row_group_size_q(self):
        d = TwoDBlockCyclic(4, 8)
        assert len({d.owner(63, k) for k in range(64)}) == 8


class TestHybrid:
    def test_diagonal_is_1d_cyclic(self):
        d = HybridDistribution(2, 3)
        for k in range(NT):
            assert d.owner(k, k) == k % 6

    def test_off_diagonal_is_2d(self):
        d = HybridDistribution(2, 3)
        ref = TwoDBlockCyclic(2, 3)
        for k in range(NT):
            for m in range(k + 1, NT):
                assert d.owner(m, k) == ref.owner(m, k)

    def test_band_width_widens_1d_region(self):
        d = HybridDistribution(2, 3, band_width=2)
        for k in range(NT - 1):
            assert d.owner(k + 1, k) == k % 6

    def test_diagonal_balance_better_than_2d(self):
        """The point of the hybrid: diagonal tiles spread over ALL
        processes instead of only the grid diagonal."""
        nt = 24
        hy = HybridDistribution(2, 4)
        diag_owners_hy = {hy.owner(k, k) for k in range(nt)}
        td = TwoDBlockCyclic(2, 4)  # p, q not coprime: 2D diagonal
        diag_owners_2d = {td.owner(k, k) for k in range(nt)}  # misses procs
        assert len(diag_owners_hy) == 8
        assert len(diag_owners_2d) < 8

    def test_rejects_bad_band(self):
        with pytest.raises(ValueError):
            HybridDistribution(2, 3, band_width=0)


class TestBand:
    def test_critical_path_locality(self):
        """The defining property (Sec. VII-A): TRSM(k+1,k) runs where
        POTRF(k) ran, making the critical-path transfer local."""
        d = BandDistribution.over_2d(3, 4)
        for k in range(NT - 1):
            assert d.owner(k + 1, k) == d.owner(k, k)

    def test_off_band_delegates(self):
        off = DiamondDistribution(2, 3)
        d = BandDistribution(off)
        for k in range(NT):
            for m in range(k + 2, NT):
                assert d.owner(m, k) == off.owner(m, k)

    def test_band_rotates_over_processes(self):
        d = BandDistribution.over_2d(2, 3)
        owners = [d.owner(k, k) for k in range(6)]
        assert owners == [0, 1, 2, 3, 4, 5]


class TestDiamond:
    def test_formula(self):
        d = DiamondDistribution(2, 3)
        # owner = ((m - k + k // q) % p) * q + k % q
        assert d.owner(0, 0) == 0
        assert d.owner(5, 5) == (0 + 5 // 3) % 2 * 3 + 5 % 3
        assert d.owner(6, 5) == (1 + 5 // 3) % 2 * 3 + 5 % 3

    def test_column_group_optimal(self):
        """Column process groups stay at exactly P members — as
        optimal as 2DBCDD for the column broadcasts (Sec. VII-B)."""
        p, q = 3, 4
        d = DiamondDistribution(p, q)
        nt = 24
        for k in range(6):
            assert len(d.column_group(k, nt)) == p

    def test_row_group_may_grow(self):
        """More processes may own tiles of a row — the accepted trade."""
        d = DiamondDistribution(3, 4)
        ref = TwoDBlockCyclic(3, 4)
        nt = 24
        row = lambda dist: {dist.owner(nt - 1, k) for k in range(nt)}
        assert len(row(d)) >= len(row(ref))

    def test_balances_distance_decaying_work(self):
        """The rank-aware motivation: with work decaying away from the
        diagonal, the diamond skew balances better than 2DBCDD."""
        nt = 48
        p, q = 4, 4
        weight = lambda m, k: 1.0 / (1.0 + (m - k)) ** 2  # rank-like decay
        dia = load_per_process(DiamondDistribution(p, q), nt, weight)
        two = load_per_process(TwoDBlockCyclic(p, q), nt, weight)
        imbalance = lambda load: load.max() / load.mean()
        assert imbalance(dia) < imbalance(two)

    def test_periodic_along_columns(self):
        d = DiamondDistribution(2, 3)
        # within a column, owners repeat with period p in the distance
        for k in (1, 4, 7):
            for m in (k + 2, k + 3):
                assert d.owner(m, k) == d.owner(m + d.p, k)

    def test_band_rotates_over_process_rows(self):
        """The rotation: a fixed distance band visits every process
        row as the panel advances — no band pins to one row."""
        d = DiamondDistribution(4, 4)
        nt = 64
        rows_of_band2 = {d.owner(k + 2, k) // d.q for k in range(nt - 2)}
        assert rows_of_band2 == set(range(4))
