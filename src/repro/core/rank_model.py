"""Synthetic rank fields for at-scale simulation.

The paper's largest runs (52.57M unknowns, NT ≈ 10,770 tiles) cannot
be compressed numerically on a laptop, but every at-scale quantity the
evaluation section reports — task counts, flops, communication volume,
densities — derives from the *rank structure* of the compressed
operator, not from its numerical entries.
:meth:`SyntheticRankField.from_parameters` builds that profile
analytically from the physics of the Gaussian kernel: the correlation
range ``R = delta * sqrt(ln(1/eps))`` is the spatial distance where
kernel entries fall below the accuracy threshold, and Hilbert ordering
maps tile-index distance ``d`` to spatial distance
``D(d) ~ edge * (d*b/N)^(1/3)`` (3D locality).  Tiles with
``D(d) >> R`` disappear; nearer tiles carry ranks decaying with
distance, matching the sharp decay seen in Fig. 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["SyntheticRankField", "analyze_mask_fast"]


def _hash01(a: np.ndarray, b: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic uniform-[0,1) hash of integer pairs (splitmix64
    finalizer) — vectorized, no RNG state, safe for huge tile grids."""
    x = (
        a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        + b.astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
        + np.uint64(seed & 0xFFFFFFFF)
    )
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) / float(1 << 53)


@dataclass
class SyntheticRankField:
    """Distance-based tile rank/occupancy profile of a TLR operator.

    Attributes
    ----------
    nt, tile_size:
        Tile-grid geometry.
    rank_by_distance:
        ``rank_by_distance[d]`` — expected rank of a *non-null* tile at
        tile-index distance ``d = m - k`` (entry 0 is the dense
        diagonal: rank = tile_size).
    density_by_distance:
        ``density_by_distance[d]`` — probability that a tile at
        distance ``d`` is non-null after compression.
    seed:
        Controls the Bernoulli sampling of the occupancy mask.
    """

    nt: int
    tile_size: int
    rank_by_distance: np.ndarray
    density_by_distance: np.ndarray
    seed: int = 0
    #: tiles per point cluster (virion); when set, off-band occupancy
    #: is sampled at *cluster-pair block* granularity — two coupled
    #: virions make their whole tile block non-null together, which is
    #: what keeps Cholesky fill-in contained (block patterns are
    #: closed under fill at the block level, scattered singletons are
    #: not).  None falls back to independent
    #: per-tile sampling.
    tiles_per_cluster: float | None = None
    #: relative rank disparity within a distance band: tile ranks are
    #: modulated by a deterministic per-cluster-pair multiplier in
    #: ``[1/(1+jitter), 1+jitter]``.  Fig. 1 shows max/avg rank ratios
    #: of 2-3x within the same sub-diagonal; this is the disparity the
    #: rank-aware diamond distribution balances (Sec. VII-B).
    rank_jitter: float = 0.0

    def __post_init__(self) -> None:
        check_positive("nt", self.nt)
        check_positive("tile_size", self.tile_size)
        self.rank_by_distance = np.asarray(self.rank_by_distance, dtype=np.float64)
        self.density_by_distance = np.asarray(
            self.density_by_distance, dtype=np.float64
        )
        if len(self.rank_by_distance) < self.nt:
            raise ValueError("rank_by_distance shorter than nt")
        if len(self.density_by_distance) < self.nt:
            raise ValueError("density_by_distance shorter than nt")
        if np.any((self.density_by_distance < 0) | (self.density_by_distance > 1)):
            raise ValueError("densities must be in [0, 1]")

    # ------------------------------------------------------------------

    @classmethod
    def from_parameters(
        cls,
        n: int,
        tile_size: int,
        shape_parameter: float,
        accuracy: float,
        cube_edge: float = 1.7,
        points_per_virus: int = 44932,
        virus_diameter: float = 0.1,
        seed: int = 0,
        rank_prefactor: float = 5.4,
        rank_decay: float = 0.45,
    ) -> "SyntheticRankField":
        """Analytic profile for the virus-population RBF workload.

        Two regimes drive the structure (calibrated against real
        compressions of the synthetic workload, see
        ``tests/core/test_rank_model.py``):

        * **Intra-virus** — points live on 2D virion surfaces, so a
          Hilbert-contiguous tile of ``b`` points covers a surface
          patch of diameter ``L = sqrt(b) * s`` (``s`` = surface point
          spacing).  Tiles within ``d_v ~ points_per_virus / b`` index
          distance overlap spatially; occupancy decays linearly over
          the band.  Their rank peaks when the kernel's correlation
          range ``R = delta * sqrt(ln(1/eps))`` matches the patch size
          ``L`` (``x = R/L = 1``) and falls off on both sides — small
          ``x`` confines interaction to a thin boundary strip, large
          ``x`` makes the kernel smooth across the patch.  This
          reproduces the rise-then-fall of the labeled max ranks in
          Fig. 4.
        * **Inter-virus** — virions are separated by gaps of order the
          mean center spacing ``G = edge / n_v^(1/3)``; a virus pair
          couples only if ``R`` reaches across the gap, so far-field
          occupancy grows like ``((R + r_virus) / G)^3`` until the
          whole matrix densifies (the density growth with shape
          parameter in Figs. 1/4).
        """
        check_positive("n", n)
        check_positive("tile_size", tile_size)
        check_positive("shape_parameter", shape_parameter)
        check_positive("accuracy", accuracy)
        nt = -(-n // tile_size)
        b = tile_size
        n_viruses = max(1.0, n / float(points_per_virus))

        # Surface point spacing: area of the virion envelope / points.
        s = np.sqrt(4.0 * np.pi * (0.5 * virus_diameter) ** 2 / points_per_virus)
        r_corr = shape_parameter * np.sqrt(np.log(1.0 / accuracy))
        l_patch = np.sqrt(float(b)) * s
        x = r_corr / l_patch

        d = np.arange(max(nt, 2), dtype=np.float64)

        # --- occupancy -------------------------------------------------
        d_virus = max(1.0, points_per_virus / float(b))
        dens_near = np.clip(1.0 - d / (d_virus + 1.0), 0.0, 1.0)
        # Hilbert locality above the virion scale: index distance d
        # maps to spatial distance ~ edge * (d*b/N)^(1/3); a virus pair
        # at that distance couples if the correlation range reaches
        # across the inter-virion gap.
        gap = cube_edge / n_viruses ** (1.0 / 3.0)
        d_far = np.maximum(cube_edge * np.cbrt(d * b / float(n)), 0.5 * gap)
        reach = 1.9 * (r_corr + 0.5 * virus_diameter)
        p_far = np.minimum(1.0, (reach / d_far) ** 3)
        density = np.maximum(dens_near, p_far)
        density[0] = 1.0

        # --- conditional rank ------------------------------------------
        # Boundary-strip theory, fitted to real compressions at laptop
        # scale (see tests/core/test_rank_model.py):
        # * x << 1: the interaction is confined to a strip of width R
        #   along the shared patch boundary -> rank ~ sqrt(b) * R / s
        #   = b * x (linear in the correlation range);
        # * the rank saturates at ~5.4 sqrt(b) once the strip covers
        #   the whole patch (x ~ 0.3-1);
        # * x >> 1: the kernel is smooth across the patch and the rank
        #   decays like x^-0.85.
        # This law reproduces both the laptop measurements (25/63/83/
        # 33/12 across two decades of x at b=240) and the paper's
        # reported max ranks at scale (Fig. 1).
        peak = min(float(b) * x, rank_prefactor * np.sqrt(float(b)))
        if x > 1.0:
            peak *= x**-0.85
        # Tighter accuracy keeps more singular values (Fig. 12).
        peak *= np.sqrt(np.log(1.0 / accuracy) / np.log(1.0e4))
        ranks = peak * np.maximum(d, 1.0) ** (-rank_decay)
        ranks = np.clip(np.round(ranks), 2.0, float(b))
        ranks[0] = float(b)  # diagonal tiles are dense
        ranks = np.where(density > 0.0, ranks, 0.0)
        return cls(
            nt,
            tile_size,
            ranks[:nt].copy(),
            density[:nt].copy(),
            seed,
            tiles_per_cluster=d_virus,
            rank_jitter=1.0,
        )

    # ------------------------------------------------------------------

    def rank_lookup(self, m: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Vectorized conditional rank of tiles ``(m, k)``.

        Applies the per-cluster-pair jitter multiplier on top of the
        distance profile; diagonal tiles always report the full tile
        size.  Occupancy is *not* consulted.
        """
        m = np.asarray(m, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        d = np.abs(m - k)
        base = self.rank_by_distance[np.minimum(d, self.nt - 1)]
        if (
            self.rank_jitter > 0.0
            and self.tiles_per_cluster is not None
            and self.tiles_per_cluster >= 1
        ):
            dv = max(1, int(round(self.tiles_per_cluster)))
            u = _hash01(m // dv, k // dv, self.seed)
            mult = (1.0 + self.rank_jitter) ** (2.0 * u - 1.0)
            base = np.where(d > 0, np.round(base * mult), base)
        out = np.where(d == 0, float(self.tile_size), base)
        return np.where(
            base > 0, np.clip(out, 1.0, float(self.tile_size)), 0.0
        ).astype(np.int64)

    def initial_mask(self) -> np.ndarray:
        """Sampled boolean lower-triangle occupancy mask ``(NT, NT)``.

        With ``tiles_per_cluster`` set, off-band (inter-virion)
        occupancy is sampled per cluster pair and marked as a full
        tile block — matching the real workload, where two coupled
        virions contribute a contiguous block of non-null tiles under
        Hilbert ordering.  The intra-cluster band is sampled per tile
        along each sub-diagonal.  Without cluster information every
        tile is an independent Bernoulli draw.
        """
        rng = np.random.default_rng(self.seed)
        nt = self.nt
        mask = np.zeros((nt, nt), dtype=bool)
        dv = (
            max(1, int(round(self.tiles_per_cluster)))
            if self.tiles_per_cluster is not None and self.tiles_per_cluster >= 1
            else None
        )
        band_limit = nt if dv is None else min(nt, dv + 1)

        # Intra-cluster band: per-tile sampling along sub-diagonals.
        for d in range(band_limit):
            p = self.density_by_distance[d]
            if p <= 0.0:
                continue
            n_band = nt - d
            if p >= 1.0:
                hits = np.ones(n_band, dtype=bool)
            else:
                hits = rng.random(n_band) < p
            idx = np.nonzero(hits)[0]
            mask[idx + d, idx] = True

        if dv is None:
            # no cluster structure: continue per-tile beyond the band
            for d in range(band_limit, nt):
                p = self.density_by_distance[d]
                if p <= 0.0:
                    continue
                hits = rng.random(nt - d) < p
                idx = np.nonzero(hits)[0]
                mask[idx + d, idx] = True
        else:
            # Inter-cluster blocks: one draw per cluster pair.
            nc = -(-nt // dv)
            for ca in range(nc):
                row_lo = ca * dv
                row_hi = min(nt, row_lo + dv)
                for cb in range(ca + 1, nc):
                    td = (cb - ca) * dv  # tile distance of the pair
                    if td <= dv:
                        continue  # covered by the band
                    p = (
                        self.density_by_distance[td]
                        if td < nt
                        else self.density_by_distance[nt - 1]
                    )
                    if p > 0.0 and rng.random() < p:
                        col_lo = row_lo
                        col_hi = row_hi
                        blk_lo = cb * dv
                        blk_hi = min(nt, blk_lo + dv)
                        mask[blk_lo:blk_hi, col_lo:col_hi] = True

        np.fill_diagonal(mask, True)
        return np.tril(mask)

    def rank_matrix(self, mask: np.ndarray | None = None) -> np.ndarray:
        """``(NT, NT)`` integer rank field (lower triangle; 0 if null)."""
        if mask is None:
            mask = self.initial_mask()
        nt = self.nt
        ranks = np.zeros((nt, nt), dtype=np.int64)
        for d in range(nt):
            if self.rank_by_distance[d] <= 0:
                continue
            idx = np.arange(nt - d)
            sel = mask[idx + d, idx]
            rows = idx[sel] + d
            cols = idx[sel]
            ranks[rows, cols] = self.rank_lookup(rows, cols)
        return ranks

    def initial_density(self, mask: np.ndarray | None = None) -> float:
        """Off-diagonal non-null ratio under (or expected without) a mask."""
        nt = self.nt
        if nt < 2:
            return 1.0
        total = nt * (nt - 1) // 2
        if mask is not None:
            return (int(np.count_nonzero(np.tril(mask, -1)))) / total
        expected = sum(
            float(self.density_by_distance[d]) * (nt - d) for d in range(1, nt)
        )
        return expected / total


def analyze_mask_fast(mask: np.ndarray) -> dict[str, np.ndarray | float]:
    """Vectorized Algorithm 1 for large tile grids.

    Computes the symbolic fill-in closure and per-panel task counts
    without materializing per-tile index lists, so paper-scale grids
    (NT ~ 10^4) remain tractable.  Semantically identical to
    :func:`repro.core.analysis.analyze_ranks` (property-tested).

    Parameters
    ----------
    mask:
        Boolean ``(NT, NT)`` initial occupancy (lower triangle read).

    Returns
    -------
    dict with keys
        ``final_mask`` — occupancy after symbolic factorization;
        ``nnz_col`` — per-panel count of non-zero sub-panel tiles
        (TRSM/SYRK instances per panel);
        ``n_gemm_col`` — GEMM instances per panel;
        ``initial_density`` / ``final_density`` — off-diagonal ratios.
    """
    mask = np.asarray(mask, dtype=bool)
    nt = mask.shape[0]
    m = np.tril(mask).copy()
    np.fill_diagonal(m, True)
    initial_off = int(np.count_nonzero(np.tril(m, -1)))

    nnz_col = np.zeros(nt, dtype=np.int64)
    n_gemm_col = np.zeros(nt, dtype=np.int64)
    for k in range(nt - 1):
        rows = np.nonzero(m[k + 1 :, k])[0] + (k + 1)
        nnz_col[k] = len(rows)
        if len(rows) > 1:
            n_gemm_col[k] = len(rows) * (len(rows) - 1) // 2
            # Mark all (rows[i], rows[j]) with j < i non-zero: the
            # outer-product update of Algorithm 1's inner double loop.
            sub = m[np.ix_(rows, rows)]
            sub |= np.tri(len(rows), dtype=bool)
            m[np.ix_(rows, rows)] = sub
    final_off = int(np.count_nonzero(np.tril(m, -1)))
    total_off = nt * (nt - 1) // 2 if nt > 1 else 1
    return {
        "final_mask": m,
        "nnz_col": nnz_col,
        "n_gemm_col": n_gemm_col,
        "initial_density": initial_off / total_off,
        "final_density": final_off / total_off,
    }
