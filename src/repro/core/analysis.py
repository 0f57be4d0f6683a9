"""Algorithm 1 — matrix analysis for DAG trimming (Section VI).

Given the initial ranks of the compressed matrix, the analysis walks
the panel factorizations symbolically: a panel-``k`` tile ``(m, k)``
with non-zero rank requires a TRSM, contributes a SYRK to ``(m, m)``,
and every pair of non-zero tiles ``(m, k), (n, k)`` in the panel
generates a GEMM into ``(m, n)`` — *creating fill-in* there if the
tile had disappeared during compression.  The outputs are exactly the
paper's ``analysis`` structure: per-panel TRSM row lists, per-diagonal
SYRK panel lists, and per-tile GEMM panel lists, which the DAG builder
uses to restrict each task class's execution space.

The symbolic pattern is a *conservative superset* of the numeric one:
a GEMM update can cancel numerically and recompress to rank zero, but
it can never make a symbolically-null tile non-zero.  That is the
property that makes trimming safe (tested in
``tests/core/test_analysis.py``).

Time complexity is ``O(max(NT^2, d^2 * NT^3))`` with ``d`` the final
density, as stated in the paper; memory is proportional to the number
of symbolically non-zero tiles (the distributed version in the paper
allocates GEMM lists only for locally-updated tiles — emulated here
with the optional ``local_filter``).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["TrimmingAnalysis", "analyze_ranks"]


@dataclass
class TrimmingAnalysis:
    """Output of Algorithm 1 (``hicma_parsec_analysis_t``).

    Attributes
    ----------
    nt:
        Number of tile rows/columns.
    trsm:
        ``trsm[k]`` — ascending rows ``m > k`` whose panel tile
        ``(m, k)`` is symbolically non-zero (needs a TRSM in panel k).
    syrk:
        ``syrk[m]`` — panels ``k < m`` contributing a SYRK to
        ``(m, m)``.
    gemm:
        ``gemm[(m, n)]`` — panels ``k < n`` contributing a GEMM to
        ``(m, n)``; only symbolically non-zero targets appear as keys.
    final_nonzero:
        Boolean ``(NT, NT)`` lower-triangle mask of symbolically
        non-zero tiles *after* factorization (initial non-zeros plus
        fill-in; diagonal always True).
    initial_nonzero:
        Same mask before factorization.
    """

    nt: int
    trsm: list[list[int]]
    syrk: list[list[int]]
    gemm: dict[tuple[int, int], list[int]]
    final_nonzero: np.ndarray
    initial_nonzero: np.ndarray

    # ------------------------------------------------------------------

    def trsm_rows(self, k: int) -> list[int]:
        return self.trsm[k]

    def syrk_panels(self, m: int) -> list[int]:
        return self.syrk[m]

    def gemm_panels(self, m: int, n: int) -> list[int]:
        return self.gemm.get((m, n), [])

    def is_nonzero_final(self, m: int, k: int) -> bool:
        return bool(self.final_nonzero[m, k])

    # ------------------------------------------------------------------

    def initial_density(self) -> float:
        """Ratio of non-zero off-diagonal tiles before factorization."""
        return self._density(self.initial_nonzero)

    def final_density(self) -> float:
        """Ratio of non-zero off-diagonal tiles after factorization."""
        return self._density(self.final_nonzero)

    def _density(self, mask: np.ndarray) -> float:
        nt = self.nt
        if nt < 2:
            return 1.0
        off = [(m, k) for k in range(nt) for m in range(k + 1, nt)]
        return sum(1 for m, k in off if mask[m, k]) / len(off)

    def nbytes(self) -> int:
        """Approximate memory footprint of the analysis structure.

        8 bytes per stored index — the quantity plotted in Fig. 6
        (right) against matrix size.
        """
        n_indices = (
            sum(len(v) for v in self.trsm)
            + sum(len(v) for v in self.syrk)
            + sum(len(v) for v in self.gemm.values())
        )
        return 8 * n_indices + 8 * 2 * len(self.gemm)


def analyze_ranks(
    rank: np.ndarray,
    nt: int,
    local_filter: Callable[[int, int], bool] | None = None,
) -> TrimmingAnalysis:
    """Run Algorithm 1 on an initial rank array.

    Parameters
    ----------
    rank:
        Either the paper's 1D layout ``rank[k * NT + m]`` or an
        ``(NT, NT)`` matrix of initial tile ranks (both triangles or
        lower-only; only ``m >= k`` entries are read).  The array is
        not modified.
    nt:
        Number of tile rows/columns.
    local_filter:
        ``local_filter(m, n) -> bool`` emulating the distributed
        analysis: GEMM index lists are materialized only for tiles on
        this process (dependency *counts* are always complete).  Null
        marking still happens globally, as it must for correctness.

    Returns
    -------
    :class:`TrimmingAnalysis`
    """
    rank = np.asarray(rank)
    if rank.ndim == 1:
        if rank.size != nt * nt:
            raise ValueError(f"1D rank array must have NT^2={nt*nt} entries")
        rank2d = rank.reshape(nt, nt).T  # [k*NT+m] -> [m, k]
    elif rank.shape == (nt, nt):
        rank2d = rank
    else:
        raise ValueError(f"rank must be (NT*NT,) or (NT, NT), got {rank.shape}")

    # strict lower triangle by rank; diagonal tiles are dense, never trimmed
    nonzero = np.tril(rank2d > 0, -1)
    np.fill_diagonal(nonzero, True)
    initial = nonzero.copy()

    trsm: list[list[int]] = [[] for _ in range(nt)]
    syrk: list[list[int]] = [[] for _ in range(nt)]
    gemm: dict[tuple[int, int], list[int]] = {}

    for k in range(nt - 1):
        # Panel scan: rows needing TRSM, diagonal SYRK contributions.
        trsm[k] = rows = (k + 1 + np.flatnonzero(nonzero[k + 1 :, k])).tolist()
        for m in rows:
            syrk[m].append(k)
        # Update scan: every pair of non-zero panel tiles spawns a GEMM
        # and marks the target non-zero (fill-in).
        for i in range(1, len(rows)):
            m = rows[i]
            for j in range(i):
                n = rows[j]
                nonzero[m, n] = True
                if local_filter is None or local_filter(m, n):
                    gemm.setdefault((m, n), []).append(k)

    return TrimmingAnalysis(
        nt=nt,
        trsm=trsm,
        syrk=syrk,
        gemm=gemm,
        final_nonzero=nonzero,
        initial_nonzero=initial,
    )
