"""Lorapo baseline (Cao et al., PASC'20) — the paper's state of the art.

Lorapo runs TLR Cholesky over PaRSEC with:

* the **full dense DAG** — tasks on null tiles and their dependencies
  are still created, scheduled and released (no trimming);
* the **hybrid 1D+2D block-cyclic** data distribution (Fig. 3b);
* strict **owner-computes** execution mapping.

In process the same numerics are ``tlr_cholesky(a, trim=False)``; the
:data:`LORAPO` config carries the distribution/trimming choices into
the distributed simulator so at-scale comparisons (Figs. 8-12) pit the
same two configurations against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.distribution import Distribution, HybridDistribution, square_grid

__all__ = ["FrameworkConfig", "LORAPO"]


@dataclass(frozen=True)
class FrameworkConfig:
    """One framework configuration for the distributed simulator.

    ``data_distribution(nproc)`` places the tiles; if
    ``exec_distribution`` is given the runtime breaks owner-computes
    and runs each task where *that* distribution maps its output tile
    (Section VII-B), paying at most two extra transfers per tile.
    """

    name: str
    trim: bool
    data_distribution: Callable[[int], Distribution]
    exec_distribution: Callable[[int], Distribution] | None = None
    #: How the framework treats tiles that compressed to rank zero:
    #: ``None`` — true null tiles (HiCMA-PaRSEC: no storage, no flops;
    #: without trimming their tasks still exist as runtime no-ops);
    #: ``"mean"`` — no null-tile support (Lorapo: every off-diagonal
    #: tile is stored and processed as a low-rank tile whose rank is
    #: the mean non-null rank, the fixed-rank processing semantics of
    #: the PASC'20 implementation); a float pins the floor explicitly.
    null_rank_floor: str | float | None = None


def _hybrid(nproc: int) -> Distribution:
    p, q = square_grid(nproc)
    return HybridDistribution(p, q)


#: Simulator configuration of the Lorapo baseline.
LORAPO = FrameworkConfig(
    name="Lorapo",
    trim=False,
    data_distribution=_hybrid,
    exec_distribution=None,  # owner-computes
    null_rank_floor="mean",  # no null-tile support
)
