"""Closed-form at-scale performance model.

For paper-scale problems (NT ~ 10^4 tiles, up to 2048 nodes) per-task
event simulation is intractable, but the quantities that determine the
makespan are computable directly from the symbolic structure:

* ``T_cp`` — the critical path: the sequential POTRF → first-TRSM →
  first-SYRK chain per panel (Section IV-B), including the network
  hops between panel owners; the band distribution removes the
  POTRF→TRSM hop (Section VII-A).  Critical-path kernels exploit
  PaRSEC's nested parallelism over the node's cores.
* ``T_work`` — the busiest process's kernel time divided by its cores,
  computed exactly (or panel-sampled at extreme scale) from the rank
  field and the *execution* distribution — this is where the diamond
  distribution's balance shows up (Section VII-B).
* ``T_comm`` — the busiest process's communication time from received
  bytes and message counts; DAG trimming removes the broadcasts and
  control messages of null tiles (Section VI).

``makespan = max(T_cp, T_work, T_comm)`` — each component a lower
bound, their maximum the model's estimate.  The model is validated
against the exact discrete-event simulator at overlapping scales (see
``tests/machine/test_analytic_vs_des.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.lorapo import FrameworkConfig
from repro.core.rank_model import SyntheticRankField, analyze_mask_fast
from repro.machine.costmodel import CostModel
from repro.machine.models import MachineModel

__all__ = ["AnalyticModel", "AnalyticResult"]

#: Cap on exact per-panel GEMM aggregation; beyond it panels are
#: strided-sampled and contributions rescaled.
_PAIR_BUDGET = 20_000_000


@dataclass
class AnalyticResult:
    """Makespan estimate and its components (seconds)."""

    makespan: float
    #: the paper's *optimistic* roofline (Sec. VIII-G): the sequential
    #: POTRF/TRSM/SYRK kernel chain, no communication
    t_critical_path: float
    #: the dependency-chain time actually limiting progress: the
    #: optimistic chain plus network hops plus the serialized SYRK
    #: accumulation into each diagonal tile (RW chains)
    t_cp_effective: float
    t_work: float
    t_comm: float
    n_tasks: int
    n_null_tasks: int
    comm_bytes: float
    total_kernel_seconds: float
    initial_density: float
    final_density: float

    @property
    def cp_efficiency(self) -> float:
        """Critical-path roofline efficiency (Fig. 13): the optimistic
        bound over the achieved time-to-solution."""
        if self.makespan <= 0.0:
            return 1.0
        return self.t_critical_path / self.makespan


class AnalyticModel:
    """Performance model for one (machine, nodes, framework) setup.

    Every task and message is priced by :class:`CostModel`; this class
    only composes those prices.
    """

    def __init__(
        self,
        machine: MachineModel,
        n_nodes: int,
        config: FrameworkConfig,
        pair_budget: int = _PAIR_BUDGET,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if pair_budget < 1:
            raise ValueError(f"pair_budget must be >= 1, got {pair_budget}")
        self.pair_budget = int(pair_budget)
        self.machine = machine
        self.nproc = int(n_nodes)  # one process per node (paper setup)
        self.config = config
        self.cost = CostModel(machine)
        self.data_dist = config.data_distribution(self.nproc)
        self.exec_dist = (
            config.exec_distribution(self.nproc)
            if config.exec_distribution is not None
            else self.data_dist
        )

    # ------------------------------------------------------------------

    def factorization_time(self, field: SyntheticRankField) -> AnalyticResult:
        """Estimate the TLR Cholesky time-to-solution for a rank field.

        The estimate is the Graham-style composition
        ``T = T_cp + T_work + T_comm``: in practice the off-critical-
        path work and communication of a panel overlap the critical
        path of *later* panels only partially, and the additive bound
        tracks measured TLR Cholesky behaviour much better than the
        pure max (the paper's Fig. 13 reports 75.4% critical-path
        efficiency — i.e. a 25% additive contribution — for the best
        configuration).
        """
        nt = field.nt
        b = field.tile_size
        cm = self.cost
        m = self.machine
        trim = self.config.trim

        mask = field.initial_mask()
        fast = analyze_mask_fast(mask)
        final = fast["final_mask"]
        rank_d = np.minimum(field.rank_by_distance[:nt], b)

        # Null-tile semantics (FrameworkConfig.null_rank_floor): the
        # rank a symbolically-null tile is *processed at*.  0 = true
        # null (kernel no-op, control message); > 0 = Lorapo-style
        # fixed-rank processing of every tile.
        floor = self.config.null_rank_floor
        if floor == "mean":
            # the mean rank over ALL off-diagonal tiles (null tiles
            # count as rank 0): the average tile Lorapo stores and
            # processes in place of a true null
            tiles_per_d = (nt - np.arange(1, nt)).astype(np.float64)
            wsum = float(tiles_per_d.sum())
            floor = (
                float(
                    (
                        field.density_by_distance[1:nt]
                        * rank_d[1:nt]
                        * tiles_per_d
                    ).sum()
                    / wsum
                )
                if wsum > 0
                else 1.0
            )
            floor = max(1.0, floor)
        floor = 0.0 if floor is None else float(floor)

        # --- critical path -------------------------------------------
        sub_rank = int(rank_d[1]) if nt > 1 else b
        # the panel chain always runs nested over the node's cores
        t_panel = (
            cm.potrf_time(b)
            + cm.trsm_time(b, sub_rank)
            + cm.syrk_time(b, sub_rank)
        ) / cm.nested_speed
        # Column-broadcast participants: with trimming only processes
        # owning non-null panel tiles join; otherwise the full column
        # process group.  The tree depth delays the critical TRSM.
        col_group = max(
            1, len(self.exec_dist.column_group(0, min(nt, 4 * self.nproc)))
        )
        mean_col_nnz = float(fast["nnz_col"][: max(nt - 1, 1)].mean()) if nt > 1 else 0.0
        n_bcast = col_group if (not trim or floor > 0) else min(
            col_group, max(1.0, mean_col_nnz * col_group / max(nt, 1) + 1.0)
        )
        # The critical TRSM owner sits, in expectation, halfway down
        # the binomial broadcast tree.
        depth = max(1, math.ceil(math.log2(n_bcast + 1) / 2.0))
        band = _has_band(self.exec_dist)
        # POTRF -> first TRSM: local under the band mapping, else the
        # dense diagonal tile crosses the network via the broadcast.
        hop_potrf = 0.0 if band else depth * cm.transfer_time(cm.tile_bytes(b, b))
        # TRSM -> next panel's SYRK: one transfer of the subdiagonal.
        hop_trsm = cm.transfer_time(cm.tile_bytes(b, sub_rank))
        # The paper's optimistic roofline: kernels only.
        t_cp_optimistic = nt * t_panel
        # SYRK accumulation chains: every update into (m, m) holds an
        # RW dependency on the diagonal tile, so the n contributions
        # serialize; they pipeline over the panels between the first
        # contribution and POTRF(m), and whatever does not fit extends
        # the effective critical path (accumulated below, then used in
        # the makespan).
        diag_chain = np.zeros(nt)  # serialized SYRK seconds into (m, m)
        first_contrib = np.full(nt, nt, dtype=np.int64)

        # --- per-process kernel work and communication ----------------
        work = np.zeros(self.nproc)  # seconds of kernel time per process
        recv = np.zeros(self.nproc)  # bytes received per process
        msgs = np.zeros(self.nproc)  # messages received per process

        dense_tile_bytes = cm.tile_bytes(b, b)
        n_tasks = nt  # POTRFs
        n_null = 0

        # Task space: symbolically non-zero tiles when trimmed; every
        # tile otherwise.
        if trim:
            total_pairs = int(fast["n_gemm_col"].sum())
        else:
            total_pairs = sum(
                (nt - 1 - k) * (nt - 2 - k) // 2 for k in range(nt - 1)
            )
        # Panel-strided sampling beyond the pair budget; cap the stride
        # so at least ~16 panels are sampled (panel sizes vary
        # quadratically with k, so too few samples would bias the
        # estimate toward the large early panels).
        stride = max(1, math.ceil(total_pairs / self.pair_budget))
        stride = min(stride, max(1, nt // 16))

        for k in range(nt - 1):
            occ = final[k + 1 :, k]
            if trim:
                rows = np.nonzero(occ)[0] + (k + 1)
                # fill-in tiles may sit beyond the profile's null
                # cutoff; they are non-null, so floor their rank at 2
                r_rows = np.maximum(
                    field.rank_lookup(rows, np.full_like(rows, k)), 2
                )
            else:
                rows = np.arange(k + 1, nt)
                looked = np.maximum(
                    field.rank_lookup(rows, np.full_like(rows, k)), 2
                )
                r_rows = np.where(occ, looked, floor)
                n_null += int(2 * np.count_nonzero(r_rows == 0))
            if len(rows) == 0:
                continue

            # TRSM / SYRK tasks of panel k.
            trsm_owners = self.exec_dist.owner_vec(rows, np.full_like(rows, k))
            syrk_owners = self.exec_dist.owner_vec(rows, rows)
            np.add.at(work, trsm_owners, cm.trsm_time(b, r_rows))
            np.add.at(work, syrk_owners, cm.syrk_time(b, r_rows))
            n_tasks += 2 * len(rows) + len(rows) * (len(rows) - 1) // 2
            # Diagonal accumulation chains (real contributions only),
            # advancing at each SYRK's node time.
            live = r_rows > 0
            chain_t, _ = cm.node_time("SYRK", b, r_rows)
            np.add.at(diag_chain, rows[live], chain_t[live])
            np.minimum.at(first_contrib, rows[live], k)

            # POTRF(k) broadcast of the dense diagonal tile.
            dests = np.unique(trsm_owners[r_rows > 0] if trim else trsm_owners)
            dests = dests[dests != self.exec_dist.owner(k, k)]
            np.add.at(recv, dests, dense_tile_bytes)
            np.add.at(msgs, dests, 1.0)

            # GEMM tasks (panel-sampled beyond the pair budget).
            if len(rows) > 1 and (k % stride == 0):
                scale = float(stride)
                ii, jj = np.triu_indices(len(rows), k=1)  # ii < jj
                gm = rows[jj]  # target (m, n) with m > n
                gn = rows[ii]
                ka = r_rows[jj]
                kb = r_rows[ii]
                kc = np.where(
                    final[gm, gn],
                    np.maximum(field.rank_lookup(gm, gn), 2),
                    floor if floor > 0 else 1.0,
                )
                towners = self.exec_dist.owner_vec(gm, gn)
                tt = cm.gemm_time(b, ka, kb, kc)
                np.add.at(work, towners, tt * scale)
                if not trim and floor == 0.0:
                    n_null += int(np.count_nonzero((ka == 0) | (kb == 0)) * scale)
                # Operand tiles (m,k) and (n,k) reach each distinct
                # consumer process once (PaRSEC dedups per dest).
                for op_rows, op_ranks in ((gm, ka), (gn, kb)):
                    key = op_rows.astype(np.int64) * self.nproc + towners
                    uniq, first = np.unique(key, return_index=True)
                    ob = cm.tile_bytes(b, op_ranks[first])
                    dest = (uniq % self.nproc).astype(np.int64)
                    np.add.at(recv, dest, ob * scale)
                    np.add.at(msgs, dest, 1.0 * scale)

        # Remapped execution: off-band tiles fetched/written back at
        # most twice (Section VII-B); spread uniformly.
        if self.exec_dist is not self.data_dist:
            d = np.arange(2, nt)
            per_d = (
                2
                * cm.tile_bytes(b, rank_d[2:nt].astype(np.int64))
                * (nt - d)
                * field.density_by_distance[2:nt]
            )
            moved = sum(per_d.tolist(), 0.0)  # in d order, as summed per tile
            recv += moved / self.nproc
            msgs += (2 * nt) / self.nproc

        # Effective critical path: per panel, the larger of the panel
        # kernel chain (+hops) and the portion of the diagonal SYRK
        # chain that its pipelining span cannot hide.
        span = np.maximum(np.arange(nt) - first_contrib, 1)
        increments = np.where(first_contrib < nt, diag_chain / span, 0.0)
        per_panel = np.maximum(t_panel + hop_potrf + hop_trsm, increments)
        per_panel[0] = t_panel  # first panel has no incoming hops
        t_cp_effective = float(per_panel.sum())

        # PTG discovery: every process walks the task index space
        # (startup enumeration + successor iteration), a per-process
        # cost independent of the process count — the overhead whose
        # removal makes trimming pay off more as everything else
        # strong-scales (Fig. 6).
        t_discovery = n_tasks * m.predicate_overhead / m.cores_per_node

        t_work = (
            float(work.max()) / m.cores_per_node + t_discovery
            if self.nproc
            else t_discovery
        )
        t_comm = float(
            np.max(
                1.5 * recv / m.network_bandwidth
                + msgs * (m.network_latency + m.message_overhead)
            )
        )

        makespan = t_cp_effective + t_work + t_comm
        return AnalyticResult(
            makespan=makespan,
            t_critical_path=t_cp_optimistic,
            t_cp_effective=t_cp_effective,
            t_work=t_work,
            t_comm=t_comm,
            n_tasks=int(n_tasks),
            n_null_tasks=int(n_null),
            comm_bytes=float(recv.sum()),
            total_kernel_seconds=float(work.sum()),
            initial_density=float(fast["initial_density"]),
            final_density=float(fast["final_density"]),
        )

    # ------------------------------------------------------------------

    def generation_time(self, field: SyntheticRankField) -> float:
        """Dense generation of all lower-triangle tiles (parallel)."""
        nt = field.nt
        n_tiles = nt * (nt + 1) // 2
        per_tile = self.cost.generation_time(field.tile_size)
        return n_tiles * per_tile / (self.nproc * self.machine.cores_per_node)

    def compression_time(self, field: SyntheticRankField) -> float:
        """Randomized compression of all off-diagonal tiles (parallel)
        — the post-optimization bottleneck of Fig. 11.  The sketch
        rank follows the field's near-diagonal rank (plus
        oversampling); every tile pays it, null tiles included — one
        must compress a tile to discover it vanishes."""
        nt = field.nt
        n_tiles = nt * (nt - 1) // 2
        sketch_rank = int(max(field.rank_by_distance[1 : max(2, nt)].max(), 32))
        per_tile = self.cost.compression_time(field.tile_size, sketch_rank)
        return n_tiles * per_tile / (self.nproc * self.machine.cores_per_node)

    def trimming_analysis_time(self, field: SyntheticRankField) -> float:
        """Cost of Algorithm 1 itself (Fig. 6 right): O(d^2 NT^3)
        index operations at memory speed, distributed over processes."""
        nt = field.nt
        d = field.initial_density()
        ops = max(nt * nt, (d * nt) ** 2 * nt)
        return 8.0 * ops / self.machine.core_mem_bandwidth / self.nproc


def _has_band(dist) -> bool:
    """True if the execution mapping pins the subdiagonal to the
    diagonal owner (the band property of Fig. 3c)."""
    try:
        return all(dist.owner(k + 1, k) == dist.owner(k, k) for k in range(8))
    except IndexError:
        return False
