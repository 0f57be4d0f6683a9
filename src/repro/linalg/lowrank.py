"""Low-rank factors, truncated-SVD and randomized compression, rounding.

A rank-``k`` tile stores two tall-and-skinny factors ``U (m x k)`` and
``V (n x k)`` with ``block = U @ V.T`` (Section IV-B).  Compression
keeps the most significant singular values up to the accuracy
threshold; a tile whose largest singular value falls below the
threshold *disappears* (rank 0 → null), which is the data sparsity the
paper exploits.

Two compression methods coexist behind :class:`CompressionPolicy`:

* ``"svd"`` — exact truncated SVD (the baseline);
* ``"rand"`` — blocked adaptive randomized range-finder
  (H2OPUS-TLR style): cost scales with the *detected* rank instead of
  the tile size, with incremental rank detection against the same
  absolute/relative tolerance and a direct-SVD fallback once the
  sampled rank crosses the crossover point.

Both sit behind one null certificate (:func:`compress_block`): a block
with ``||A||_F <= tol`` has ``sigma_1 <= tol``, so it is null without
any decomposition — in the sparse regime that is most tiles.

Randomized results are a pure function of ``(block, tol, seed)``: the
Gaussian test matrices come from a ``PCG64`` stream seeded per tile
(:func:`derive_tile_seed` — operator seed root + tile coordinates +
generation: 0 for the build, 1 for the one rounding of the tile's
accumulated update), so the serial and threaded executors draw
identical samples and produce bitwise-identical factors.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from repro.config import DEFAULT_COMPRESSION, DTYPE, compression_from_env

__all__ = [
    "LowRankFactor",
    "CompressionPolicy",
    "CompressionStats",
    "resolve_compression",
    "derive_tile_seed",
    "truncated_svd",
    "randomized_compress",
    "compress_block",
    "recompress",
]


@dataclass(frozen=True)
class LowRankFactor:
    """Factor pair representing ``block = u @ v.T``.

    ``u`` has shape ``(m, k)`` and ``v`` has shape ``(n, k)`` with
    ``k >= 1``; rank-0 blocks are represented by ``None`` elsewhere,
    never by an empty factor.

    The arrays are stored as given — **no defensive copy, no layout
    normalization** — so factors can wrap views over external buffers
    for free.  The flip side is an immutability contract: holders must
    never mutate ``u``/``v`` in place, and kernels that reuse an
    operand's factor share it rather than copying.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.u.ndim != 2 or self.v.ndim != 2:
            raise ValueError("u and v must be 2D arrays")
        if self.u.shape[1] != self.v.shape[1]:
            raise ValueError(
                f"rank mismatch: u has {self.u.shape[1]} columns, "
                f"v has {self.v.shape[1]}"
            )
        if self.u.shape[1] == 0:
            raise ValueError("rank-0 factors are not allowed; use a null tile")

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def nbytes(self) -> int:
        return self.u.nbytes + self.v.nbytes

    def to_dense(self) -> np.ndarray:
        return self.u @ self.v.T

    def transpose(self) -> "LowRankFactor":
        """Factors of the transposed block (swap u and v)."""
        return LowRankFactor(self.v, self.u)


def _truncation_rank(s: np.ndarray, tol: float, relative: bool) -> int:
    """Number of singular values kept by the accuracy threshold."""
    if len(s) == 0:
        return 0
    cutoff = tol * s[0] if relative else tol
    return int(np.count_nonzero(s > cutoff))


# ---------------------------------------------------------------------
# compression policy, deterministic seeding and stats
# ---------------------------------------------------------------------

_METHODS = ("svd", "rand")


def derive_tile_seed(root: int, m: int, k: int, gen: int = 0) -> int:
    """Deterministic 64-bit seed for one tile's random sampling.

    ``root`` identifies the operator (e.g. its spec fingerprint),
    ``(m, k)`` the tile, and ``gen`` the generation: 0 for the
    build-time compression, 1 for the rounding of the tile's
    accumulated factorization update (a tile is rounded once).  The
    seed is a pure function of the tile, so it is identical no matter
    which engine or worker count executes the graph.  Hash-based
    (BLAKE2b), so neighbouring tiles get unrelated streams.
    """
    h = hashlib.blake2b(f"{root}|{m}|{k}|{gen}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class CompressionPolicy:
    """How dense blocks are compressed.

    ``method="svd"`` is the exact baseline; ``method="rand"`` routes
    compression through the adaptive randomized range-finder below.
    The method selects how *input* tiles are built; the factorization
    rounds every accumulated update with the range-finder regardless
    (``linalg.kernels_tlr.gemm_update``).  ``seed_root`` anchors the
    deterministic per-tile seed derivation (build and update rounding
    alike); ``sample_block`` sets the range-finder's later panel widths
    (a rank hint may widen the first), ``oversample`` the cushion past
    the detected rank, ``crossover`` the share of the short tile side
    past which the randomized path cedes to the direct SVD.
    """

    method: str = DEFAULT_COMPRESSION
    seed_root: int = 0
    sample_block: int = 16
    oversample: int = 8
    crossover: float = 0.5

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(
                f"compression method must be one of {_METHODS}, "
                f"got {self.method!r}"
            )
        if self.sample_block < 1:
            raise ValueError(
                f"sample_block must be >= 1, got {self.sample_block}"
            )
        if self.oversample < 0:
            raise ValueError(
                f"oversample must be >= 0, got {self.oversample}"
            )
        if not 0.0 < self.crossover <= 1.0:
            raise ValueError(
                f"crossover must be in (0, 1], got {self.crossover}"
            )

    @property
    def randomized(self) -> bool:
        return self.method == "rand"

    def tile_seed(self, m: int, k: int, gen: int = 0) -> int:
        return derive_tile_seed(self.seed_root, m, k, gen)


def resolve_compression(
    value: CompressionPolicy | str | None, seed_root: int = 0
) -> CompressionPolicy:
    """Coerce a method spec: an explicit policy or method name wins,
    then ``$REPRO_COMPRESSION``, then the svd default."""
    if isinstance(value, CompressionPolicy):
        return value
    if value is None:
        value = compression_from_env()
    return CompressionPolicy(method=str(value), seed_root=int(seed_root))


class CompressionStats:
    """Mutable per-build counters (method mix, null certificates,
    sampled-rank profile).

    Filled by :meth:`~repro.linalg.tile_matrix.TLRMatrix.compress` and
    printed by ``repro factorize``; process-local (a fleet shard's
    counts stay in the shard), so treat the numbers as build-time
    observability, not an exact global ledger.  ``bound_null`` counts
    tiles certified null from the generator's norm bound (never
    generated), ``screened_null`` those certified by their Frobenius
    norm (generated, never decomposed).
    """

    __slots__ = (
        "svd_tiles",
        "rand_tiles",
        "rand_dense",
        "rand_svd_fallback",
        "screened_null",
        "bound_null",
        "sampled_tiles",
        "sampled_rank_sum",
        "sampled_rank_max",
        "fp32_tiles",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def record_sampled(self, sampled: int) -> None:
        self.sampled_tiles += 1
        self.sampled_rank_sum += int(sampled)
        self.sampled_rank_max = max(self.sampled_rank_max, int(sampled))

    def to_dict(self) -> dict:
        out = {name: int(getattr(self, name)) for name in self.__slots__}
        out["sampled_rank_avg"] = (
            self.sampled_rank_sum / self.sampled_tiles
            if self.sampled_tiles
            else 0.0
        )
        return out


#: relative head-room of the null certificate: the computed
#: ``||A||_F`` must clear the cutoff by more than the rounding of the
#: norm and of an SVD's ``sigma_1``, so the certificate never disagrees
#: with the decomposition it replaces
_NULL_MARGIN = 1.0e-10


def _certified_null(fnorm: float, tol: float, relative: bool) -> bool:
    """True when ``fnorm = ||A||_F`` proves the block compresses to null.

    ``sigma_1 <= ||A||_F``, so a Frobenius norm under the truncation
    cutoff (``tol``, or ``tol * sigma_1`` in relative mode, which only
    a zero block or ``tol >= 1`` can meet) means every singular value
    would be discarded: the tile disappears for the price of one pass
    over the block instead of a decomposition (H2OPUS-TLR's
    norm-driven early exit).
    """
    cutoff = tol * fnorm if relative else tol
    return fnorm <= cutoff * (1.0 - _NULL_MARGIN)


#: fetched once: at these sizes scipy's wrappers cost as much as LAPACK
_GEQRF, _ORGQR, _GESDD = sla.get_lapack_funcs(("geqrf", "orgqr", "gesdd"), dtype=DTYPE)


def _lapack(out: tuple) -> tuple:
    """A raw LAPACK call's outputs without ``info``; ``info != 0`` raises."""
    if out[-1] != 0:
        raise np.linalg.LinAlgError(f"LAPACK returned info={out[-1]}")
    return out[:-1]


def _orthonormal(y: np.ndarray) -> np.ndarray:
    """``Q`` of the economy QR of a tall ``y``, which it overwrites."""
    qr, tau, _ = _lapack(_GEQRF(y, overwrite_a=1))
    return _lapack(_ORGQR(qr, tau, overwrite_a=1))[0]


def truncated_svd(
    block: np.ndarray, tol: float, relative: bool = False
) -> LowRankFactor | None:
    """Compress a dense block by truncated SVD.

    Parameters
    ----------
    block:
        Dense ``(m, n)`` array.
    tol:
        Accuracy threshold: singular values ``<= tol`` (absolute, the
        HiCMA fixed-accuracy convention) or ``<= tol * sigma_1``
        (``relative=True``) are discarded.

    Returns
    -------
    A :class:`LowRankFactor` absorbing the singular values into ``u``
    (``u = U_k * s_k``, ``v = V_k``), or ``None`` if every singular
    value is below the threshold (the tile *disappears*).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    block = np.asarray(block, dtype=DTYPE)
    u, s, vt = sla.svd(block, full_matrices=False, check_finite=False)
    k = _truncation_rank(s, tol, relative)
    if k == 0:
        return None
    return LowRankFactor(
        np.ascontiguousarray(u[:, :k] * s[:k]),
        np.ascontiguousarray(vt[:k].T),
    )


def randomized_compress(
    block: np.ndarray,
    tol: float,
    relative: bool = False,
    max_rank: int | None = None,
    seed: int = 0,
    sample_block: int = 16,
    oversample: int = 8,
    crossover: float = 0.5,
    stats: CompressionStats | None = None,
    rank_hint: int = 0,
    fnorm: float | None = None,
) -> LowRankFactor | np.ndarray | None:
    """Compress a dense block with a blocked adaptive range-finder.

    Gaussian panels are drawn from a ``PCG64(seed)`` stream, projected
    against the basis built so far, and folded in until the explicit
    residual's Frobenius norm drops below the threshold — at which
    point *every* remaining singular value is below the SVD truncation
    cutoff, so the final small SVD of ``Q^T A`` applies the exact HiCMA
    rule to a spectrum that contains everything the full SVD would have
    kept.  Panels are ``sample_block`` wide; the first is ``rank_hint +
    oversample`` (``rank_hint``: the caller's expected rank) when that
    is wider and under the cap below, which must hold two default
    panels.  Each ``Q_j^T A`` is both a downdate and rows of the core.
    Cost is ``O(mn(k + p))`` for detected rank ``k``, versus
    ``O(mn min(m, n))`` for the full SVD.

    Rank detection is capped: past ``max_rank + oversample`` columns
    the block is declared over-rank and returned dense (exact, no
    decomposition wasted); past ``crossover * min(m, n)`` columns the
    block is not meaningfully low-rank and the direct SVD takes over.
    ``fnorm`` is ``||A||_F`` if the caller has taken it.  The result is
    a pure function of ``(block, tol, seed, rank_hint)`` — same inputs,
    same factor, bitwise, on every execution engine.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    block = np.asarray(block, dtype=DTYPE)
    m, n = block.shape
    if fnorm is None:
        fnorm = float(np.linalg.norm(block))
    if _certified_null(fnorm, tol, relative):
        return None
    stop = tol * fnorm if relative else tol

    cross_cap = max(1, int(math.ceil(crossover * min(m, n))))
    cap = cross_cap if max_rank is None else min(cross_cap, max_rank + oversample)

    rng = np.random.Generator(np.random.PCG64(seed))
    q_basis: np.ndarray | None = None
    rows = []  # Q_j^T A of every panel: the core, row block by row block
    resid = block
    width = rank_hint + oversample
    if not (sample_block < width < cap and 2 * sample_block <= cap):
        width = sample_block
    sampled, converged = 0, False
    while not converged and sampled < cap:
        p = min(width, cap - sampled)
        width = sample_block
        y = (rng.standard_normal((p, n)) @ resid.T).T  # F-ordered, for geqrf
        if q_basis is not None:
            y -= q_basis @ (q_basis.T @ y)
        qj = _orthonormal(y)
        if q_basis is not None:
            # again: QR scales y's roundoff columns, basis parts too, to unit length
            qj -= q_basis @ (q_basis.T @ qj)
            qj = _orthonormal(qj)
        q_basis = qj if q_basis is None else np.hstack([q_basis, qj])
        rows.append(qj.T @ block)
        resid = resid - qj @ rows[-1]
        sampled += p
        converged = float(np.linalg.norm(resid)) <= stop

    if stats is not None:
        stats.record_sampled(sampled)
    if not converged:
        if max_rank is not None and cap < cross_cap:
            # over the rank budget before the crossover: the dense
            # fallback is exact, so skip any decomposition entirely
            if stats is not None:
                stats.rand_dense += 1
            return np.asarray(block, dtype=DTYPE)
        # not meaningfully low-rank: direct SVD decides (and applies
        # the identical truncation rule)
        if stats is not None:
            stats.rand_svd_fallback += 1
        factor = truncated_svd(block, tol, relative=relative)
        if factor is None:
            return None
        if max_rank is not None and factor.rank > max_rank:
            return np.asarray(block, dtype=DTYPE)
        return factor

    # SVD of the core's F-ordered tall transpose, core^T = W diag(s) Z^T
    w, s, zt = _lapack(_GESDD(np.vstack(rows).T, full_matrices=0, overwrite_a=1))
    k = _truncation_rank(s, tol, relative)
    if k == 0:
        return None
    if max_rank is not None and k > max_rank:
        if stats is not None:
            stats.rand_dense += 1
        return np.asarray(block, dtype=DTYPE)
    return LowRankFactor(
        np.ascontiguousarray(q_basis @ (zt[:k].T * s[:k])),
        np.ascontiguousarray(w[:, :k]),
    )


def compress_block(
    block: np.ndarray,
    tol: float,
    max_rank: int | None = None,
    relative: bool = False,
    policy: CompressionPolicy | None = None,
    seed: int = 0,
    stats: CompressionStats | None = None,
    rank_hint: int = 0,
) -> LowRankFactor | np.ndarray | None:
    """Compress a dense block, falling back to dense for high ranks.

    Returns ``None`` (null tile) when the block is negligible, a
    :class:`LowRankFactor` when the numerical rank is at most
    ``max_rank``, and the original dense block otherwise — mirroring
    HiCMA's maxrank convention (config ``DENSE_RANK_FRACTION``).

    Whatever the method, a block whose Frobenius norm certifies it null
    (:func:`_certified_null`) returns before any decomposition.
    ``policy`` then selects the method: randomized policies route
    through :func:`randomized_compress` with the per-tile ``seed``,
    ``rank_hint`` and that norm; the default is the exact truncated SVD.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    block = np.asarray(block, dtype=DTYPE)
    randomized = policy is not None and policy.randomized
    if stats is not None:
        if randomized:
            stats.rand_tiles += 1
        else:
            stats.svd_tiles += 1
    fnorm = float(np.linalg.norm(block))
    if _certified_null(fnorm, tol, relative):
        if stats is not None:
            stats.screened_null += 1
        return None
    if randomized:
        return randomized_compress(
            block,
            tol,
            relative=relative,
            max_rank=max_rank,
            seed=seed,
            sample_block=policy.sample_block,
            oversample=policy.oversample,
            crossover=policy.crossover,
            stats=stats,
            rank_hint=rank_hint,
            fnorm=fnorm,
        )
    factor = truncated_svd(block, tol, relative=relative)
    if factor is None:
        return None
    if max_rank is not None and factor.rank > max_rank:
        return block
    return factor


def recompress(
    factor: LowRankFactor, tol: float, relative: bool = False
) -> LowRankFactor | None:
    """Round a (possibly inflated) low-rank factor back to minimal rank.

    A sum of low-rank terms stored as stacked factors (HiCMA's GEMM
    leaves rank ``k_C + min(k_A, k_B)``) carries more columns than its
    numerical rank; this rounding step restores it with QR
    factorizations of both factors followed by an SVD of the small
    core — the standard low-rank rounding.  The factorization rounds
    with :func:`randomized_compress`; this exact rounding stays as the
    reference the property tests compare against (the benchmark times
    it too).

    Cost: ``O((m+n) K^2 + K^3)`` for accumulated rank ``K``, versus
    ``O(m n min(m, n))`` for recompressing the dense block.  Two fast
    paths: a rank-0 factor (possible for duck-typed callers; the
    :class:`LowRankFactor` invariant forbids it) has nothing to round
    and is returned untouched, and once ``K`` exceeds half the tile
    dimension the economy QR-QR-SVD pipeline costs more than a single
    dense SVD of the materialized block, so the dense route wins (the
    truncation rule is identical, so the result is the same factor).
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if factor.rank == 0:
        return factor
    short_side = min(factor.shape)
    if factor.rank >= max(1, short_side // 2):
        return truncated_svd(factor.to_dense(), tol, relative=relative)
    # promote fp32-stored factors: rounding always computes in DTYPE
    # (no-op, no copy, for the usual fp64 inputs)
    qu, ru = sla.qr(
        np.asarray(factor.u, dtype=DTYPE), mode="economic", check_finite=False
    )
    qv, rv = sla.qr(
        np.asarray(factor.v, dtype=DTYPE), mode="economic", check_finite=False
    )
    core = ru @ rv.T
    u, s, vt = sla.svd(core, full_matrices=False, check_finite=False)
    k = _truncation_rank(s, tol, relative)
    if k == 0:
        return None
    return LowRankFactor(
        np.ascontiguousarray(qu @ (u[:, :k] * s[:k])),
        np.ascontiguousarray(qv @ vt[:k].T),
    )
