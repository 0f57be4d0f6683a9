"""Low-rank factors, truncated-SVD and randomized compression, rounding.

A rank-``k`` tile stores two tall-and-skinny factors ``U (m x k)`` and
``V (n x k)`` with ``block = U @ V.T`` (Section IV-B).  Compression
keeps the most significant singular values up to the accuracy
threshold; a tile whose largest singular value falls below the
threshold *disappears* (rank 0 → null), which is the data sparsity the
paper exploits.

:func:`compress_block` is the one compression routine: the build
compresses every off-diagonal tile with it and the factorization rounds
every accumulated update with it.  Its default ``"svd"`` method is the
exact-rank truncated SVD on a blocked adaptive range-finder
(H2OPUS-TLR style) whose cost scales with the *detected* rank: sampling
stops on a proof (Weyl's bound in quadrature) that gesdd's rank is
kept; small tiles, relative cutoffs and uncertified tiles run gesdd.
A null certificate goes first: a block with ``||A||_F <= tol`` has
``sigma_1 <= tol``, so it is null without any decomposition — in the
sparse regime that is most tiles.  The certified path reads one fixed
Gaussian test matrix per tile width (:func:`_test_matrix`), so its
result is a pure function of ``(block, tol)``.

``method="rand"`` (:func:`randomized_compress`) stops the same
range-finder on its residual alone, with a direct-SVD fallback once
the sampled rank crosses the crossover; its rank can differ from
gesdd's by one.  It draws from a ``PCG64`` stream seeded per tile
(:func:`derive_tile_seed`) and is kept only as a build to price the
certified path against.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from repro.config import DTYPE

__all__ = [
    "LowRankFactor",
    "CompressionStats",
    "derive_tile_seed",
    "truncated_svd",
    "randomized_compress",
    "compress_block",
    "recompress",
]


#: the storage dtype as a descriptor (an identity test on the hot path)
_DTYPE = np.dtype(DTYPE)


@dataclass(frozen=True)
class LowRankFactor:
    """Factor pair representing ``block = u @ v.T``.

    ``u`` has shape ``(m, k)`` and ``v`` has shape ``(n, k)`` with
    ``k >= 1``; rank-0 blocks are represented by ``None`` elsewhere,
    never by an empty factor.

    The arrays are stored as DTYPE ndarrays the way
    :class:`~repro.linalg.tile.DenseTile` stores its data: a DTYPE
    array is kept as given — **no defensive copy, no layout
    normalization** — so factors can wrap views over external buffers
    for free; any other dtype is converted, keeping the memory order.
    The flip side is an immutability contract: holders must never
    mutate ``u``/``v`` in place, and kernels that reuse an operand's
    factor share it rather than copying.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.u.dtype is not _DTYPE or self.v.dtype is not _DTYPE:
            object.__setattr__(self, "u", np.asarray(self.u, dtype=DTYPE))
            object.__setattr__(self, "v", np.asarray(self.v, dtype=DTYPE))
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


def _truncation_rank(s: np.ndarray, tol: float, relative: bool) -> int:
    """Number of singular values kept by the accuracy threshold."""
    if len(s) == 0:
        return 0
    cutoff = tol * s[0] if relative else tol
    return int(np.count_nonzero(s > cutoff))


# ---------------------------------------------------------------------
# compression methods, the rand build's seeding and stats
# ---------------------------------------------------------------------

_METHODS = ("svd", "rand")


def derive_tile_seed(root: int, m: int, k: int, gen: int = 0) -> int:
    """Deterministic 64-bit seed for one tile's random sampling.

    ``root`` and ``gen`` name the stream family (a ``"rand"`` build
    uses root 0, generation 0) and ``(m, k)`` the tile, so the seed is
    a pure function of the tile.  Hash-based (BLAKE2b), so neighbouring
    tiles get unrelated streams.
    """
    h = hashlib.blake2b(f"{root}|{m}|{k}|{gen}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


class CompressionStats:
    """Mutable per-build counters (method mix, null certificates,
    sampled-rank profile).

    Filled by :meth:`~repro.linalg.tile_matrix.TLRMatrix.compress` and
    printed by ``repro factorize``; process-local (a fleet shard's
    counts stay in the shard), so treat the numbers as build-time
    observability, not an exact global ledger.  ``bound_null`` counts
    tiles certified null by the generator's norm bound (never
    generated), ``screened_null`` by their Frobenius norm (generated,
    never decomposed), ``svd_fallback`` svd tiles sampled, then gesdd.
    """

    __slots__ = (
        "svd_tiles",
        "rand_tiles",
        "rand_dense",
        "rand_svd_fallback",
        "svd_fallback",
        "screened_null",
        "bound_null",
        "sampled_tiles",
        "sampled_rank_sum",
        "sampled_rank_max",
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
    """Compress a dense block by truncated SVD (LAPACK ``gesdd``).

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
    value is below the threshold (the tile *disappears*).  A failed
    ``gesdd`` raises ``LinAlgError``.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    u, s, vt = _lapack(_GESDD(np.asarray(block, dtype=DTYPE), full_matrices=0))
    k = _truncation_rank(s, tol, relative)
    if k == 0:
        return None
    return LowRankFactor(
        np.ascontiguousarray(u[:, :k] * s[:k]),
        np.ascontiguousarray(vt[:k].T),
    )


def _svd_or_dense(block, tol, relative, max_rank):
    """:func:`truncated_svd`, keeping the block itself over ``max_rank``."""
    factor = truncated_svd(block, tol, relative=relative)
    if factor is not None and max_rank is not None and factor.rank > max_rank:
        return block
    return factor


#: the svd method samples tiles of at least this short side (gesdd wins
#: below it), in panels this wide, up to this fraction of the short side
_CERTIFY_MIN_SIDE, _CERTIFY_PANELS, _CERTIFY_CROSSOVER = 50, (32, 16), 0.75
#: columns over the caller's rank hint in the certified path's first panel
_CERTIFY_OVERSAMPLE = 16
#: singular-value rounding, per unit of ``max(m, n) * ||A||_F``, that
#: both the sampled core's SVD and gesdd stay well inside
_ROUNDOFF = 4.0 * np.finfo(DTYPE).eps
_MISSED = object()


def _certified(s, resid: float, tol: float, slack: float, max_rank) -> bool:
    """True when the singular values ``s`` of the core ``B = Q^T A`` and
    ``resid = ||R||_F``, ``R = A - Q B``, prove gesdd's verdict on ``A``.

    Interlacing (``sigma_i(A) >= s_i``): ``max_rank + 1`` values over
    ``tol`` prove the block dense.  Weyl in quadrature: ``Q^T R = 0``
    gives ``A^T A = B^T B + R^T R``, a sum of two PSD matrices, so
    ``sigma_{k+1}(A)^2 <= s_{k+1}^2 + resid^2``; with ``k`` values over
    ``tol``, ``hypot(s_{k+1}, resid) <= tol`` proves rank ``k`` and
    ``||A - Q B_k||_2 <= tol``.  Ties within ``slack`` (rounding,
    including ``R``'s ``O(eps ||A||)`` part inside ``range(Q)``) of
    ``tol`` are left to gesdd.
    """
    if max_rank is not None and np.count_nonzero(s > tol + slack) > max_rank:
        return True
    k = int(np.count_nonzero(s > tol))
    tail = s[k] if k < len(s) else 0.0
    return (k == 0 or s[k - 1] > tol + slack) and math.hypot(tail, resid) <= tol - slack


@functools.lru_cache(maxsize=8)
def _test_matrix(n: int) -> np.ndarray:
    """The certified path's fixed Gaussian test matrix for width ``n``:
    ``ceil(0.75 n)`` rows, one per column the certificate may sample,
    drawn once from a fixed stream and read-only."""
    rng = np.random.Generator(np.random.PCG64(0))
    omega = rng.standard_normal((math.ceil(_CERTIFY_CROSSOVER * n), n))
    omega.setflags(write=False)
    return omega


def _range_finder(
    block, fnorm, tol, relative, max_rank, seed, cap, widths, hint, *, exact, stats
):
    """The blocked adaptive range-finder of both methods.

    Gaussian panels (``widths[0]``, then ``widths[1]`` columns) are
    projected against the basis so far and folded in; each ``Q_j^T A``
    downdates the residual and is rows of the core.  The first panel is
    ``hint`` columns instead (the caller's expected rank plus an
    oversample) when that is wider than ``widths[0]`` and under
    ``cap``, which must hold two later panels.  Sampling stops when the
    residual's Frobenius norm is under the cutoff (so is every singular
    value left out) or, if ``exact``, when :func:`_certified` holds.
    The residual stop draws its panels from a ``PCG64(seed)`` stream;
    the certified path reads row slices of the fixed
    :func:`_test_matrix` and ignores ``seed`` (its rank is proven
    whatever the sample).  Returns ``None``, a factor, the block (over
    ``max_rank``) or ``_MISSED`` (at ``cap``).
    """
    m, n = block.shape
    slack = tol * _NULL_MARGIN + _ROUNDOFF * max(m, n) * fnorm
    stop = tol - slack if exact else tol * fnorm if relative else tol
    # the certificate may prove a block dense before its residual falls
    probe = max_rank if exact and max_rank is not None else cap
    out = _MISSED
    if exact:
        omega = _test_matrix(n)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
    q_basis: np.ndarray | None = None
    rows = []  # Q_j^T A of every panel: the core, row block by row block
    resid = block
    sampled = 0
    width = hint if widths[0] < hint < cap and 2 * widths[1] <= cap else widths[0]
    while sampled < cap:
        p = min(width, cap - sampled)
        width = widths[1]
        panel = omega[sampled : sampled + p] if exact else rng.standard_normal((p, n))
        y = (panel @ resid.T).T  # F-ordered, for geqrf
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
        r = float(np.linalg.norm(resid))
        if r > stop and sampled <= probe:
            continue
        # SVD of the core's F-ordered tall transpose, core^T = W diag(s) Z^T
        w, s, zt = _lapack(_GESDD(np.vstack(rows).T, full_matrices=0, overwrite_a=1))
        if exact and not _certified(s, r, tol, slack, max_rank):
            continue
        k = _truncation_rank(s, tol, relative)
        if k == 0:
            out = None
        elif max_rank is not None and k > max_rank:
            out = block
        else:
            out = LowRankFactor(
                np.ascontiguousarray(q_basis @ (zt[:k].T * s[:k])),
                np.ascontiguousarray(w[:, :k]),
            )
        break
    if stats is not None:
        stats.record_sampled(sampled)
    return out


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
    """Compress a dense block with the range-finder (:func:`_range_finder`)
    stopped by its residual.

    Panels are ``sample_block`` wide; the first is ``rank_hint +
    oversample`` (``rank_hint``: the caller's expected rank) when that
    is wider and under the cap below, which must hold two default
    panels.  Cost is ``O(mn(k + p))`` for detected rank ``k``, versus
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

    cross_cap = max(1, int(math.ceil(crossover * min(m, n))))
    cap = cross_cap if max_rank is None else min(cross_cap, max_rank + oversample)
    out = _range_finder(
        block, fnorm, tol, relative, max_rank, seed, cap,
        (sample_block, sample_block), rank_hint + oversample,
        exact=False, stats=stats,
    )
    if out is _MISSED and cap == cross_cap:
        # not meaningfully low-rank: direct SVD decides, same truncation
        if stats is not None:
            stats.rand_svd_fallback += 1
        return _svd_or_dense(block, tol, relative, max_rank)
    if out is _MISSED or out is block:
        # over the rank budget (before the crossover: no decomposition)
        if stats is not None:
            stats.rand_dense += 1
        return block
    return out


def compress_block(
    block: np.ndarray,
    tol: float,
    max_rank: int | None = None,
    relative: bool = False,
    method: str = "svd",
    seed: int = 0,
    stats: CompressionStats | None = None,
    rank_hint: int = 0,
) -> LowRankFactor | np.ndarray | None:
    """Compress a dense block, falling back to dense for high ranks.

    Returns ``None`` (null tile) when the block is negligible, a
    :class:`LowRankFactor` when the numerical rank is at most
    ``max_rank``, and the original dense block otherwise — mirroring
    HiCMA's maxrank convention (config ``DENSE_RANK_FRACTION``).

    Whatever the method, a block whose Frobenius norm is not finite
    raises ``LinAlgError`` before any LAPACK call, and one whose norm
    certifies it null (:func:`_certified_null`) returns before any
    decomposition.  The default ``"svd"`` method then keeps exactly
    gesdd's rank: the certified range-finder samples the fixed test
    matrix (``seed`` is not read), its first panel sized by
    ``rank_hint`` (the caller's expected rank), until
    :func:`_certified` proves that rank, else gesdd decides.
    ``"rand"`` routes through :func:`randomized_compress` with ``seed``,
    ``rank_hint`` and that norm.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if method not in _METHODS:
        raise ValueError(f"compression method must be one of {_METHODS}, got {method!r}")
    block = np.asarray(block, dtype=DTYPE)
    randomized = method == "rand"
    if stats is not None:
        if randomized:
            stats.rand_tiles += 1
        else:
            stats.svd_tiles += 1
    fnorm = float(np.linalg.norm(block))
    if not math.isfinite(fnorm):
        raise np.linalg.LinAlgError(f"block has a non-finite Frobenius norm ({fnorm})")
    if _certified_null(fnorm, tol, relative):
        if stats is not None:
            stats.screened_null += 1
        return None
    if randomized:
        return randomized_compress(
            block, tol, relative=relative, max_rank=max_rank, seed=seed,
            stats=stats, rank_hint=rank_hint, fnorm=fnorm,
        )
    short = min(block.shape)
    if not relative and short >= _CERTIFY_MIN_SIDE:
        cap = math.ceil(_CERTIFY_CROSSOVER * short)
        out = _range_finder(block, fnorm, tol, False, max_rank, None, cap, _CERTIFY_PANELS,
                            rank_hint + _CERTIFY_OVERSAMPLE, exact=True, stats=stats)
        if out is not _MISSED:
            return out
        if stats is not None:
            stats.svd_fallback += 1
    return _svd_or_dense(block, tol, relative, max_rank)


def recompress(
    factor: LowRankFactor, tol: float, relative: bool = False
) -> LowRankFactor | None:
    """Round a (possibly inflated) low-rank factor back to minimal rank.

    A sum of low-rank terms stored as stacked factors (HiCMA's GEMM
    leaves rank ``k_C + min(k_A, k_B)``) carries more columns than its
    numerical rank; this rounding step restores it with QR
    factorizations of both factors followed by an SVD of the small
    core — the standard low-rank rounding.  The factorization rounds
    its dense accumulation with :func:`compress_block` instead; this
    exact rounding stays as the reference the property tests compare
    against (the benchmark times it too).

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
    qu, ru = sla.qr(factor.u, mode="economic", check_finite=False)
    qv, rv = sla.qr(factor.v, mode="economic", check_finite=False)
    core = ru @ rv.T
    u, s, vt = sla.svd(core, full_matrices=False, check_finite=False)
    k = _truncation_rank(s, tol, relative)
    if k == 0:
        return None
    return LowRankFactor(
        np.ascontiguousarray(qu @ (u[:, :k] * s[:k])),
        np.ascontiguousarray(qv @ vt[:k].T),
    )
