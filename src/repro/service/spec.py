"""Operator specifications and content fingerprints.

A serving cache is only sound if its key captures *everything* that
determines the factored operator.  ``OperatorSpec`` pins the full
recipe — geometry, kernel, shape parameter, tile size, accuracy
threshold, rank cap, nugget — and derives a stable SHA-256 fingerprint
from the canonical byte representation of those fields.  Two specs
with the same fingerprint produce bitwise-identical operators, so a
fingerprint hit may skip generation, compression and factorization.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.kernels.rbf import (
    GaussianRBF,
    InverseMultiquadricRBF,
    MultiquadricRBF,
    RadialBasisFunction,
)
from repro.utils.validation import as_points, check_positive

__all__ = ["OperatorSpec", "BuiltOperator", "KERNELS"]

#: Registry of servable radial kernels by canonical name.
KERNELS: dict[str, type[RadialBasisFunction]] = {
    "gaussian": GaussianRBF,
    "multiquadric": MultiquadricRBF,
    "inverse-multiquadric": InverseMultiquadricRBF,
}


@dataclass(frozen=True)
class BuiltOperator:
    """The products of one (expensive) operator build."""

    #: compressed, unfactorized operator (for residuals / refinement)
    operator: "TLRMatrix"  # noqa: F821 - forward ref, resolved at runtime
    #: in-place TLR Cholesky factor
    factor: "TLRMatrix"  # noqa: F821
    #: wall-clock seconds spent in matgen + compression
    compress_seconds: float
    #: wall-clock seconds spent in the factorization
    factorize_seconds: float


@dataclass(frozen=True)
class OperatorSpec:
    """Everything needed to (re)build one servable TLR operator.

    ``label`` is display-only and deliberately excluded from the
    fingerprint: renaming a workload must not invalidate its cache
    entry.
    """

    points: np.ndarray
    shape_parameter: float
    tile_size: int
    accuracy: float
    kernel: str = "gaussian"
    nugget: float = 1.0e-8
    max_rank: int | None = None
    #: compression method: ``"svd"`` (or None), the only one a build
    #: uses; accepted by name so existing callers keep working
    compression: str | None = None
    #: tiles are stored fp64 only; "fp64" is still accepted by name
    storage_precision: str | None = None
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        pts = np.ascontiguousarray(as_points("points", self.points))
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        check_positive("shape_parameter", self.shape_parameter)
        check_positive("tile_size", self.tile_size)
        check_positive("accuracy", self.accuracy)
        if self.kernel not in KERNELS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from {sorted(KERNELS)}"
            )
        if self.nugget < 0.0:
            raise ValueError(f"nugget must be >= 0, got {self.nugget}")
        if self.compression not in (None, "svd"):
            raise ValueError(f"compression must be 'svd', got {self.compression!r}")
        object.__setattr__(self, "compression", "svd")
        if self.storage_precision not in (None, "fp64"):
            raise ValueError(
                f"storage_precision must be 'fp64', got {self.storage_precision!r}"
            )
        object.__setattr__(self, "storage_precision", "fp64")

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays come back writable; the fingerprint memo
        # (which rides in ``state``) relies on read-only points
        self.__dict__.update(state)
        self.points.setflags(write=False)

    @property
    def n(self) -> int:
        """Matrix order (number of points)."""
        return len(self.points)

    @cached_property
    def fingerprint(self) -> str:
        """Stable hex digest identifying the built operator.

        Hashes the canonical float64 byte image of the geometry plus
        every numeric knob that changes the compressed factor.  Stable
        across processes and machines of the same endianness — safe to
        use as an on-disk cache key.

        Computed once per spec: the dataclass is frozen and ``points``
        is read-only, so nothing the digest covers can change (the
        serving path reads it several times per request).  The memo
        lives in the instance ``__dict__``, not in a field:
        ``dataclasses.replace`` starts the copy without it, and a
        pickled spec carries it, which is sound because it carries the
        hashed content too.
        """
        h = hashlib.sha256()
        header = (
            f"tlr-op-v1|kernel={self.kernel}"
            f"|delta={float(self.shape_parameter)!r}"
            f"|b={int(self.tile_size)}"
            f"|eps={float(self.accuracy)!r}"
            f"|nugget={float(self.nugget)!r}"
            f"|maxrank={self.max_rank if self.max_rank is None else int(self.max_rank)}"
            f"|n={self.n}|"
        )
        h.update(header.encode())
        h.update(self.points.tobytes())
        return h.hexdigest()

    def build(self, workers: int | None = None) -> BuiltOperator:
        """Generate, compress and factorize the operator (the cost a
        cache hit avoids).

        ``workers`` worker threads execute the factorization DAG (see
        :func:`~repro.core.tlr_cholesky.tlr_cholesky`); the factor is
        bitwise identical across worker counts, so the fingerprint
        stays a sound cache key.
        """
        from repro.core.hicma_parsec import hicma_parsec_factorize
        from repro.kernels.matgen import RBFMatrixGenerator
        from repro.linalg.tile_matrix import TLRMatrix

        t0 = time.perf_counter()
        gen = RBFMatrixGenerator(
            points=np.asarray(self.points),
            shape_parameter=self.shape_parameter,
            tile_size=self.tile_size,
            kernel=KERNELS[self.kernel](),
            nugget=self.nugget,
        )
        a = TLRMatrix.from_generator(
            gen,
            self.accuracy,
            max_rank=self.max_rank,
        )
        operator = a.copy()
        t1 = time.perf_counter()
        factor = hicma_parsec_factorize(a, workers=workers).factor
        t2 = time.perf_counter()
        return BuiltOperator(
            operator=operator,
            factor=factor,
            compress_seconds=t1 - t0,
            factorize_seconds=t2 - t1,
        )
