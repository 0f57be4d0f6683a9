"""repro — reproduction of "A Framework to Exploit Data Sparsity in
Tile Low-Rank Cholesky Factorization" (Cao et al., IPDPS 2022).

The package couples a HiCMA-like tile low-rank algebra
(:mod:`repro.linalg`) with a PaRSEC-like task runtime
(:mod:`repro.runtime`) and adds the paper's two contributions: dynamic
DAG trimming (:mod:`repro.core.analysis`, Section VI) and the
rank-aware band/diamond execution mapping (:mod:`repro.distribution`,
Section VII).  Distributed performance at paper scale is reproduced by
the machine models and simulators in :mod:`repro.machine`; the driving
application is 3D unstructured mesh deformation over Gaussian RBF
interpolation (:mod:`repro.apps`).

Quick start
-----------
>>> import numpy as np
>>> from repro import virus_population, RBFMatrixGenerator, TLRMatrix
>>> from repro import hicma_parsec_factorize, solve_cholesky
>>> pts = virus_population(2, points_per_virus=300, seed=0)
>>> gen = RBFMatrixGenerator(pts, shape_parameter=0.02, tile_size=150,
...                          nugget=1e-2)
>>> a = TLRMatrix.from_generator(gen, accuracy=1e-6)
>>> result = hicma_parsec_factorize(a)
>>> x = solve_cholesky(result.factor, np.ones(gen.n))
"""

from repro.config import DEFAULT_ACCURACY, DEFAULT_TILE_SIZE
from repro.geometry import (
    fibonacci_sphere,
    min_spacing,
    random_cloud,
    synthetic_virus,
    virus_population,
)
from repro.kernels import GaussianRBF, RBFMatrixGenerator, dense_rbf_matrix
from repro.linalg import (
    DenseTile,
    LowRankFactor,
    LowRankTile,
    NullTile,
    TLRMatrix,
    compress_block,
    refine_solve,
    tlr_matvec,
    truncated_svd,
)
from repro.core import (
    FactorizationResult,
    SyntheticRankField,
    TrimmingAnalysis,
    analyze_ranks,
    calibrate_rank_field,
    hicma_parsec_factorize,
    logdet,
    lorapo_factorize,
    solve_cholesky,
    tlr_cholesky,
)
from repro.core.hicma_parsec import BAND_ONLY, HICMA_PARSEC, TRIM_ONLY
from repro.core.lorapo import LORAPO, FrameworkConfig
from repro.distribution import (
    BandDistribution,
    DiamondDistribution,
    HybridDistribution,
    OneDBlockCyclic,
    TwoDBlockCyclic,
    square_grid,
)
from repro.machine import (
    FUGAKU,
    SHAHEEN_II,
    AnalyticModel,
    CostModel,
    DistributedSimulator,
    MachineModel,
)
from repro.apps import RBFMeshDeformation
from repro.service import OperatorCache, OperatorSpec, ServiceMetrics, SolveService

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DEFAULT_ACCURACY",
    "DEFAULT_TILE_SIZE",
    "fibonacci_sphere",
    "random_cloud",
    "synthetic_virus",
    "virus_population",
    "min_spacing",
    "GaussianRBF",
    "RBFMatrixGenerator",
    "dense_rbf_matrix",
    "LowRankFactor",
    "truncated_svd",
    "compress_block",
    "DenseTile",
    "LowRankTile",
    "NullTile",
    "TLRMatrix",
    "tlr_matvec",
    "refine_solve",
    "TrimmingAnalysis",
    "analyze_ranks",
    "tlr_cholesky",
    "FactorizationResult",
    "solve_cholesky",
    "logdet",
    "lorapo_factorize",
    "hicma_parsec_factorize",
    "SyntheticRankField",
    "calibrate_rank_field",
    "FrameworkConfig",
    "LORAPO",
    "TRIM_ONLY",
    "BAND_ONLY",
    "HICMA_PARSEC",
    "TwoDBlockCyclic",
    "OneDBlockCyclic",
    "HybridDistribution",
    "BandDistribution",
    "DiamondDistribution",
    "square_grid",
    "MachineModel",
    "SHAHEEN_II",
    "FUGAKU",
    "CostModel",
    "DistributedSimulator",
    "AnalyticModel",
    "RBFMeshDeformation",
    "OperatorSpec",
    "OperatorCache",
    "SolveService",
    "ServiceMetrics",
]
