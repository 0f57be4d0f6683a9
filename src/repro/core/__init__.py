"""The paper's primary contribution.

* :mod:`repro.core.analysis` — Algorithm 1: the matrix analysis that
  identifies null tiles and fill-in for DAG trimming (Section VI).
* :mod:`repro.core.trimming` — enumeration of the (optionally trimmed)
  tile-Cholesky task graphs: the left-looking one the driver runs and
  the paper's right-looking PTG the simulator models.
* :mod:`repro.core.tlr_cholesky` — the numeric factorization driver
  running that graph on the in-process runtime engine.
* :mod:`repro.core.lorapo` / :mod:`repro.core.hicma_parsec` — the
  baseline and full-framework configurations used throughout the
  evaluation section.
* :mod:`repro.core.solver` — TLR triangular solves and full SPD solve.
* :mod:`repro.core.rank_model` — calibrated synthetic rank fields for
  at-scale simulation.
"""

from repro.core.analysis import TrimmingAnalysis, analyze_ranks
from repro.core.trimming import cholesky_tasks, ptg_cholesky_tasks
from repro.core.tlr_cholesky import FactorizationResult, tlr_cholesky
from repro.core.solver import (
    logdet,
    solve_cholesky,
    solve_lower,
    solve_lower_transpose,
)
from repro.core.lorapo import lorapo_factorize
from repro.core.hicma_parsec import hicma_parsec_factorize
from repro.core.rank_model import SyntheticRankField, calibrate_rank_field

__all__ = [
    "TrimmingAnalysis",
    "analyze_ranks",
    "cholesky_tasks",
    "ptg_cholesky_tasks",
    "FactorizationResult",
    "tlr_cholesky",
    "solve_cholesky",
    "solve_lower",
    "solve_lower_transpose",
    "logdet",
    "lorapo_factorize",
    "hicma_parsec_factorize",
    "SyntheticRankField",
    "calibrate_rank_field",
]
