"""Global configuration defaults for the HiCMA-PaRSEC reproduction.

All tolerances and numeric types live here so the
rest of the library never hard-codes them.  The values mirror the
paper's experimental setup (Section VIII-A) rescaled to laptop scale
where noted.
"""

from __future__ import annotations

import os

import numpy as np

#: Floating-point dtype used for all matrix data (paper: double precision).
DTYPE = np.float64

#: Default TLR accuracy threshold (paper Sec. VIII-A: 1e-4 unless noted).
DEFAULT_ACCURACY = 1.0e-4

#: Maximum admissible rank as a fraction of the tile size.  Tiles whose
#: numerical rank exceeds this fraction are stored dense (HiCMA keeps a
#: maxrank buffer; we follow the same convention).
DENSE_RANK_FRACTION = 0.5


# ---------------------------------------------------------------------
# environment knobs — the only ``os.environ`` reads in the library.
# Each is the fallback for an explicit argument somewhere (the module
# that owns the argument re-exports the reader), so CI can sweep whole
# suites through another policy without touching call sites.
# ---------------------------------------------------------------------

#: Switches on per-kernel operand checksum verification.
VERIFY_TILES_ENV = "REPRO_VERIFY_TILES"

#: Arena spill region, as a multiple of the all-dense payload size.
SPILL_FACTOR_ENV = "REPRO_ARENA_SPILL"


def _env(name: str) -> str:
    return os.environ.get(name, "").strip()


def workers_from_env() -> int | None:
    """``$REPRO_WORKERS`` as an int, ``None`` when unset (callers
    default to 1; ``<= 0`` means one per CPU core)."""
    env = _env("REPRO_WORKERS")
    return int(env) if env else None


def debug_from_env() -> bool:
    """Whether ``$REPRO_ENGINE_DEBUG`` requests the ownership assertion."""
    return _env("REPRO_ENGINE_DEBUG") not in ("", "0")


def stall_timeout_from_env() -> float | None:
    """``$REPRO_STALL_TIMEOUT`` in seconds; ``None`` (watchdog disabled)
    when unset, empty or non-positive."""
    env = _env("REPRO_STALL_TIMEOUT")
    timeout = float(env) if env else 0.0
    return timeout if timeout > 0.0 else None


def verify_tiles_from_env() -> bool:
    """Whether ``$REPRO_VERIFY_TILES`` requests per-kernel verification."""
    return _env(VERIFY_TILES_ENV) not in ("", "0")


def spill_factor_from_env() -> float:
    """``$REPRO_ARENA_SPILL`` (default 1.5); negative values are rejected."""
    env = _env(SPILL_FACTOR_ENV)
    factor = float(env) if env else 1.5
    if factor < 0.0:
        raise ValueError(f"{SPILL_FACTOR_ENV} must be >= 0, got {env!r}")
    return factor

