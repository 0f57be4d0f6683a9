"""Tests for global configuration helpers and the public API surface."""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import (
    DEFAULT_ACCURACY,
    DENSE_RANK_FRACTION,
    default_shape_parameter,
)


class TestConfig:
    def test_paper_defaults(self):
        assert DEFAULT_ACCURACY == 1e-4  # Sec. VIII-A
        assert 0.0 < DENSE_RANK_FRACTION <= 1.0

    def test_shape_parameter_rule(self):
        """delta = 1/2 * min spacing (Sec. IV-C)."""
        assert default_shape_parameter(7.4e-4) == pytest.approx(3.7e-4)

    def test_shape_parameter_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_shape_parameter(0.0)
        with pytest.raises(ValueError):
            default_shape_parameter(-1.0)

    @pytest.mark.parametrize(
        "var, owner, unset, text, parsed",
        [
            ("REPRO_WORKERS", "runtime.parallel:resolve_workers", 1, "3", 3),
            ("REPRO_ENGINE_DEBUG", "runtime.parallel:debug_from_env", False, "1", True),
            ("REPRO_STALL_TIMEOUT", "runtime.parallel:stall_timeout_from_env", None, "2.5", 2.5),
            ("REPRO_VERIFY_TILES", "runtime.checkpoint:verify_tiles_from_env", False, "yes", True),
            ("REPRO_ARENA_SPILL", "linalg.arena:spill_factor_from_env", 1.5, "0.25", 0.25),
        ],
    )
    def test_env_knobs(self, monkeypatch, var, owner, unset, text, parsed):
        """The five knobs are read in config.py only, stay importable
        from the module that owns the explicit argument, and keep their
        defaults (empty and whitespace count as unset)."""
        module, name = owner.split(":")
        reader = getattr(importlib.import_module(f"repro.{module}"), name)
        args = (None,) if inspect.signature(reader).parameters else ()

        for blank in (None, "", "  "):
            monkeypatch.delenv(var, raising=False)
            if blank is not None:
                monkeypatch.setenv(var, blank)
            assert reader(*args) == unset
        monkeypatch.setenv(var, f" {text} ")
        assert reader(*args) == parsed
        sources = Path(repro.__file__).parent.rglob("*.py")
        assert [p.name for p in sources if "os.environ" in p.read_text()] == ["config.py"]


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_framework_configs_distinct(self):
        from repro import HICMA_PARSEC, LORAPO, TRIM_ONLY

        assert LORAPO.trim is False
        assert LORAPO.null_rank_floor == "mean"
        assert TRIM_ONLY.trim is True and TRIM_ONLY.exec_distribution is None
        assert HICMA_PARSEC.trim is True
        assert HICMA_PARSEC.exec_distribution is not None

    def test_hicma_exec_mapping_has_band_over_diamond(self):
        from repro import HICMA_PARSEC
        from repro.distribution import BandDistribution, DiamondDistribution

        xd = HICMA_PARSEC.exec_distribution(12)
        assert isinstance(xd, BandDistribution)
        assert isinstance(xd.off_band, DiamondDistribution)

    def test_lorapo_data_dist_is_hybrid(self):
        from repro import LORAPO
        from repro.distribution import HybridDistribution

        assert isinstance(LORAPO.data_distribution(12), HybridDistribution)
