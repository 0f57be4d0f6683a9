"""Service-suite fixtures: a tiny servable operator that builds fast."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry import min_spacing, random_cloud, virus_population
from repro.kernels.matgen import RBFMatrixGenerator
from repro.linalg import lowrank
from repro.service import OperatorSpec


def disable_null_certificate(monkeypatch):
    """The cold path as it was before the null certificate: every tile
    generated, every off-diagonal tile decomposed."""
    monkeypatch.setattr(lowrank, "_certified_null", lambda *a: False)
    monkeypatch.setattr(
        RBFMatrixGenerator, "tile_norm_bound", lambda self, i, j: math.inf
    )


@pytest.fixture(scope="session")
def small_points():
    return random_cloud(180, seed=3)


@pytest.fixture(scope="session")
def small_spec(small_points):
    """A 180-point operator (NT=3) that builds in well under a second."""
    return OperatorSpec(
        points=small_points,
        shape_parameter=0.05,
        tile_size=60,
        accuracy=1e-6,
        nugget=1e-3,
        label="test-op",
    )


@pytest.fixture(scope="session")
def other_spec(small_spec):
    """A second, distinct operator (different geometry seed)."""
    return OperatorSpec(
        points=random_cloud(180, seed=7),
        shape_parameter=0.05,
        tile_size=60,
        accuracy=1e-6,
        nugget=1e-3,
        label="test-op-2",
    )


@pytest.fixture(scope="session")
def sparse_spec():
    """Four virions, NT=4: most off-diagonal tiles compress to null."""
    pts = virus_population(4, points_per_virus=60, seed=0)
    return OperatorSpec(
        points=pts,
        shape_parameter=0.5 * min_spacing(pts) * 30,
        tile_size=60,
        accuracy=1e-6,
        nugget=1e-4,
    )


@pytest.fixture(scope="session")
def built(small_spec):
    """The reference build of ``small_spec`` (operator + factor)."""
    return small_spec.build()


@pytest.fixture()
def rhs(small_spec):
    rng = np.random.default_rng(11)
    return rng.standard_normal(small_spec.n)
