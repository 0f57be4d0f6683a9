"""Tests for operator specs and their content fingerprints."""

import dataclasses
import pickle
import time

import numpy as np
import pytest

from repro.geometry import random_cloud
from repro.kernels.matgen import RBFMatrixGenerator
from repro.linalg.integrity import matrix_checksums
from repro.service import KERNELS, OperatorSpec

from .conftest import disable_null_certificate


def clone(spec: OperatorSpec, **overrides) -> OperatorSpec:
    kwargs = dict(
        points=spec.points,
        shape_parameter=spec.shape_parameter,
        tile_size=spec.tile_size,
        accuracy=spec.accuracy,
        kernel=spec.kernel,
        nugget=spec.nugget,
        max_rank=spec.max_rank,
        label=spec.label,
    )
    kwargs.update(overrides)
    return OperatorSpec(**kwargs)


class TestFingerprint:
    def test_deterministic_across_instances(self, small_spec):
        again = clone(small_spec)
        assert again is not small_spec
        assert again.fingerprint == small_spec.fingerprint

    def test_label_excluded(self, small_spec):
        assert clone(small_spec, label="renamed").fingerprint == small_spec.fingerprint

    @pytest.mark.parametrize(
        "override",
        [
            {"shape_parameter": 0.06},
            {"tile_size": 90},
            {"accuracy": 1e-5},
            {"nugget": 1e-2},
            {"kernel": "multiquadric"},
            {"max_rank": 7},
        ],
    )
    def test_every_knob_changes_fingerprint(self, small_spec, override):
        assert clone(small_spec, **override).fingerprint != small_spec.fingerprint

    def test_geometry_changes_fingerprint(self, small_spec):
        moved = np.array(small_spec.points)
        moved[0, 0] += 1e-9
        assert clone(small_spec, points=moved).fingerprint != small_spec.fingerprint

    def test_hex_digest_shape(self, small_spec):
        fp = small_spec.fingerprint
        assert len(fp) == 64
        int(fp, 16)  # valid hex

    def test_points_hashed_once_per_spec(self, small_spec, monkeypatch):
        """The serving path reads the fingerprint several times per
        request; only the first read hashes the geometry."""
        import repro.service.spec as spec_mod

        real, hashes = spec_mod.hashlib.sha256, []
        counting = lambda *a: hashes.append(1) or real(*a)
        monkeypatch.setattr(spec_mod.hashlib, "sha256", counting)
        spec = clone(small_spec)
        assert [spec.fingerprint for _ in range(4)] == [small_spec.fingerprint] * 4
        assert len(hashes) == 1

    def test_memo_never_outlives_what_it_hashed(self, small_spec):
        """``dataclasses.replace`` starts without the memo; a pickle
        round trip (the fleet's shard pipe) carries it together with
        the content it covers, and re-freezes the points under it."""
        fp = small_spec.fingerprint
        replaced = dataclasses.replace(small_spec, tile_size=30)
        assert "fingerprint" not in vars(replaced)
        assert replaced.fingerprint == clone(small_spec, tile_size=30).fingerprint != fp
        piped = pickle.loads(pickle.dumps(small_spec))
        assert piped.fingerprint == fp == clone(piped).fingerprint
        assert not piped.points.flags.writeable


class TestValidation:
    def test_bad_points_shape(self):
        with pytest.raises(ValueError, match="points"):
            OperatorSpec(
                points=np.zeros((4, 2)),
                shape_parameter=0.1,
                tile_size=2,
                accuracy=1e-6,
            )

    def test_unknown_kernel(self, small_points):
        with pytest.raises(ValueError, match="kernel"):
            OperatorSpec(
                points=small_points,
                shape_parameter=0.1,
                tile_size=60,
                accuracy=1e-6,
                kernel="sinc",
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_are_refused(self, small_points, bad):
        """Such a spec used to be fingerprinted and admitted, and only
        failed inside the build, after the retries and the breaker."""
        pts = small_points.copy()
        pts[[3, 8], [0, 2]] = bad
        with pytest.raises(ValueError, match="2 non-finite"):
            OperatorSpec(points=pts, shape_parameter=0.1, tile_size=60, accuracy=1e-6)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_complex_points_are_refused(self, small_points, dtype):
        """A complex cloud used to be reduced to its real part with only
        a ComplexWarning."""
        with pytest.raises(TypeError, match=f"complex dtype {np.dtype(dtype)}"):
            OperatorSpec(
                points=small_points.astype(dtype) * (1 + 1j),
                shape_parameter=0.1,
                tile_size=60,
                accuracy=1e-6,
            )

    def test_kernel_registry_names(self):
        assert "gaussian" in KERNELS

    def test_points_frozen(self, small_spec):
        with pytest.raises(ValueError):
            small_spec.points[0, 0] = 99.0


class TestBuild:
    def test_build_products(self, small_spec, built):
        assert built.operator.n == small_spec.n
        assert built.factor.n == small_spec.n
        assert built.compress_seconds >= 0.0
        assert built.factorize_seconds >= 0.0

    def test_factor_solves_operator(self, built, rhs):
        from repro.core.solver import solve_cholesky
        from repro.linalg.matvec import tlr_matvec

        x = solve_cholesky(built.factor, rhs)
        res = np.linalg.norm(tlr_matvec(built.operator, x) - rhs)
        assert res / np.linalg.norm(rhs) < 1e-5

    def test_operator_not_mutated_by_factorization(self, small_spec, built):
        # the operator snapshot must be the *unfactorized* compression
        rebuilt = small_spec.build()
        assert np.allclose(
            rebuilt.operator.to_dense(), built.operator.to_dense()
        )
        assert not np.allclose(
            built.factor.to_dense(symmetrize=False),
            built.operator.to_dense(symmetrize=False),
        )


class TestColdPathParity:
    """The null certificate changes what a build costs, never what it is."""

    def test_fingerprints_pinned(self):
        # digests recorded at the commit before the certificate landed
        pts = (np.arange(36.0).reshape(12, 3) % 7) / 7.0 + np.arange(12)[:, None] / 12.0
        kw = dict(points=pts, shape_parameter=0.25, tile_size=4, accuracy=1e-6, nugget=1e-3)
        assert OperatorSpec(
            compression="svd", storage_precision="fp64", **kw
        ).fingerprint == (
            "55f258fe2ebe1f97ccaaee13ab54e72f55618db4a133c131e4d1c182d9b249d0"
        )
        assert OperatorSpec(compression="rand", **kw).fingerprint == (
            "96d2cdd7edf37297af7f5e53240eb211e969cdcd254995e413b35d049f5965d2"
        )

    @pytest.mark.parametrize("compression", ["svd", "rand"])
    def test_build_bitwise_equal_to_uncertified(
        self, sparse_spec, monkeypatch, compression
    ):
        spec = clone(sparse_spec, compression=compression)
        built = spec.build()
        stats = built.operator.compression_stats
        assert stats.bound_null > 0
        nulls = sum(1 for _, t in built.operator if t.is_null)
        assert stats.bound_null + stats.screened_null == nulls
        disable_null_certificate(monkeypatch)
        reference = spec.build()
        ref_stats = reference.operator.compression_stats
        assert ref_stats.bound_null == ref_stats.screened_null == 0
        assert matrix_checksums(built.operator) == matrix_checksums(reference.operator)
        assert matrix_checksums(built.factor) == matrix_checksums(reference.factor)

    def test_compress_seconds_covers_generation(self, small_spec, monkeypatch):
        calls = []
        tile = RBFMatrixGenerator.tile

        def slow_tile(self, i, j):
            calls.append((i, j))
            time.sleep(0.01)
            return tile(self, i, j)

        monkeypatch.setattr(RBFMatrixGenerator, "tile", slow_tile)
        built = small_spec.build()
        assert len(calls) == 6  # NT=3, nothing certified in a random cloud
        assert built.compress_seconds >= 0.01 * len(calls)


class TestPolicyKnobs:
    def test_default_fingerprint_has_no_policy_fields(
        self, small_spec, monkeypatch
    ):
        # the svd/fp64 defaults keep the pre-existing fingerprint, so
        # cache entries built before the knobs existed stay valid
        monkeypatch.delenv("REPRO_COMPRESSION", raising=False)
        default = clone(small_spec)
        assert default.compression == "svd"
        assert default.storage_precision == "fp64"
        explicit = clone(
            small_spec, compression="svd", storage_precision="fp64"
        )
        assert explicit.fingerprint == default.fingerprint

    def test_compression_changes_fingerprint(self, small_spec):
        assert (
            clone(small_spec, compression="rand").fingerprint
            != clone(small_spec, compression="svd").fingerprint
        )

    def test_storage_precision_other_than_fp64_is_refused(self, small_spec):
        with pytest.raises(ValueError, match="fp64"):
            clone(small_spec, storage_precision="mixed")

    def test_env_default_is_pinned_at_construction(
        self, small_spec, monkeypatch
    ):
        monkeypatch.setenv("REPRO_COMPRESSION", "rand")
        spec = clone(small_spec)
        assert spec.compression == "rand"
        fp = spec.fingerprint
        # the env can change later; the spec's identity cannot
        monkeypatch.delenv("REPRO_COMPRESSION")
        assert spec.fingerprint == fp
        default = clone(
            small_spec, compression="svd", storage_precision="fp64"
        )
        assert fp != default.fingerprint

    def test_invalid_policy_names_fail_fast(self, small_spec):
        with pytest.raises(ValueError):
            clone(small_spec, compression="aca")
        with pytest.raises(ValueError):
            clone(small_spec, storage_precision="fp8")

    def test_rand_build_matches_svd_solve(self, small_spec, rhs):
        from repro.core.solver import solve_cholesky
        from repro.linalg.matvec import tlr_matvec

        built = clone(small_spec, compression="rand").build()
        x = solve_cholesky(built.factor, rhs)
        res = np.linalg.norm(tlr_matvec(built.operator, x) - rhs)
        assert res / np.linalg.norm(rhs) < 1e-5

    def test_rand_rebuild_bitwise_identical(self, small_spec):
        spec = clone(small_spec, compression="rand")
        a = spec.build().factor.to_dense(symmetrize=False)
        b = spec.build().factor.to_dense(symmetrize=False)
        assert np.array_equal(a, b)
