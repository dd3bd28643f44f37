import numpy as np
import pytest

from tamm import numkit as nk
from tamm.encoders import (
    FrozenEncoderSpec,
    PointEncoderParams,
    encode_points,
    frozen_image_embed,
    frozen_text_embed,
    init_point_encoder,
    shift_apply,
    shift_invert,
)
from tamm.errors import ConfigError, ShapeError


@pytest.fixture(scope="module")
def spec():
    return FrozenEncoderSpec.build(seed=7, latent_dim=16, feature_dim=64, max_views=4, shift_strength=0.6)


class TestFrozenPaths:
    def test_text_deterministic(self, spec):
        rng = np.random.default_rng(0)
        latent = rng.normal(size=16)
        np.testing.assert_array_equal(frozen_text_embed(latent, spec), frozen_text_embed(latent, spec))

    def test_text_unit_norm(self, spec):
        rng = np.random.default_rng(1)
        feats = frozen_text_embed(rng.normal(size=(10, 16)), spec)
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), np.ones(10), atol=1e-12)

    def test_distinct_latents_distinct_embeddings(self, spec):
        rng = np.random.default_rng(2)
        a = frozen_text_embed(rng.normal(size=16), spec)
        b = frozen_text_embed(rng.normal(size=16), spec)
        assert float(a @ b) < 0.99

    def test_rebuild_identical(self, spec):
        again = FrozenEncoderSpec.build(seed=7, latent_dim=16, feature_dim=64, max_views=4, shift_strength=0.6)
        rng = np.random.default_rng(3)
        latent = rng.normal(size=16)
        np.testing.assert_array_equal(frozen_text_embed(latent, spec), frozen_text_embed(latent, again))
        np.testing.assert_array_equal(
            frozen_image_embed(latent, 2, spec), frozen_image_embed(latent, 2, again)
        )

    def test_views_share_latent(self, spec):
        rng = np.random.default_rng(4)
        latent = rng.normal(size=16)
        feats = [frozen_image_embed(latent, k, spec, shifted=False) for k in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert float(feats[i] @ feats[j]) > 0.0

    def test_view_index_validated(self, spec):
        with pytest.raises(ConfigError):
            frozen_image_embed(np.ones(16), 4, spec)

    def test_zero_strength_shift_is_identity(self):
        s0 = FrozenEncoderSpec.build(seed=9, latent_dim=8, feature_dim=32, max_views=2, shift_strength=0.0)
        rng = np.random.default_rng(5)
        latent = rng.normal(size=8)
        np.testing.assert_array_equal(
            frozen_image_embed(latent, 0, s0, shifted=True),
            frozen_image_embed(latent, 0, s0, shifted=False),
        )

    def test_shift_changes_features(self, spec):
        rng = np.random.default_rng(6)
        latent = rng.normal(size=16)
        shifted = frozen_image_embed(latent, 0, spec, shifted=True)
        plain = frozen_image_embed(latent, 0, spec, shifted=False)
        assert np.linalg.norm(shifted - plain) > 0.1

    def test_shift_roundtrip(self, spec):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 64))
        back = shift_invert(shift_apply(x, spec), spec)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_latent_dim_checked(self, spec):
        with pytest.raises(ShapeError):
            frozen_text_embed(np.ones(5), spec)


class TestPointEncoder:
    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(10)
        params = init_point_encoder(16, 8, 0)
        cloud = rng.normal(size=(40, 3))
        base = encode_points(cloud, params).value
        for seed in range(100):
            perm = np.random.default_rng(seed).permutation(40)
            np.testing.assert_array_equal(encode_points(cloud[perm], params).value, base)

    def test_duplication_invariance_bit_exact(self):
        rng = np.random.default_rng(11)
        params = init_point_encoder(16, 8, 1)
        cloud = rng.normal(size=(33, 3))
        doubled = np.concatenate([cloud, cloud], axis=0)
        np.testing.assert_array_equal(encode_points(doubled, params).value, encode_points(cloud, params).value)

    def test_unit_norm_output(self):
        rng = np.random.default_rng(12)
        params = init_point_encoder(16, 8, 2)
        feats = encode_points(rng.normal(size=(6, 20, 3)), params).value
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), np.ones(6), atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        params = init_point_encoder(6, 5, 3)
        cloud = rng.normal(size=(12, 3))
        w = rng.normal(size=5)

        def f(p):
            out = encode_points(cloud, PointEncoderParams(p[0], p[1], p[2]))
            dw1, dw2, dh = out.backward(w)
            return float(np.sum(w * out.value)), [dw1, dw2, dh]

        assert nk.finite_diff_check(f, [params.w1, params.w2, params.head]) < 1e-6

    def test_degenerate_cloud_allowed(self):
        params = init_point_encoder(8, 4, 4)
        cloud = np.tile(np.array([0.5, -0.25, 1.0]), (10, 1))
        feat = encode_points(cloud, params).value
        assert np.all(np.isfinite(feat))

    def test_batch_matches_single(self):
        # gemm blocking differs across batch shapes, so agreement is to rounding
        rng = np.random.default_rng(14)
        params = init_point_encoder(8, 4, 5)
        clouds = rng.normal(size=(3, 15, 3))
        batch = encode_points(clouds, params).value
        for i in range(3):
            np.testing.assert_allclose(batch[i], encode_points(clouds[i], params).value, atol=1e-12)

    def test_minimum_points(self):
        params = init_point_encoder(8, 4, 6)
        with pytest.raises(ShapeError):
            encode_points(np.zeros((4, 3)), params)

    def test_init_deterministic(self):
        a = init_point_encoder(8, 4, 7)
        b = init_point_encoder(8, 4, 7)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.head, b.head)
