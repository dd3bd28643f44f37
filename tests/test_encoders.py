import os
import sys
import threading

import numpy as np
import pytest

from tamm import encoders
from tamm import numkit as nk
from tamm.datagen import DatasetSpec, generate
from tamm.encoders import (
    GROUP,
    MIN_CLOUD_POINTS,
    FrozenEncoderSpec,
    PointEncoderParams,
    encode_points,
    frozen_image_embed,
    frozen_text_embed,
    init_point_encoder,
    shift_apply,
    shift_invert,
)
from tamm.errors import ConfigError, NumericError, ShapeError


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


def _reference_encode(clouds, params):
    """The layer-by-layer encoder that ``encode_points`` fuses: numkit products
    and relus, a per-cloud lexsort, the tree sum over the moved point axis, and
    the max-pool gradient through ``put_along_axis``."""
    arr = nk.as_f64(clouds, "point cloud")
    squeezed = arr.ndim == 2
    if squeezed:
        arr = arr[None]
    n_b, n_pts, _ = arr.shape
    ordered = np.empty_like(arr)
    for i in range(n_b):
        ordered[i] = arr[i][np.lexsort((arr[i][:, 2], arr[i][:, 1], arr[i][:, 0]))]
    h = params.hidden
    flat = ordered.reshape(n_b * n_pts, 3)
    lin1 = nk.matmul(flat, params.w1)
    act1 = nk.relu(lin1.value)
    lin2 = nk.matmul(act1.value, params.w2)
    act2 = nk.relu(lin2.value)
    feats = act2.value.reshape(n_b, n_pts, h)
    x = np.moveaxis(feats, 1, 0)
    while x.shape[0] > 1:
        k = x.shape[0] // 2
        paired = x[0 : 2 * k : 2] + x[1 : 2 * k : 2]
        if x.shape[0] % 2:
            paired = np.concatenate([paired, x[-1:]], axis=0)
        x = paired
    amax = feats.argmax(axis=1)
    pooled = np.concatenate([x[0] / n_pts, feats.max(axis=1)], axis=1)
    proj = nk.matmul(pooled, params.head)
    out = nk.l2_normalize(proj.value)

    def backward(g):
        gm = np.asarray(g, dtype=np.float64)
        if squeezed:
            gm = gm[None, :]
        (gp,) = out.backward(gm)
        g_pool, g_head = proj.backward(gp)
        g_feats = np.zeros_like(feats)
        np.put_along_axis(g_feats, amax[:, None, :], g_pool[:, None, h:], axis=1)
        g_feats += g_pool[:, None, :h] / n_pts
        (g_lin2,) = act2.backward(g_feats.reshape(n_b * n_pts, h))
        g_act1, g_w2 = lin2.backward(g_lin2)
        (g_lin1,) = act1.backward(g_act1)
        _, g_w1 = lin1.backward(g_lin1)
        return g_w1, g_w2, g_head

    return nk.GradPair(out.value[0] if squeezed else out.value, backward)


def _datagen_batch():
    spec = DatasetSpec(seed=0, classes=4, samples_per_class=32, heldout_classes=1, views=1, shift_enabled=False)
    return generate(spec).points[:128]


def _normal(*shape):
    return lambda: np.random.default_rng(20).normal(size=shape)


def _duplicate_points():
    clouds = np.tile(np.random.default_rng(20).normal(size=(2, 12, 3)), (1, 2, 1))
    clouds[1, 5] = clouds[1, 0]
    return clouds


FUSED_CASES = {
    "squeezed": (_normal(40, 3), 16, 8),
    "batch-of-one": (_normal(1, 33, 3), 16, 8),
    "odd-points": (_normal(4, 37, 3), 12, 5),
    "minimum-points": (_normal(3, MIN_CLOUD_POINTS, 3), 7, 4),
    "one-hidden-unit": (_normal(5, 20, 3), 1, 4),
    "duplicate-points": (_duplicate_points, 9, 4),
    "all-equal-points": (lambda: np.tile([0.5, -0.25, 1.0], (3, 12, 1)), 8, 4),
    "datagen-128x256": (_datagen_batch, 128, 64),
    "last-group-of-one": (_normal(GROUP + 1, 24, 3), 10, 6),
    "partial-last-group-odd-points": (_normal(2 * GROUP - 3, 29, 3), 11, 5),
}


class TestFusedEncoderMatchesReference:
    @pytest.mark.parametrize("case", list(FUSED_CASES))
    def test_value_and_gradients_bit_identical(self, case):
        make, hidden, out_dim = FUSED_CASES[case]
        clouds = make()
        params = init_point_encoder(hidden, out_dim, 1)
        ref, got = _reference_encode(clouds, params), encode_points(clouds, params)
        g = np.random.default_rng(21).normal(size=np.shape(ref.value))
        for want, have in zip([ref.value, *ref.backward(g)], [got.value, *got.backward(g)]):
            np.testing.assert_array_equal(have, want)
            np.testing.assert_array_equal(np.signbit(have), np.signbit(want))


def _overflow_case(case):
    h = 4
    cloud = np.abs(np.random.default_rng(22).normal(size=(64, 3))) + 0.5
    w1, w2, head = np.full((3, h), 0.5), np.full((h, h), 0.5), np.full((2 * h, 3), 0.25)
    if case == "nan-point":
        cloud[3, 1] = np.nan
    elif case == "inf-point":
        cloud[7, 2] = -np.inf
    elif case == "nan-w1":
        w1[1, 2] = np.nan
    elif case == "inf-w2":
        w2[0, 3] = np.inf
    elif case == "nan-head":
        head[5, 1] = np.nan
    elif case == "hidden-to-plus-inf":
        cloud *= 1e160
        w1[:, 0] = 1e160
    elif case == "hidden-to-minus-inf":
        # relu zeroes the -inf column, so only a scan of the hidden layer sees it
        cloud *= 1e160
        w1[:, 0] = -1e160
    elif case == "hidden-to-minus-inf-in-last-group":
        # cloud GROUP alone overflows, so only the scan of the last group,
        # which holds just that cloud, sees its -inf
        cloud = np.stack([cloud] * (GROUP + 1))
        cloud[GROUP] *= 1e160
        w1[:, 0] = -1e160
    elif case == "pooled-sum-to-inf":
        # every point's feature is finite; their sum over 64 points is not
        w2[:, 0] = 1e306
    return cloud, PointEncoderParams(w1, w2, head)


class TestNonFiniteContract:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "case",
        ["nan-point", "inf-point", "nan-w1", "inf-w2", "nan-head",
         "hidden-to-plus-inf", "hidden-to-minus-inf", "hidden-to-minus-inf-in-last-group",
         "pooled-sum-to-inf"],
    )
    def test_raises_numeric_error(self, case):
        cloud, params = _overflow_case(case)
        with pytest.raises(NumericError):
            encode_points(cloud, params)

    def test_finite_case_encodes(self):
        cloud, params = _overflow_case("none")
        assert np.all(np.isfinite(encode_points(cloud, params).value))


class _CountingThread(threading.Thread):
    started = 0

    def start(self):
        _CountingThread.started += 1
        super().start()


@pytest.fixture
def lanes(monkeypatch):
    """Sets the lane rule's inputs, one BLAS thread and ``cpus`` CPUs, and
    counts the threads the encoder starts. Threads switch every microsecond,
    so lanes interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    monkeypatch.setattr(_CountingThread, "started", 0)
    monkeypatch.setattr(encoders.threading, "Thread", _CountingThread)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    def use(cpus, blas="1"):
        if blas is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    yield use
    sys.setswitchinterval(interval)


def _two_layer_overflows():
    # three groups: the second overflows layer 2 only, the third layer 1
    h = 4
    clouds = np.abs(np.random.default_rng(23).normal(size=(3 * GROUP, 16, 3))) + 0.5
    clouds[GROUP + 2] *= 100.0
    clouds[2 * GROUP + 5] *= 1e160
    w1, w2 = np.full((3, h), 0.5), np.full((h, h), 0.5)
    w1[:, 0] = -1e160
    w2[:, 0] = 1e306
    return clouds, PointEncoderParams(w1, w2, np.full((2 * h, 3), 0.25))


class TestLanes:
    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 8])
    @pytest.mark.parametrize("case", list(FUSED_CASES))
    def test_value_and_gradients_bit_identical(self, case, n_lanes, lanes):
        make, hidden, out_dim = FUSED_CASES[case]
        clouds = make()
        params = init_point_encoder(hidden, out_dim, 1)
        ref = _reference_encode(clouds, params)
        lanes(n_lanes)
        got = encode_points(clouds, params)
        g = np.random.default_rng(21).normal(size=np.shape(ref.value))
        for want, have in zip([ref.value, *ref.backward(g)], [got.value, *got.backward(g)]):
            np.testing.assert_array_equal(have, want)
            np.testing.assert_array_equal(np.signbit(have), np.signbit(want))
        n_groups = -(-len(clouds) // GROUP) if np.ndim(clouds) == 3 else 1
        assert _CountingThread.started == 2 * (min(n_lanes, n_groups) - 1)

    @pytest.mark.parametrize("n_lanes", [1, 2, 3])
    def test_error_is_the_first_failing_groups(self, n_lanes, lanes):
        clouds, params = _two_layer_overflows()
        lanes(n_lanes)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="point encoder layer 2 "):
            encode_points(clouds, params)
        assert _CountingThread.started == n_lanes - 1

    @pytest.mark.parametrize("n_lanes", [1, 2, 3])
    def test_every_lane_keeps_the_callers_error_state(self, n_lanes, lanes):
        clouds, params = _two_layer_overflows()
        lanes(n_lanes)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            encode_points(clouds, params)

    def test_no_thread_when_blas_threads_unset(self, lanes):
        lanes(64, blas=None)
        clouds = np.random.default_rng(24).normal(size=(4 * GROUP, 16, 3))
        out = encode_points(clouds, init_point_encoder(8, 4, 2))
        out.backward(np.ones((4 * GROUP, 4)))
        assert _CountingThread.started == 0

    @pytest.mark.parametrize(
        "env, cpus, groups, want",
        [
            ({}, 8, 16, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 2, 16, 2),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2, 16, 1),
            ({"OPENBLAS_NUM_THREADS": "3"}, 2, 16, 1),
            ({"OPENBLAS_NUM_THREADS": "2"}, 8, 16, 4),
            ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),
            ({"OMP_NUM_THREADS": "1"}, 4, 16, 4),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 16, 2),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4, 16, 4),
            ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 4, 16, 2),
            ({"OPENBLAS_NUM_THREADS": " 2threads"}, 4, 16, 2),
            ({"OPENBLAS_NUM_THREADS": "-1"}, 4, 16, 1),
        ],
    )
    def test_lane_rule(self, env, cpus, groups, want, lanes, monkeypatch):
        lanes(cpus, blas=None)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert encoders._lane_count(groups) == want
