import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tamm import encoders
from tamm import numkit as nk
from tamm.datagen import DatasetSpec, generate
from tamm.encoders import (
    GROUP,
    MIN_CLOUD_POINTS,
    SHIFT_BIAS_SCALE,
    VIEW_SCALE,
    FrozenEncoderSpec,
    PointEncoderParams,
    encode_points,
    frozen_image_views,
    frozen_text_embed,
    init_point_encoder,
    shift_apply,
    shift_matrix,
)
from tamm.errors import ConfigError, NumericError, ShapeError
from tamm.numkit import SUM_ROWS


SHIFT = 0.6


@pytest.fixture(scope="module")
def spec():
    return FrozenEncoderSpec.build(seed=7, latent_dim=16, feature_dim=64, max_views=4)


def image_views(latent, spec, s=0.0):
    """All ``spec.max_views`` image views of the (n, z) latents at strength s, as float64."""
    return frozen_image_views(latent, spec, s, np.empty((len(latent), spec.max_views, spec.feature_dim)))


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
        again = FrozenEncoderSpec.build(seed=7, latent_dim=16, feature_dim=64, max_views=4)
        rng = np.random.default_rng(3)
        latent = rng.normal(size=16)
        np.testing.assert_array_equal(frozen_text_embed(latent, spec), frozen_text_embed(latent, again))
        np.testing.assert_array_equal(image_views(latent[None], spec), image_views(latent[None], again))

    def test_views_share_latent(self, spec):
        rng = np.random.default_rng(4)
        feats = image_views(rng.normal(size=(1, 16)), spec)[0]
        for i in range(4):
            for j in range(i + 1, 4):
                assert float(feats[i] @ feats[j]) > 0.0

    def test_view_count_validated(self, spec):
        with pytest.raises(ConfigError):
            frozen_image_views(np.ones((1, 16)), spec, 0.0, np.empty((1, 5, 64)))

    def test_zero_strength_shift_is_identity(self):
        s0 = FrozenEncoderSpec.build(seed=9, latent_dim=8, feature_dim=32, max_views=2)
        rng = np.random.default_rng(5)
        feats = image_views(rng.normal(size=(3, 8)), s0)[:, 0]
        np.testing.assert_array_equal(shift_matrix(s0, 0.0), np.eye(32))
        np.testing.assert_array_equal(shift_apply(feats, s0, 0.0), feats)

    def test_shift_changes_features(self, spec):
        latent = np.random.default_rng(6).normal(size=(1, 16))
        plain, shifted = image_views(latent, spec)[0, 0], image_views(latent, spec, SHIFT)[0, 0]
        assert np.linalg.norm(shifted - plain) > 0.1

    @pytest.mark.parametrize("s", [0.0, SHIFT])
    def test_views_equal_the_per_view_formula(self, spec, s):
        # the reference embeds each view on its own, text product included,
        # then shifts and renormalizes it (s > 0) or keeps it as embedded
        latent = np.random.default_rng(8).normal(size=(50, 16))
        views = image_views(latent, spec, s)
        for k in range(4):
            raw = latent @ spec.text_proj + VIEW_SCALE * (latent @ spec.view_projs[k])
            view = nk.l2_normalize(raw).value
            want = nk.l2_normalize(shift_apply(view, spec, s)).value if s > 0.0 else view
            np.testing.assert_array_equal(views[:, k], want)

    def test_shift_matrix_orthogonal_by_construction(self):
        # rotations in orthonormal QR planes: the linear part is orthogonal at
        # every seed, shape and strength, so building a spec checks no conditioning
        for seed in range(200):
            for z, d in ((4, 13), (8, 32), (16, 64), (32, 128)):
                built = FrozenEncoderSpec.build(seed, z, d, max_views=1)
                for s in (0.25, 0.5, 0.75, 1.0):
                    m = shift_matrix(built, s)
                    assert np.abs(m @ m.T - np.eye(d)).max() <= 1e-14
                    assert abs(np.linalg.cond(m) - 1.0) <= 1e-14

    def test_shift_roundtrip(self, spec):
        # the linear part is orthogonal, so its transpose undoes it once the bias is off
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 64))
        y = shift_apply(x, spec, SHIFT)
        back = (y - SHIFT * SHIFT_BIAS_SCALE * spec.shift_bias_dir) @ shift_matrix(spec, SHIFT)
        assert np.max(np.abs(back - x)) < 1e-9

    def test_latent_dim_checked(self, spec):
        with pytest.raises(ShapeError):
            frozen_text_embed(np.ones(5), spec)
        with pytest.raises(ShapeError):
            frozen_image_views(np.ones((1, 5)), spec, 0.0, np.empty((1, 1, 64)))


class TestPointEncoder:
    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(10)
        params = init_point_encoder(16, 8, 0)
        cloud = rng.normal(size=(1, 40, 3))
        base = encode_points(cloud, params, False).value
        for seed in range(100):
            perm = np.random.default_rng(seed).permutation(40)
            np.testing.assert_array_equal(encode_points(cloud[:, perm], params, False).value, base)

    def test_duplication_invariance_bit_exact(self):
        rng = np.random.default_rng(11)
        params = init_point_encoder(16, 8, 1)
        cloud = rng.normal(size=(1, 33, 3))
        doubled = np.concatenate([cloud, cloud], axis=1)
        once, twice = encode_points(cloud, params, False), encode_points(doubled, params, False)
        np.testing.assert_array_equal(twice.value, once.value)

    def test_unit_norm_output(self):
        rng = np.random.default_rng(12)
        params = init_point_encoder(16, 8, 2)
        feats = encode_points(rng.normal(size=(6, 20, 3)), params, False).value
        np.testing.assert_allclose(np.linalg.norm(feats, axis=1), np.ones(6), atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        params = init_point_encoder(6, 5, 3)
        cloud = rng.normal(size=(1, 12, 3))
        w = rng.normal(size=(1, 5))

        def f(p):
            out = encode_points(cloud, PointEncoderParams(p[0], p[1], p[2]), True)
            dw1, dw2, dh = out.backward(w)
            return float(np.sum(w * out.value)), [dw1, dw2, dh]

        assert nk.finite_diff_check(f, [params.w1, params.w2, params.head]) < 1e-6

    def test_degenerate_cloud_allowed(self):
        params = init_point_encoder(8, 4, 4)
        cloud = np.tile(np.array([0.5, -0.25, 1.0]), (1, 10, 1))
        feat = encode_points(cloud, params, False).value
        assert np.all(np.isfinite(feat))

    def test_batch_matches_single(self):
        # gemm blocking differs across batch shapes, so agreement is to rounding
        rng = np.random.default_rng(14)
        params = init_point_encoder(8, 4, 5)
        clouds = rng.normal(size=(3, 15, 3))
        batch = encode_points(clouds, params, False).value
        for i in range(3):
            np.testing.assert_allclose(batch[i], encode_points(clouds[i : i + 1], params, False).value[0], atol=1e-12)

    def test_minimum_points(self):
        params = init_point_encoder(8, 4, 6)
        with pytest.raises(ShapeError):
            encode_points(np.zeros((1, 4, 3)), params, False)

    def test_input_must_be_a_batch(self):
        params = init_point_encoder(8, 4, 6)
        for shape in ((16, 3), (2, 2, 16, 3), (2, 16, 2)):
            with pytest.raises(ShapeError, match=r"\(B,N,3\)"):
                encode_points(np.zeros(shape), params, False)

    def test_init_deterministic(self):
        a = init_point_encoder(8, 4, 7)
        b = init_point_encoder(8, 4, 7)
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.head, b.head)


def test_backward_keeps_no_batch_sized_float_array():
    # at B=128, N=256, h=128 one B*N*h float array is 32 MiB; backward works
    # in its lanes' group-sized scratch and keeps per-group partial sums only.
    # It runs on a new thread, so nothing kept per thread by an earlier call
    # can hide an allocation
    rng = np.random.default_rng(25)
    clouds, params = rng.normal(size=(128, 256, 3)), init_point_encoder(128, 64, 3)
    out = encode_points(clouds, params, True)
    g = rng.normal(size=(128, 64))
    tracemalloc.start()
    try:
        worker = threading.Thread(target=out.backward, args=(g,))
        worker.start()
        worker.join(timeout=120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not worker.is_alive()
    assert peak < 8 * 2**20


def test_forward_keeps_no_batch_sized_array(lanes):
    # without grads, float32 clouds are sorted and widened a group at a time
    # into each lane's buffer: no (B, N, 3) float64 array is made, which at
    # B=1000, N=256 would alone be 5.9 MiB
    clouds = np.random.default_rng(26).normal(size=(1000, 256, 3)).astype(np.float32)
    params = init_point_encoder(16, 8, 3)
    lanes(2)
    tracemalloc.start()
    try:
        encode_points(clouds, params, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _CountingThread.started == 1
    assert peak < clouds.size * 8


def _by_group_then_chunk(a, b, group_rows):
    """``a.T @ b`` in the encoder's documented order: a partial per group of
    ``group_rows`` rows, summed over ``SUM_ROWS``-row chunks of that group in
    order, then the partials added in group order."""
    total = None
    for g in range(0, len(a), group_rows):
        end = min(g + group_rows, len(a))
        part = None
        for lo in range(g, end, SUM_ROWS):
            chunk = a[lo : min(lo + SUM_ROWS, end)].T @ b[lo : min(lo + SUM_ROWS, end)]
            part = chunk if part is None else part + chunk
        total = part if total is None else total + part
    return total


def _adjacent_pair_sum(feats):
    """The sum over axis 1 of a (B, N, h) array by a balanced tree: each level
    adds entries (0, 1), (2, 3), ... and carries an odd last entry on."""
    x = np.moveaxis(feats, 1, 0)
    while x.shape[0] > 1:
        k = x.shape[0] // 2
        paired = x[0 : 2 * k : 2] + x[1 : 2 * k : 2]
        if x.shape[0] % 2:
            paired = np.concatenate([paired, x[-1:]], axis=0)
        x = paired
    return x[0]


def _reference_encode(clouds, params):
    """The layer-by-layer encoder that ``encode_points`` fuses: numkit products
    and relus, a per-cloud lexsort, the tree sum over the moved point axis,
    the max-pool gradient through ``put_along_axis``, and the weight gradients
    summed by group, then by chunk."""
    arr = nk.as_f64(clouds, "point cloud")
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
    amax = feats.argmax(axis=1)
    pooled = np.concatenate([_adjacent_pair_sum(feats) / n_pts, feats.max(axis=1)], axis=1)
    proj = nk.matmul(pooled, params.head)
    out = nk.l2_normalize(proj.value)

    def backward(g):
        (gp,) = out.backward(np.asarray(g, dtype=np.float64))
        g_pool, g_head = proj.backward(gp)
        g_feats = np.zeros_like(feats)
        np.put_along_axis(g_feats, amax[:, None, :], g_pool[:, None, h:], axis=1)
        g_feats += g_pool[:, None, :h] / n_pts
        (g_lin2,) = act2.backward(g_feats.reshape(n_b * n_pts, h))
        g_act1, _ = lin2.backward(g_lin2)
        (g_lin1,) = act1.backward(g_act1)
        group_rows = GROUP * n_pts
        g_w1 = _by_group_then_chunk(flat, g_lin1, group_rows)
        g_w2 = _by_group_then_chunk(act1.value, g_lin2, group_rows)
        return g_w1, g_w2, g_head

    return nk.GradPair(out.value, backward)


def _datagen_batch():
    spec = DatasetSpec(seed=0, classes=4, samples_per_class=32, heldout_classes=1, views=1, shift_strength=0.0)
    return generate(spec).points[:128]


def _normal(*shape):
    return lambda: np.random.default_rng(20).normal(size=shape)


def _duplicate_points():
    clouds = np.tile(np.random.default_rng(20).normal(size=(2, 12, 3)), (1, 2, 1))
    clouds[1, 5] = clouds[1, 0]
    return clouds


FUSED_CASES = {
    "one-cloud-even-points": (_normal(1, 40, 3), 16, 8),
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
        ref, got = _reference_encode(clouds, params), encode_points(clouds, params, True)
        g = np.random.default_rng(21).normal(size=np.shape(ref.value))
        for want, have in zip([ref.value, *ref.backward(g)], [got.value, *got.backward(g)]):
            np.testing.assert_array_equal(have, want)
            np.testing.assert_array_equal(np.signbit(have), np.signbit(want))

    @pytest.mark.parametrize("want_grads", [False, True])
    @pytest.mark.parametrize("case", ["duplicate-points", "partial-last-group-odd-points", "datagen-128x256"])
    def test_float32_clouds_give_the_float64_bits(self, case, want_grads):
        make, hidden, out_dim = FUSED_CASES[case]
        narrow = np.asarray(make(), dtype=np.float32)
        params = init_point_encoder(hidden, out_dim, 1)
        wide, got = encode_points(narrow.astype(np.float64), params, want_grads), encode_points(narrow, params, want_grads)
        outs = [(wide.value, got.value)]
        if want_grads:
            g = np.random.default_rng(21).normal(size=wide.value.shape)
            outs += zip(wide.backward(g), got.backward(g))
        else:
            assert got.backward is None
        for want, have in outs:
            np.testing.assert_array_equal(have, want)
            np.testing.assert_array_equal(np.signbit(have), np.signbit(want))


def _adversarial_clouds(n_pts, dtype):
    """Clouds whose x column ties, each built so that breaking a tie by input
    position, not by y then z, gives another order: tied x with distinct y and
    z, tied (x, y), fully duplicated points, -0.0 beside 0.0 in x, a constant
    x column, and one cloud with distinct x."""
    rng = np.random.default_rng(40)
    clouds = rng.normal(size=(6, n_pts, 3))
    clouds[0, :, 0] = rng.integers(-1, 2, n_pts)
    clouds[1, :, :2] = rng.integers(-1, 2, (n_pts, 2))
    clouds[2] = clouds[2, rng.integers(0, n_pts // 3, n_pts)]
    clouds[4, :, 0] = 0.5
    for cloud in clouds[:5]:
        # the first two points tie up to y, which orders them against position
        cloud[1] = cloud[0]
        cloud[0, 1], cloud[1, 1] = 1.0, -1.0
    clouds[3, 0, 0], clouds[3, 1, 0] = 0.0, -0.0  # its only tie
    return clouds.astype(dtype)


class TestCanonicalOrder:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_pts", [MIN_CLOUD_POINTS, 37, 64])
    def test_batched_order_is_each_clouds_lexsort(self, n_pts, dtype):
        clouds = _adversarial_clouds(n_pts, dtype)
        order = encoders._canonical_order(clouds)
        for cloud, got in zip(clouds, order):
            np.testing.assert_array_equal(got, np.lexsort((cloud[:, 2], cloud[:, 1], cloud[:, 0])))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_pts", [MIN_CLOUD_POINTS, 37])
    def test_encoder_matches_reference_on_tied_clouds(self, n_pts, dtype):
        clouds = _adversarial_clouds(n_pts, dtype)
        params = init_point_encoder(9, 5, 1)
        ref, got = _reference_encode(clouds, params), encode_points(clouds, params, True)
        g = np.random.default_rng(21).normal(size=ref.value.shape)
        for want, have in zip([ref.value, *ref.backward(g)], [got.value, *got.backward(g)]):
            np.testing.assert_array_equal(have, want)
            np.testing.assert_array_equal(np.signbit(have), np.signbit(want))


class TestTreeSum:
    @pytest.mark.parametrize("n_b", [1, 3])
    def test_layout_sum_in_place_equals_adjacent_pairs(self, n_b):
        rng = np.random.default_rng(41)
        for n in range(1, 71):
            layout, inverse = encoders._tree_layout(n)
            np.testing.assert_array_equal(np.sort(layout), np.arange(n))
            np.testing.assert_array_equal(layout[inverse], np.arange(n))
            x = rng.normal(size=(n_b, n, 6))
            x[rng.random(x.shape) < 0.3] = -0.0
            x[:, :, 0] = -0.0  # a channel that sums to -0.0
            want = _adjacent_pair_sum(x)
            have = encoders._tree_sum(x[:, layout])
            np.testing.assert_array_equal(have, want, err_msg=f"N={n}")
            np.testing.assert_array_equal(np.signbit(have), np.signbit(want), err_msg=f"N={n}")

    @pytest.mark.parametrize("n_b", [1, 3])
    def test_duplicated_points_keep_the_mean(self, n_b):
        # a duplicated cloud's canonical order puts each point beside its copy
        rng = np.random.default_rng(42)
        for n in range(1, 71):
            x = rng.normal(size=(n_b, n, 6))
            doubled = np.repeat(x, 2, axis=1)
            once = encoders._tree_sum(x[:, encoders._tree_layout(n)[0]]) / n
            twice = encoders._tree_sum(doubled[:, encoders._tree_layout(2 * n)[0]]) / (2 * n)
            np.testing.assert_array_equal(twice, once, err_msg=f"N={n}")


def _overflow_case(case):
    h = 4
    cloud = np.abs(np.random.default_rng(22).normal(size=(1, 64, 3))) + 0.5
    w1, w2, head = np.full((3, h), 0.5), np.full((h, h), 0.5), np.full((2 * h, 3), 0.25)
    if case == "nan-point":
        cloud[0, 3, 1] = np.nan
    elif case == "inf-point":
        cloud[0, 7, 2] = -np.inf
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
        cloud = np.concatenate([cloud] * (GROUP + 1))
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
        for want_grads in (False, True):
            with pytest.raises(NumericError):
                encode_points(cloud, params, want_grads)

    def test_finite_case_encodes(self):
        cloud, params = _overflow_case("none")
        assert np.all(np.isfinite(encode_points(cloud, params, False).value))


class _CountingThread(threading.Thread):
    started = 0

    def start(self):
        _CountingThread.started += 1
        super().start()


@pytest.fixture
def lanes(monkeypatch, lane_inputs):
    """``lane_inputs``, counting the threads the encoder starts. Threads
    switch every microsecond, so lanes interleave as finely as they can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    monkeypatch.setattr(_CountingThread, "started", 0)
    monkeypatch.setattr(encoders.threading, "Thread", _CountingThread)
    yield lane_inputs
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
        got = encode_points(clouds, params, True)
        g = np.random.default_rng(21).normal(size=np.shape(ref.value))
        for want, have in zip([ref.value, *ref.backward(g)], [got.value, *got.backward(g)]):
            np.testing.assert_array_equal(have, want)
            np.testing.assert_array_equal(np.signbit(have), np.signbit(want))
        n_groups = -(-len(clouds) // GROUP)
        assert _CountingThread.started == 2 * (min(n_lanes, n_groups) - 1)

    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 8])
    def test_backward_twice_on_one_forward(self, n_lanes, lanes):
        make, hidden, out_dim = FUSED_CASES["partial-last-group-odd-points"]
        clouds, params = make(), init_point_encoder(hidden, out_dim, 1)
        ref = _reference_encode(clouds, params)
        lanes(n_lanes)
        got = encode_points(clouds, params, True)
        g1, g2 = (np.random.default_rng(seed).normal(size=np.shape(ref.value)) for seed in (21, 22))
        first = got.backward(g1)
        second = got.backward(g2)
        for want, have in zip([*ref.backward(g1), *ref.backward(g2), *ref.backward(g1)],
                              [*first, *second, *got.backward(g1)]):
            np.testing.assert_array_equal(have, want)

    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 8])
    def test_interleaved_forwards(self, n_lanes, lanes):
        # forwards A, B, C, then their backwards: B has another shape than A,
        # so each backward meets arrays last shaped by another call, and C has
        # A's shape with other clouds, so state kept by shape would mix them
        cases = [FUSED_CASES[name] for name in ("partial-last-group-odd-points", "last-group-of-one")]
        inputs = [(make(), init_point_encoder(hidden, out_dim, 1)) for make, hidden, out_dim in cases]
        inputs.append((inputs[0][0][::-1].copy(), inputs[0][1]))
        g = [np.random.default_rng(21).normal(size=(len(clouds), params.out_dim)) for clouds, params in inputs]
        lanes(n_lanes)
        fresh = []
        for (clouds, params), gk in zip(inputs, g):
            out = encode_points(clouds, params, True)
            fresh.append([out.value, *out.backward(gk)])
        outs = [encode_points(clouds, params, True) for clouds, params in inputs]
        got = [[out.value, *out.backward(gk)] for out, gk in zip(outs, g)]
        for want, have in zip(fresh, got):
            for w, h in zip(want, have):
                np.testing.assert_array_equal(h, w)

    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 8])
    def test_concurrent_callers_match_serial(self, n_lanes, lanes):
        # both callers' backward arrays have the same shape, so arrays shared
        # between threads would mix their rows
        inputs = [
            (np.random.default_rng(30 + k).normal(size=(2 * GROUP + 3, 20, 3)), init_point_encoder(9, 4, k))
            for k in range(2)
        ]
        g = np.random.default_rng(32).normal(size=(2 * GROUP + 3, 4))
        lanes(n_lanes)

        def run(clouds, params):
            out = encode_points(clouds, params, True)
            return [out.value, *out.backward(g)]

        serial = [run(*args) for args in inputs]
        together = [[] for _ in inputs]
        start = threading.Barrier(len(inputs), timeout=60)

        def caller(k):
            for _ in range(5):
                start.wait()
                together[k].append(run(*inputs[k]))

        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for want, runs in zip(serial, together):
            assert len(runs) == 5
            for have in runs:
                for w, h in zip(want, have):
                    np.testing.assert_array_equal(h, w)

    @pytest.mark.parametrize("n_lanes", [1, 2, 3, 8])
    def test_forward_without_grads(self, n_lanes, lanes):
        lanes(n_lanes)
        for case, (make, hidden, out_dim) in FUSED_CASES.items():
            clouds, params = make(), init_point_encoder(hidden, out_dim, 1)
            plain, with_grads = encode_points(clouds, params, False), encode_points(clouds, params, True)
            assert plain.backward is None, case
            np.testing.assert_array_equal(plain.value, with_grads.value)
            np.testing.assert_array_equal(np.signbit(plain.value), np.signbit(with_grads.value))

    @pytest.mark.parametrize("n_lanes", [1, 2, 3])
    def test_error_is_the_first_failing_groups(self, n_lanes, lanes):
        clouds, params = _two_layer_overflows()
        lanes(n_lanes)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="point encoder layer 2 "):
            encode_points(clouds, params, True)
        assert _CountingThread.started == n_lanes - 1

    @pytest.mark.parametrize("n_lanes", [1, 2, 3])
    def test_every_lane_keeps_the_callers_error_state(self, n_lanes, lanes):
        clouds, params = _two_layer_overflows()
        lanes(n_lanes)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            encode_points(clouds, params, True)

    @pytest.mark.parametrize("n_lanes", [1, 2, 3])
    def test_in_lanes_raises_the_lowest_failing_task(self, n_lanes, lanes):
        ran = []

        def run(lane, t):
            if t in (3, 5):
                raise ValueError(f"task {t}")
            ran.append(t)

        with pytest.raises(ValueError, match="task 3"):
            encoders._in_lanes(9, n_lanes, run)
        assert {0, 1, 2} <= set(ran) and len(ran) == len(set(ran))
        assert _CountingThread.started == n_lanes - 1

    def test_no_thread_when_blas_threads_unset(self, lanes):
        # unset, OpenBLAS runs a thread on every CPU
        lanes(64, blas=64)
        clouds = np.random.default_rng(24).normal(size=(4 * GROUP, 16, 3))
        out = encode_points(clouds, init_point_encoder(8, 4, 2), True)
        out.backward(np.ones((4 * GROUP, 4)))
        assert _CountingThread.started == 0

    @pytest.mark.parametrize(
        "blas, cpus, groups, want",
        [
            (None, 8, 16, 1),
            (8, 8, 16, 1),
            (1, 2, 16, 2),
            (2, 2, 16, 1),
            (2, 8, 16, 4),
            (3, 8, 16, 2),
            (1, 8, 3, 3),
            (4, 2, 16, 1),
        ],
    )
    def test_lane_rule(self, blas, cpus, groups, want, lanes):
        lanes(cpus, blas)
        assert encoders._lane_count(groups) == want


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "env, one_lane",
    [
        ({}, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, False),
        ({"OMP_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, False),
    ],
)
def test_lanes_follow_the_threads_openblas_reads(env, one_lane):
    # OpenBLAS reads its variables when numpy loads it, so each case runs in
    # a fresh process: BLAS on every CPU leaves one lane, one BLAS thread
    # gives a lane per CPU
    if encoders._openblas_get_num_threads() is None:
        pytest.skip("numpy's BLAS reports no thread count")
    src = str(Path(__file__).resolve().parents[1] / "src")
    child = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    child.update(env, PYTHONPATH=os.pathsep.join(filter(None, [src, child.get("PYTHONPATH")])))
    script = "import os\nfrom tamm import encoders\nprint(encoders._lane_count(16), len(os.sched_getaffinity(0)))"
    out = subprocess.run([sys.executable, "-c", script], env=child, capture_output=True, text=True, check=True)
    lanes, cpus = map(int, out.stdout.split())
    assert lanes == (1 if one_lane else min(16, cpus))
