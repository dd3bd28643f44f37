import math

import numpy as np
import pytest

from tamm import numkit as nk
from tamm.errors import ConfigError, NumericError, ShapeError
from tamm.losses import (
    LossConfig,
    contrastive_accuracy,
    contrastive_loss,
    trimodal_loss,
)


def naive_contrastive(fa, fb, tau):
    """Unstabilized reference: raw exp softmax, scalar loops."""
    n = fa.shape[0]
    total = 0.0
    for i in range(n):
        num = math.exp(float(fa[i] @ fb[i]) / tau)
        den = sum(math.exp(float(fa[i] @ fb[j]) / tau) for j in range(n))
        total += math.log(num / den)
        num = math.exp(float(fb[i] @ fa[i]) / tau)
        den = sum(math.exp(float(fb[i] @ fa[j]) / tau) for j in range(n))
        total += math.log(num / den)
    return -total / (2.0 * n)


def unit_rows(rng, n, d):
    return nk.l2_normalize(rng.normal(size=(n, d))).value


def two_sided_d_fa(fa, fb, tau, g=1.0):
    """d_fa as the two-sided backward formed it, next to a d_fb nothing read."""
    n = fa.shape[0]
    s_ab = (fa @ fb.T) / tau
    s_ba = (fb @ fa.T) / tau
    lse_ab = nk.logsumexp_rows(s_ab)
    lse_ba = nk.logsumexp_rows(s_ba)
    scale = float(g) / (2.0 * n * tau)
    p_ab = np.exp(s_ab - lse_ab[:, None])
    p_ba = np.exp(s_ba - lse_ba[:, None])
    eye = np.eye(n)
    return scale * (((p_ab - eye) + (p_ba - eye).T) @ fb)


class TestContrastiveLoss:
    def test_single_pair_is_zero(self):
        rng = np.random.default_rng(0)
        fa, fb = unit_rows(rng, 1, 5), unit_rows(rng, 1, 5)
        assert contrastive_loss(fa, fb, LossConfig(0.07)).value == 0.0

    def test_orthonormal_two_pair_closed_form(self):
        e = np.eye(2)
        for tau in (0.05, 0.07, 1.0):
            value = contrastive_loss(e, e, LossConfig(tau)).value
            assert abs(value - math.log(1.0 + math.exp(-1.0 / tau))) < 1e-9
        assert abs(contrastive_loss(e, e, LossConfig(1.0)).value - 0.3132616875182228) < 1e-9

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(2, 17))
            tau = float(rng.choice([0.05, 0.07, 1.0]))
            fa, fb = unit_rows(rng, n, d), unit_rows(rng, n, d)
            ours = contrastive_loss(fa, fb, LossConfig(tau)).value
            assert abs(ours - naive_contrastive(fa, fb, tau)) < 1e-10

    def test_symmetry_bit_exact(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            fa, fb = unit_rows(rng, 6, 8), unit_rows(rng, 6, 8)
            assert contrastive_loss(fa, fb, LossConfig(0.07)).value == contrastive_loss(fb, fa, LossConfig(0.07)).value

    def test_nonnegative(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 10))
            fa, fb = unit_rows(rng, n, 6), unit_rows(rng, n, 6)
            assert contrastive_loss(fa, fb, LossConfig(0.07)).value >= 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        fa, fb = unit_rows(rng, 5, 7), unit_rows(rng, 5, 7)
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        base = contrastive_loss(fa, fb, LossConfig(0.07)).value
        rotated = contrastive_loss(fa @ q, fb @ q, LossConfig(0.07)).value
        assert abs(base - rotated) < 1e-9

    def test_gradients(self):
        rng = np.random.default_rng(4)
        fa, fb = unit_rows(rng, 5, 6), unit_rows(rng, 5, 6)

        def f(params):
            out = contrastive_loss(params[0], fb, LossConfig(0.07))
            (da,) = out.backward(1.0)
            return float(out.value), [da]

        assert nk.finite_diff_check(f, [fa]) < 1e-6

    def test_exposes_only_first_gradient(self):
        rng = np.random.default_rng(6)
        fa, fb = unit_rows(rng, 4, 5), unit_rows(rng, 4, 5)
        grads = contrastive_loss(fa, fb, LossConfig()).backward(1.0)
        assert len(grads) == 1
        assert grads[0].shape == fa.shape

    def test_backward_equals_two_sided_expression_bitwise(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 70))
            fa, fb = unit_rows(rng, n, 8), unit_rows(rng, n, 8)
            tau = float(rng.choice([0.05, 0.07, 0.1, 1.0]))
            g = float(rng.choice([1.0, 0.25, 1.0 / 3.0]))
            (got,) = contrastive_loss(fa, fb, LossConfig(tau)).backward(g)
            assert np.array_equal(got, two_sided_d_fa(fa, fb, tau, g))

    def test_tau_validation(self):
        for tau in (0.0, -1.0, 1e-300, 0.0099, math.inf, math.nan):
            with pytest.raises(ConfigError, match="tau"):
                LossConfig(tau=tau)
        assert LossConfig(tau=0.01).tau == 0.01

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            contrastive_loss(np.ones((3, 4)), np.ones((2, 4)), LossConfig())

    def test_default_temperature(self):
        assert LossConfig().tau == 0.07


class TestRealignLoss:
    """The stage-1 objective: contrastive_loss(cia(images), frozen texts)."""

    def test_gradient(self):
        rng = np.random.default_rng(7)
        fa, fb = unit_rows(rng, 4, 5), unit_rows(rng, 4, 5)

        def f(params):
            out = contrastive_loss(params[0], fb, LossConfig(0.1))
            (da,) = out.backward(1.0)
            return float(out.value), [da]

        assert nk.finite_diff_check(f, [fa]) < 1e-6


class TestTrimodalLoss:
    def test_single_view_reduction(self):
        rng = np.random.default_rng(8)
        sp, t, vp, v = (unit_rows(rng, 4, 6) for _ in range(4))
        cfg = LossConfig(0.07)
        combined = trimodal_loss(sp, t, vp, [v], cfg)
        expected = contrastive_loss(sp, t, cfg).value + contrastive_loss(vp, v, cfg).value
        assert combined.value == expected

    def test_duplicate_view_equals_single(self):
        rng = np.random.default_rng(9)
        sp, t, vp, v = (unit_rows(rng, 4, 6) for _ in range(4))
        cfg = LossConfig(0.07)
        assert trimodal_loss(sp, t, vp, [v, v], cfg).value == trimodal_loss(sp, t, vp, [v], cfg).value

    def test_empty_views_rejected(self):
        rng = np.random.default_rng(10)
        sp, t, vp = (unit_rows(rng, 4, 6) for _ in range(3))
        with pytest.raises(ConfigError):
            trimodal_loss(sp, t, vp, [], LossConfig())

    def test_components_logged(self):
        rng = np.random.default_rng(11)
        sp, t, vp, v1, v2 = (unit_rows(rng, 4, 6) for _ in range(5))
        cfg = LossConfig(0.07)
        out = trimodal_loss(sp, t, vp, [v1, v2], cfg)
        assert out.value == out.text_term + out.image_term
        assert out.text_term == contrastive_loss(sp, t, cfg).value

    def test_gradients(self):
        rng = np.random.default_rng(12)
        sp, t, vp, v1, v2 = (unit_rows(rng, 4, 6) for _ in range(5))

        def f(params):
            out = trimodal_loss(params[0], t, params[1], [v1, v2], LossConfig(0.07))
            d_sp, d_vp = out.backward(1.0)
            return float(out.value), [d_sp, d_vp]

        assert nk.finite_diff_check(f, [sp, vp]) < 1e-6

    def test_gradients_equal_two_sided_expression_bitwise(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n, m = int(rng.integers(2, 40)), int(rng.integers(1, 5))
            sp, t, vp = (unit_rows(rng, n, 6) for _ in range(3))
            views = [unit_rows(rng, n, 6) for _ in range(m)]
            d_sp, d_vp = trimodal_loss(sp, t, vp, views, LossConfig(0.07)).backward(1.0)
            assert np.array_equal(d_sp, two_sided_d_fa(sp, t, 0.07))
            want = None
            for v in views:
                d = two_sided_d_fa(vp, v, 0.07)
                want = d if want is None else want + d
            assert np.array_equal(d_vp, want / m)


class TestContrastiveAccuracy:
    def test_identical_batches(self):
        rng = np.random.default_rng(13)
        f = unit_rows(rng, 8, 6)[None]
        assert contrastive_accuracy(f, f) == 1.0

    def test_cyclic_shift_orthonormal(self):
        f = np.eye(5)[None]
        assert contrastive_accuracy(f, np.roll(f, 1, axis=1)) == 0.0

    def test_random_pairs_monte_carlo(self):
        # matched pairs are independent random unit vectors: expect 1/n wins
        hits = []
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            fa, fb = unit_rows(rng, 16, 24), unit_rows(rng, 16, 24)
            hits.append(contrastive_accuracy(fa[None], fb[None]))
        assert abs(float(np.mean(hits)) - 1.0 / 16.0) < 0.01

    def test_ties_count_as_failure(self):
        f = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        assert contrastive_accuracy(f, f) == 0.0

    def test_scaling_invariance(self):
        rng = np.random.default_rng(14)
        fa, fb = unit_rows(rng, 6, 5)[None], unit_rows(rng, 6, 5)[None]
        assert contrastive_accuracy(fa, fb) == contrastive_accuracy(fa * 7.5, fb)

    def test_needs_two_pairs(self):
        for k in (1, 4):
            with pytest.raises(ConfigError):
                contrastive_accuracy(np.ones((k, 1, 3)), np.ones((k, 1, 3)))

    def test_stack_is_mean_of_batch_fractions(self):
        rng = np.random.default_rng(16)
        fa, fb = unit_rows(rng, 5 * 12, 4).reshape(5, 12, 4), unit_rows(rng, 5 * 12, 4).reshape(5, 12, 4)
        per_batch = [contrastive_accuracy(fa[i : i + 1], fb[i : i + 1]) for i in range(5)]
        assert contrastive_accuracy(fa, fb) == float(np.mean(per_batch))
        assert contrastive_accuracy(fa[:1], fb[:1]) == per_batch[0]

    def test_stack_errors(self):
        with pytest.raises(ShapeError):  # one batch pair must be a stack of one
            contrastive_accuracy(np.ones((4, 2)), np.ones((4, 2)))
        with pytest.raises(ShapeError):
            contrastive_accuracy(np.ones((3, 4, 2)), np.ones((2, 4, 2)))
        with pytest.raises(ShapeError):
            contrastive_accuracy(np.ones((3, 4, 2)), np.ones((4, 2)))
        with pytest.raises(ShapeError):
            contrastive_accuracy(np.ones((0, 4, 2)), np.ones((0, 4, 2)))
        bad = np.ones((3, 4, 2))
        bad[2, 1, 0] = np.nan
        with pytest.raises(NumericError):
            contrastive_accuracy(bad, np.ones((3, 4, 2)))

    def test_directions(self):
        # image-to-text: each FA row ranks every FB row
        rng = np.random.default_rng(15)
        fa, fb = unit_rows(rng, 10, 4), unit_rows(rng, 10, 4)
        scores = fa @ fb.T
        expected = np.mean([scores[i, i] > np.delete(scores[i], i).max() for i in range(10)])
        assert contrastive_accuracy(fa[None], fb[None]) == expected
