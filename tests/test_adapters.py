import numpy as np
import pytest

from tamm import numkit as nk
from tamm.adapters import AdapterParams, CiaConfig, cia_forward, dual_forward, init_adapter
from tamm.errors import ConfigError, DegenerateVectorError, ShapeError


def unit(v):
    return np.asarray(v, dtype=np.float64) / np.linalg.norm(v)


class TestCia:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(0)
        p = init_adapter(8, 4, 1, "cia")
        f = nk.l2_normalize(rng.normal(size=(5, 8))).value
        out = cia_forward(f, p, CiaConfig(alpha=0.0)).value
        assert np.max(np.abs(out - f)) < 1e-12

    def test_default_alpha(self):
        assert CiaConfig().alpha == 0.2

    def test_two_dim_worked_example(self):
        # A_C(f) = (0, 1) for f = (1, 0): w1 = [[1], [0]], w2 = [[0, 1]]
        p = AdapterParams(np.array([[1.0], [0.0]]), np.array([[0.0, 1.0]]))
        out = cia_forward(np.array([[1.0, 0.0]]), p, CiaConfig(alpha=0.2)).value[0]
        blend = np.array([0.8, 0.2])
        np.testing.assert_allclose(out, blend / np.linalg.norm(blend), atol=1e-12)
        np.testing.assert_allclose(out, [0.97014250014533, 0.24253562503633], atol=1e-11)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(2)
        p = init_adapter(16, 8, 3, "cia")
        f = nk.l2_normalize(rng.normal(size=(9, 16))).value
        out = cia_forward(f, p, CiaConfig()).value
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(9), atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        w1 = rng.normal(size=(8, 6)) * 0.6
        w2 = rng.normal(size=(6, 8)) * 0.6
        x = nk.l2_normalize(rng.normal(size=(3, 8))).value
        w = rng.normal(size=(3, 8))
        cfg = CiaConfig(0.2)

        def f(params):
            out = cia_forward(params[0], AdapterParams(params[1], params[2]), cfg)
            dx, dw1, dw2 = out.backward(w)
            return float(np.sum(w * out.value)), [dx, dw1, dw2]

        assert nk.finite_diff_check(f, [x, w1, w2]) < 1e-6

    def test_alpha_range_validated(self):
        with pytest.raises(ConfigError):
            CiaConfig(alpha=1.5)


class TestDual:
    def test_zero_second_layer_degenerates(self):
        p = AdapterParams(np.ones((4, 3)), np.zeros((3, 4)))
        with pytest.raises(DegenerateVectorError):
            dual_forward(unit([1.0, 2.0, 0.5, -0.3])[None, :], p)

    def test_identity_weights_worked_example(self):
        p = AdapterParams(np.eye(2), np.eye(2))
        f = np.array([[0.6, 0.8]])
        expected = nk.l2_normalize(nk.gelu(f).value).value
        np.testing.assert_allclose(dual_forward(f, p).value, expected, atol=1e-14)

    def test_gradients_spec_sizes(self):
        rng = np.random.default_rng(6)
        p = init_adapter(8, 16, 60, "dual")
        x = nk.l2_normalize(rng.normal(size=(3, 8))).value
        w = rng.normal(size=(3, 8))

        def f(params):
            out = dual_forward(params[0], AdapterParams(params[1], params[2]))
            dx, dw1, dw2 = out.backward(w)
            return float(np.sum(w * out.value)), [dx, dw1, dw2]

        assert nk.finite_diff_check(f, [x, p.w1, p.w2]) < 1e-6

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_input_must_be_a_batch(self, shape):
        p = init_adapter(4, 3, 0, "dual")
        with pytest.raises(ShapeError, match="2-D batch"):
            dual_forward(np.ones(shape), p)

    def test_parameter_isolation(self):
        rng = np.random.default_rng(8)
        f = nk.l2_normalize(rng.normal(size=(6, 8))).value
        iaa = init_adapter(8, 4, 10, "dual")
        taa = init_adapter(8, 4, 11, "dual")
        before = dual_forward(f, iaa).value.copy()
        taa.w1 = taa.w1 + rng.normal(size=taa.w1.shape)
        taa.w2 = taa.w2 + rng.normal(size=taa.w2.shape)
        np.testing.assert_array_equal(dual_forward(f, iaa).value, before)


class TestInit:
    def test_deterministic(self):
        a = init_adapter(8, 4, 42, "dual")
        b = init_adapter(8, 4, 42, "dual")
        np.testing.assert_array_equal(a.w1, b.w1)
        np.testing.assert_array_equal(a.w2, b.w2)

    def test_cia_init_near_identity(self):
        rng = np.random.default_rng(1)
        p = init_adapter(64, 32, 5, "cia")
        f = nk.l2_normalize(rng.normal(size=(20, 64))).value
        out = cia_forward(f, p, CiaConfig(alpha=0.2)).value
        assert np.max(np.linalg.norm(out - f, axis=1)) < 1e-2

    def test_dual_init_unit_output(self):
        rng = np.random.default_rng(2)
        p = init_adapter(16, 8, 6, "dual")
        f = nk.l2_normalize(rng.normal(size=(4, 16))).value
        norms = np.linalg.norm(dual_forward(f, p).value, axis=1)
        np.testing.assert_allclose(norms, np.ones(4), atol=1e-12)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            init_adapter(4, 2, 0, "mlp")

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            AdapterParams(np.ones((4, 3)), np.ones((4, 3)))

    def test_output_width_must_equal_input_width(self):
        # w1 and w2 agree on the hidden width, but the map is 4 -> 5
        with pytest.raises(ShapeError, match="adapter weights disagree"):
            AdapterParams(np.ones((4, 3)), np.ones((3, 5)))
