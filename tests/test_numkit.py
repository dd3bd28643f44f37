import math

import numpy as np
import pytest

from tamm import numkit as nk
from tamm.errors import DegenerateVectorError, NumericError, ShapeError


class TestMatmul:
    def test_identity(self):
        b = np.arange(6.0).reshape(2, 3)
        out = nk.matmul(np.eye(2), b)
        np.testing.assert_array_equal(out.value, b)

    def test_forced_arithmetic(self):
        out = nk.matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]])
        np.testing.assert_array_equal(out.value, [[3.0], [7.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))

        def f(params):
            out = nk.matmul(params[0], params[1])
            da, db = out.backward(w)
            return float(np.sum(w * out.value)), [da, db]

        assert nk.finite_diff_check(f, [a, b]) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            nk.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            nk.matmul(np.ones(3), np.ones((3, 2)))

    def test_backward_shape_check(self):
        out = nk.matmul(np.ones((2, 3)), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            out.backward(np.ones((3, 3)))

    def test_associativity(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a, b, c = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5, 2))
            left = nk.matmul(nk.matmul(a, b).value, c).value
            right = nk.matmul(a, nk.matmul(b, c).value).value
            np.testing.assert_allclose(left, right, atol=1e-9)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            nk.matmul(np.array([[np.nan, 1.0]]), np.ones((2, 1)))


class TestActivations:
    def test_relu_values(self):
        out = nk.relu(np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(out.value, [0.0, 2.0])

    def test_relu_derivative_at_zero_is_zero(self):
        out = nk.relu(np.array([0.0]))
        (grad,) = out.backward(np.array([1.0]))
        assert grad[0] == 0.0

    def test_gelu_zero(self):
        assert nk.gelu(np.array([0.0])).value[0] == 0.0

    def test_gelu_one_against_direct_formula(self):
        # independent evaluation of the tanh approximation at x=1
        expected = 0.5 * 1.0 * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)))
        assert abs(nk.gelu(np.array([1.0])).value[0] - expected) < 1e-15

    @pytest.mark.parametrize("op", [nk.relu, nk.gelu])
    def test_gradients(self, op):
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 1.0, size=(4, 5)) * rng.choice([-1.0, 1.0], size=(4, 5))
        w = rng.normal(size=(4, 5))

        def f(params):
            out = op(params[0])
            (dx,) = out.backward(w)
            return float(np.sum(w * out.value)), [dx]

        assert nk.finite_diff_check(f, [x]) < 1e-6


class TestL2Normalize:
    def test_three_four_five(self):
        out = nk.l2_normalize(np.array([3.0, 4.0]))
        np.testing.assert_allclose(out.value, [0.6, 0.8], atol=1e-15)

    def test_unit_vector_fixed_point(self):
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(nk.l2_normalize(v).value, v, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=8)
        w = rng.normal(size=8)

        def f(params):
            out = nk.l2_normalize(params[0])
            (dx,) = out.backward(w)
            return float(np.sum(w * out.value)), [dx]

        assert nk.finite_diff_check(f, [x]) < 1e-6

    def test_degenerate_vector(self):
        with pytest.raises(DegenerateVectorError):
            nk.l2_normalize(np.zeros(4))

    def test_output_norm_across_scales(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v = rng.normal(size=6) * 10.0 ** rng.integers(-6, 3)
            if np.linalg.norm(v) < 1e-6:
                continue
            norm = np.linalg.norm(nk.l2_normalize(v).value)
            assert abs(norm - 1.0) <= 1e-9

    def test_rowwise(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(7, 4))
        out = nk.l2_normalize(x).value
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(7), atol=1e-12)


class TestLogsumexp:
    def test_single_element_exact(self):
        np.testing.assert_array_equal(nk.logsumexp_rows(np.array([[0.0], [-3.5]])), [0.0, -3.5])

    def test_constant_row(self):
        for k in (2, 5, 17):
            value = nk.logsumexp_rows(np.full((1, k), 1.25))[0]
            assert abs(value - (1.25 + math.log(k))) < 1e-12

    def test_direct_evaluation(self):
        value = nk.logsumexp_rows(np.array([[1.0, 0.0]]))[0]
        assert abs(value - math.log(math.e + 1.0)) < 1e-12

    def test_shift_invariance(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rows = rng.normal(size=(3, 6))
            c = rng.normal(size=(3, 1)) * 5.0
            lhs = nk.logsumexp_rows(rows + c)
            rhs = nk.logsumexp_rows(rows) + c[:, 0]
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


class TestFiniteDiffCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(5, 5))
        q = q + q.T

        def f(params):
            (x,) = params
            return float(x @ q @ x), [2.0 * q @ x]

        assert nk.finite_diff_check(f, [rng.normal(size=5)]) < 1e-9

    def test_constant_function(self):
        def f(params):
            return 3.25, [np.zeros_like(params[0])]

        assert nk.finite_diff_check(f, [np.ones(4)]) == 0.0

    def test_non_finite_rejected(self):
        def f(params):
            return float("nan"), [np.zeros_like(params[0])]

        with pytest.raises(NumericError):
            nk.finite_diff_check(f, [np.ones(2)])

    def test_wrong_gradient_detected(self):
        def f(params):
            (x,) = params
            return float(np.sum(x * x)), [2.0 * x * 1.01]

        assert nk.finite_diff_check(f, [np.arange(1.0, 4.0)]) > 1e-4
