"""Forward/backward correctness of the tensor primitives."""

import numpy as np
import pytest

from creditnet.errors import ConfigError, DataError, NumericError, ShapeError, StateError
from creditnet.tensor_ops import (
    OpCache,
    Parameter,
    as_f64,
    conv1d,
    conv1d_backward,
    elementwise,
    elementwise_backward,
    gradient_check,
    layer_norm,
    layer_norm_backward,
    maxpool1d,
    maxpool1d_backward,
    sigmoid,
    softmax_rows,
    softmax_rows_backward,
)
from creditnet.model import linear


def matmul_oracle(a, b):
    """Triple-loop summation, the independent reference for a matrix product."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv_oracle(x, w, b, stride):
    """Direct nested-sum cross-correlation."""
    c_in, length = x.shape
    c_out, _, k = w.shape
    l_out = (length - k) // stride + 1
    out = np.zeros((c_out, l_out))
    for o in range(c_out):
        for i in range(l_out):
            acc = b[o]
            for c in range(c_in):
                for t in range(k):
                    acc += x[c, i * stride + t] * w[o, c, t]
            out[o, i] = acc
    return out


def fd_grad(f, x, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


class TestParameter:
    def test_grad_allocated_and_zeroed(self):
        p = Parameter("w", np.arange(6.0).reshape(2, 3))
        assert p.grad.shape == (2, 3)
        assert np.all(p.grad == 0.0)

    def test_grad_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Parameter("w", np.zeros(3), grad=np.zeros(4))


class TestMatmul:
    """``model.linear`` without a bias is the model's matrix product."""

    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(linear(a, np.eye(2))[0], a)

    def test_against_triple_loop_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = matmul_oracle(a, b)
        assert np.array_equal(expected, [[19.0, 22.0], [43.0, 50.0]])
        assert np.allclose(linear(a, b)[0], expected, atol=0.0)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.standard_normal((4, 5))
            b = rng.standard_normal((5, 3))
            assert np.allclose(linear(a, b)[0], matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"input width 3 != weight rows 2"):
            linear(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b, c = (rng.standard_normal((4, 4)) for _ in range(3))
            left = linear(linear(a, b)[0], c)[0]
            right = linear(a, linear(b, c)[0])[0]
            assert np.max(np.abs(left - right)) < 1e-10


class TestConv1d:
    def test_edge_detector_fixture(self):
        out, _ = conv1d(np.array([[1.0, 2, 3, 4]]), np.array([[[1.0, 0, -1]]]),
                        np.array([0.0]), 1)
        expected = conv_oracle(np.array([[1.0, 2, 3, 4]]),
                               np.array([[[1.0, 0, -1]]]), np.array([0.0]), 1)
        assert np.array_equal(expected, [[-2.0, -2.0]])
        assert np.array_equal(out, expected)

    def test_single_tap_identity_kernel(self):
        x = np.random.default_rng(2).standard_normal((3, 7))
        w = np.eye(3)[:, :, None]
        out, _ = conv1d(x, w, np.zeros(3), 1)
        assert np.array_equal(out, x)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(3)
        for stride in (1, 2, 3):
            x = rng.standard_normal((2, 9))
            w = rng.standard_normal((4, 2, 3))
            b = rng.standard_normal(4)
            out, _ = conv1d(x, w, b, stride)
            assert np.allclose(out, conv_oracle(x, w, b, stride), atol=1e-12)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 2, 8))
        w = rng.standard_normal((3, 2, 3))
        b = rng.standard_normal(3)
        out, _ = conv1d(x, w, b, 2)
        for i in range(5):
            single, _ = conv1d(x[i], w, b, 2)
            assert np.allclose(out[i], single, atol=1e-12)

    def test_kernel_longer_than_input(self):
        with pytest.raises(ShapeError):
            conv1d(np.zeros((1, 2)), np.zeros((1, 1, 3)), np.zeros(1), 1)

    def test_bad_stride(self):
        with pytest.raises(ConfigError):
            conv1d(np.zeros((1, 4)), np.zeros((1, 1, 2)), np.zeros(1), 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 8))
        w = rng.standard_normal((3, 2, 3))
        b = rng.standard_normal(3)
        g_up = rng.standard_normal((3, 6))

        def loss_x(xv):
            out, _ = conv1d(xv, w, b, 1)
            return float(np.sum(out * g_up))

        def loss_w(wv):
            out, _ = conv1d(x, wv, b, 1)
            return float(np.sum(out * g_up))

        def loss_b(bv):
            out, _ = conv1d(x, w, bv, 1)
            return float(np.sum(out * g_up))

        out, cache = conv1d(x, w, b, 1)
        g_x, g_w, g_b = conv1d_backward(cache, g_up)
        for g, f, v in ((g_x, loss_x, x), (g_w, loss_w, w), (g_b, loss_b, b)):
            fd = fd_grad(f, v.copy())
            rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
            assert np.max(rel) < 1e-4


class TestBackwardLayout:
    """The model feeds conv1d a swapaxes view of its ``[B, L, d]`` tokens and
    maxpool1d the conv output: each input gradient comes back in its input's
    memory layout, with the bits of a C-ordered input's."""

    def test_conv1d_input_gradient_matches_the_token_layout(self):
        rng = np.random.default_rng(21)
        x = np.swapaxes(rng.standard_normal((3, 9, 4)), -1, -2)
        w, b = rng.standard_normal((5, 4, 3)), rng.standard_normal(5)
        out, cache = conv1d(x, w, b, 2)
        g_up = rng.standard_normal(out.shape)
        g_x = conv1d_backward(cache, g_up)[0]
        assert np.swapaxes(g_x, -1, -2).flags.c_contiguous
        want = conv1d_backward(conv1d(np.ascontiguousarray(x), w, b, 2)[1], g_up)[0]
        assert g_x.tobytes() == want.tobytes()

    def test_maxpool1d_input_gradient_matches_the_input_layout(self):
        rng = np.random.default_rng(22)
        x = np.swapaxes(rng.integers(0, 3, (3, 8, 4)).astype(float), -1, -2)  # ties
        out, cache = maxpool1d(x, 3, 2)
        g_up = rng.standard_normal(out.shape)
        g_x = maxpool1d_backward(cache, g_up)
        assert np.swapaxes(g_x, -1, -2).flags.c_contiguous
        want = maxpool1d_backward(maxpool1d(np.ascontiguousarray(x), 3, 2)[1], g_up)
        assert g_x.tobytes() == want.tobytes()


class TestMaxPool:
    def test_pairs(self):
        out, _ = maxpool1d(np.array([[1.0, 3, 2, 5]]), 2, 2)
        assert np.array_equal(out, [[3.0, 5.0]])

    def test_global_window(self):
        x = np.random.default_rng(5).standard_normal((4, 6))
        out, _ = maxpool1d(x, 6, 1)
        assert np.allclose(out[:, 0], x.max(axis=1))

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            maxpool1d(np.zeros((1, 3)), 4, 1)

    def test_backward_routes_to_single_argmax(self):
        x = np.array([[1.0, 3, 2, 5, 0, 4]])
        out, cache = maxpool1d(x, 2, 2)
        g = maxpool1d_backward(cache, np.array([[1.0, 2.0, 3.0]]))
        assert np.array_equal(g, [[0.0, 1, 0, 2, 0, 3]])

    def test_tie_breaks_to_lowest_index(self):
        x = np.array([[2.0, 2.0, 1.0]])
        out, cache = maxpool1d(x, 3, 1)
        g = maxpool1d_backward(cache, np.array([[1.0]]))
        assert np.array_equal(g, [[1.0, 0.0, 0.0]])

    def test_gradient_mass_conserved(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 10))  # distinct values a.s.
        out, cache = maxpool1d(x, 3, 2)
        g_up = rng.standard_normal(out.shape)
        g = maxpool1d_backward(cache, g_up)
        assert np.isclose(np.sum(np.abs(g)), np.sum(np.abs(g_up)))

    def test_overlapping_windows_accumulate(self):
        x = np.array([[0.0, 5.0, 1.0]])
        out, cache = maxpool1d(x, 2, 1)
        g = maxpool1d_backward(cache, np.array([[1.0, 1.0]]))
        assert np.array_equal(g, [[0.0, 2.0, 0.0]])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 8))
        g_up = rng.standard_normal((2, 3))

        def loss(xv):
            out, _ = maxpool1d(xv, 2, 3)
            return float(np.sum(out * g_up))

        out, cache = maxpool1d(x, 2, 3)
        g = maxpool1d_backward(cache, g_up)
        fd = fd_grad(loss, x.copy())
        rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
        assert np.max(rel) < 1e-4


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_constant_row_uniform(self):
        for c in (-3.0, 0.0, 7.5):
            out = softmax_rows(np.full((1, 4), c))
            assert np.allclose(out, 0.25)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 9)) * 30
        out = softmax_rows(x)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(out >= 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 5))
        shifted = softmax_rows(x + 123.456)
        assert np.max(np.abs(shifted - softmax_rows(x))) < 1e-12

    def test_extreme_values_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        # extended-precision oracle on the shifted values
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        e0 = mp.e ** mp.mpf(0)
        e1 = mp.e ** mp.mpf(-1000)
        expected = [float(e0 / (e0 + e1)), float(e1 / (e0 + e1))]
        assert np.allclose(out[0], expected, atol=1e-15)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 5))
        g_up = rng.standard_normal((3, 5))

        def loss(xv):
            return float(np.sum(softmax_rows(xv) * g_up))

        y = softmax_rows(x)
        g = softmax_rows_backward(y, g_up)
        fd = fd_grad(loss, x.copy())
        rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
        assert np.max(rel) < 1e-4

    def test_empty_rows_are_a_shape_error(self):
        with pytest.raises(ShapeError, match="non-empty last axis"):
            softmax_rows(np.zeros((3, 0)))


class TestElementwise:
    def test_sigmoid_midpoint(self):
        out, _ = elementwise("sigmoid", np.array([0.0]))
        assert out[0] == 0.5

    def test_relu_definition(self):
        out, _ = elementwise("relu", np.array([-3.0, 3.0]))
        assert np.array_equal(out, [0.0, 3.0])

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="^kind must be one of"):
            elementwise("gelu", np.zeros(2))

    def test_sigmoid_extremes_finite(self):
        out, _ = elementwise("sigmoid", np.array([-800.0, 800.0]))
        assert np.all(np.isfinite(out))
        assert out[0] >= 0.0 and out[1] <= 1.0

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_finite_differences(self, kind, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(20) * 2
        if kind == "relu":
            x = x[np.abs(x) > 1e-3]  # stay away from the kink
        g_up = rng.standard_normal(x.shape)

        def loss(xv):
            out, _ = elementwise(kind, xv)
            return float(np.sum(out * g_up))

        out, cache = elementwise(kind, x)
        g = elementwise_backward(cache, g_up)
        fd = fd_grad(loss, x.copy())
        rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
        assert np.max(rel) < 1e-4


class TestLayerNorm:
    def test_constant_row_maps_to_zeros(self):
        out, _ = layer_norm(np.full((2, 4), 3.3), np.ones(4), np.zeros(4))
        assert np.allclose(out, 0.0)

    def test_unit_variance_row(self):
        # mean 0, variance 1 already; eps=1e-5 shrinks by 1/sqrt(1+eps)
        out, _ = layer_norm(np.array([[1.0, -1.0]]), np.ones(2), np.zeros(2), 1e-5)
        expected = np.array([[1.0, -1.0]]) / np.sqrt(1.0 + 1e-5)
        assert np.allclose(out, expected, atol=1e-12)

    def test_gain_shift(self):
        out, _ = layer_norm(np.array([[2.0, 4.0]]), np.array([3.0, 3.0]),
                            np.array([1.0, 1.0]), 1e-12)
        assert np.allclose(out, [[-2.0, 4.0]], atol=1e-6)

    def test_bad_eps(self):
        with pytest.raises(ConfigError):
            layer_norm(np.zeros((1, 2)), np.ones(2), np.zeros(2), 0.0)

    def test_empty_rows_are_a_shape_error(self):
        with pytest.raises(ShapeError, match="non-empty last axis"):
            layer_norm(np.zeros((3, 0)), np.ones(0), np.zeros(0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_backward_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 6))
        gain = rng.standard_normal(6)
        shift = rng.standard_normal(6)
        g_up = rng.standard_normal((3, 6))

        def loss_x(xv):
            out, _ = layer_norm(xv, gain, shift)
            return float(np.sum(out * g_up))

        def loss_gain(gv):
            out, _ = layer_norm(x, gv, shift)
            return float(np.sum(out * g_up))

        def loss_shift(sv):
            out, _ = layer_norm(x, gain, sv)
            return float(np.sum(out * g_up))

        out, cache = layer_norm(x, gain, shift)
        g_x, g_gain, g_shift = layer_norm_backward(cache, g_up)
        for g, f, v in ((g_x, loss_x, x), (g_gain, loss_gain, gain),
                        (g_shift, loss_shift, shift)):
            fd = fd_grad(f, v.copy())
            rel = np.abs(g - fd) / np.maximum(1e-8, np.abs(g) + np.abs(fd))
            assert np.max(rel) < 1e-4


class TestOutArgument:
    """Writing into ``out``, the input array itself included, gives the bits
    of a freshly allocated result."""

    @staticmethod
    def _input_and_grad():
        rng = np.random.default_rng(21)
        return rng.standard_normal((3, 4, 6)), rng.standard_normal((3, 4, 6))

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "tanh"])
    def test_elementwise(self, kind):
        x, g = self._input_and_grad()
        want, cache = elementwise(kind, x)
        buf = x.copy()
        got, buf_cache = elementwise(kind, buf, out=buf)
        assert got is buf and got.tobytes() == want.tobytes()
        want_g = elementwise_backward(cache, g)
        buf = g.copy()
        assert elementwise_backward(buf_cache, buf, out=buf).tobytes() == want_g.tobytes()

    def test_softmax(self):
        x, g = self._input_and_grad()
        want = softmax_rows(x)
        buf = x.copy()
        assert softmax_rows(buf, out=buf).tobytes() == want.tobytes()
        want_g = softmax_rows_backward(want, g)
        buf = g.copy()
        assert softmax_rows_backward(want, buf, out=buf).tobytes() == want_g.tobytes()

    def test_layer_norm(self):
        x, g = self._input_and_grad()
        gain, shift = x[0, 0], g[0, 0]
        want, cache = layer_norm(x, gain, shift)
        buf = x.copy()
        got, buf_cache = layer_norm(buf, gain, shift, out=buf)
        assert got is buf and got.tobytes() == want.tobytes()
        want_grads = layer_norm_backward(cache, g)
        buf = g.copy()
        for got, expected in zip(layer_norm_backward(buf_cache, buf, out=buf), want_grads):
            assert got.tobytes() == expected.tobytes()


class TestAsF64:
    @pytest.mark.parametrize("bad", ["abc", [[1.0, 2.0], [3.0]], [1.0, "a"], {}, object()])
    def test_non_numeric_input_is_a_data_error(self, bad):
        with pytest.raises(DataError, match="input is not a numeric array"):
            as_f64(bad)

    def test_float64_array_passes_uncopied(self):
        x = np.arange(4.0)[::2]
        assert as_f64(x) is x


class TestOpCacheDiscipline:
    def test_mismatched_cache_rejected(self):
        out, cache = maxpool1d(np.array([[1.0, 2.0]]), 2, 1)
        with pytest.raises(StateError):
            conv1d_backward(cache, out)


class TestGradientCheckHarness:
    def test_quadratic_is_exact(self):
        p = Parameter("p", np.array([1.0, -2.0, 3.0]))

        def f():
            p.grad[...] = p.value
            return float(0.5 * np.sum(p.value ** 2))

        assert gradient_check(f, [p], h=1e-5, seed=0) < 1e-9

    def test_detects_corrupted_gradient(self):
        p = Parameter("p", np.array([1.0, -2.0, 3.0]))

        def f():
            p.grad[...] = 1.1 * p.value  # deliberately 10% off
            return float(0.5 * np.sum(p.value ** 2))

        assert gradient_check(f, [p], h=1e-5, seed=0) > 1e-2

    def test_nonfinite_objective_raises(self):
        p = Parameter("p", np.array([1.0]))

        def f():
            return float("nan")

        with pytest.raises(NumericError):
            gradient_check(f, [p])

    def test_nonfinite_analytic_gradient_raises(self):
        p = Parameter("p", np.array([1.0, 2.0]))

        def f():
            p.grad[...] = np.nan
            return float(0.5 * np.sum(p.value ** 2))

        with pytest.raises(NumericError, match="^analytic gradient of 'p' is non-finite$"):
            gradient_check(f, [p])


def test_sigmoid_matches_closed_form():
    x = np.linspace(-30, 30, 101)
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), atol=1e-15)
