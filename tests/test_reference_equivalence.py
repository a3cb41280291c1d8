"""The fast kernels, flat optimizers and checkpoint writer against the
straightforward versions kept in ``reference_ops``.

Kernel outputs and every gradient must agree to 1e-12 relative to the
largest reference magnitude; the optimizers and the checkpoint writer must
agree bit for bit.
"""

import numpy as np
import pytest

import reference_ops as ref
from creditnet.errors import ShapeError
from creditnet.model import (
    Model,
    ModelConfig,
    ParamStore,
    init_params,
    linear,
    linear_backward,
    multi_head_attention,
    multi_head_attention_backward,
    save_checkpoint,
    transformer_block,
    transformer_block_backward,
)
from creditnet.tensor_ops import (
    Parameter,
    conv1d,
    conv1d_backward,
    layer_norm,
    layer_norm_backward,
    maxpool1d,
    maxpool1d_backward,
    softmax_rows,
    softmax_rows_backward,
)
from creditnet.training import AdamState, adam_step, sgd_step

BATCH_SHAPES = [(), (3,), (2, 3)]  # zero, one and two leading batch axes
TOL = 1e-12


def assert_close(new, want):
    new, want = np.asarray(new), np.asarray(want)
    assert new.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(new - want), initial=0.0) <= TOL * scale


class TestConv1d:
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_outputs_and_gradients(self, batch, stride):
        rng = np.random.default_rng(len(batch) * 10 + stride)
        for _ in range(10):
            c_in, c_out, k = (int(v) for v in rng.integers(1, 5, 3))
            length = k + int(rng.integers(0, 9))
            x = rng.standard_normal((*batch, c_in, length))
            w = rng.standard_normal((c_out, c_in, k))
            b = rng.standard_normal(c_out)
            out, cache = conv1d(x, w, b, stride)
            want, want_cache = ref.conv1d(x, w, b, stride)
            assert_close(out, want)
            g_out = rng.standard_normal(want.shape)
            for got, expected in zip(conv1d_backward(cache, g_out),
                                     ref.conv1d_backward(want_cache, g_out)):
                assert_close(got, expected)

    def test_transposed_input_view(self):
        # the model feeds conv1d a swapaxes view of its tokens
        rng = np.random.default_rng(7)
        tokens = rng.standard_normal((4, 9, 5))
        w, b = rng.standard_normal((6, 5, 3)), rng.standard_normal(6)
        out, _ = conv1d(np.swapaxes(tokens, -1, -2), w, b, 2)
        want, _ = ref.conv1d(np.swapaxes(tokens, -1, -2), w, b, 2)
        assert_close(out, want)


class TestMaxPool:
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    @pytest.mark.parametrize("window, stride", [(3, 2), (4, 1), (2, 2), (3, 3),
                                                (1, 2), (2, 3)])
    def test_outputs_and_gradients_with_ties(self, batch, window, stride):
        rng = np.random.default_rng(window * 7 + stride + len(batch))
        for _ in range(10):
            channels = int(rng.integers(1, 4))
            length = window + int(rng.integers(0, 8))
            # three distinct values: most windows hold tied maxima
            x = rng.integers(0, 3, (*batch, channels, length)).astype(float)
            out, cache = maxpool1d(x, window, stride)
            want, want_cache = ref.maxpool1d(x, window, stride)
            assert np.array_equal(out, want)
            g_out = rng.standard_normal(want.shape)
            assert_close(maxpool1d_backward(cache, g_out),
                         ref.maxpool1d_backward(want_cache, g_out))


class TestMultiHeadAttention:
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_outputs_and_gradients(self, batch, n_heads):
        rng = np.random.default_rng(n_heads * 3 + len(batch))
        for _ in range(5):
            d_model = n_heads * int(rng.integers(1, 4))
            seq = int(rng.integers(1, 6))
            tokens = rng.standard_normal((*batch, seq, d_model))
            weights = [rng.standard_normal((d_model, d_model)) for _ in range(4)]
            out, cache = multi_head_attention(tokens, *weights, n_heads)
            want, want_cache = ref.multi_head_attention(tokens, *weights, n_heads)
            assert_close(out, want)
            g_out = rng.standard_normal(want.shape)
            got = multi_head_attention_backward(cache, g_out)
            expected = ref.multi_head_attention_backward(want_cache, g_out)
            for g, e in zip(got, expected):
                assert_close(g, e)


class TestTransformerBlock:
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("use_ln", [True, False])
    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh"])
    def test_output_and_every_gradient(self, batch, n_heads, use_ln, activation):
        rng = np.random.default_rng([n_heads, len(batch), use_ln, len(activation)])
        for _ in range(3):
            # rows of at least 4 values: layer norm over 1 or 2 values is
            # constant up to eps, and its gradient is then all cancellation
            d_k = -(-4 // n_heads) + int(rng.integers(0, 3))
            d_model = n_heads * d_k
            ffn_dim, seq = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            shapes = {"attn.wq": (d_model, d_model), "attn.wk": (d_model, d_model),
                      "attn.wv": (d_model, d_model), "attn.wo": (d_model, d_model),
                      "ffn.w1": (d_model, ffn_dim), "ffn.b1": (ffn_dim,),
                      "ffn.w2": (ffn_dim, d_model), "ffn.b2": (d_model,)}
            if use_ln:
                shapes.update({f"ln{i}.{key}": (d_model,)
                               for i in (1, 2) for key in ("gain", "shift")})
            weights = {key: rng.standard_normal(shape) for key, shape in shapes.items()}
            tokens = rng.standard_normal((*batch, seq, d_model))
            out, cache = transformer_block(tokens, weights, n_heads, use_ln, activation)
            want, want_cache = ref.transformer_block(tokens, weights, n_heads, use_ln,
                                                     activation)
            assert_close(out, want)
            g_out = rng.standard_normal(want.shape)
            g_tokens, grads = transformer_block_backward(cache, g_out)
            want_g_tokens, want_grads = ref.transformer_block_backward(want_cache, g_out)
            assert_close(g_tokens, want_g_tokens)
            assert sorted(grads) == sorted(want_grads) == sorted(shapes)
            for key in shapes:
                assert_close(grads[key], want_grads[key])


class TestRowOps:
    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_layer_norm(self, batch):
        rng = np.random.default_rng(len(batch))
        for n in (1, 2, 5, 32):
            x = 3.0 + rng.standard_normal((*batch, 4, n))
            gain, shift = rng.standard_normal(n), rng.standard_normal(n)
            out, cache = layer_norm(x, gain, shift)
            want, want_cache = ref.layer_norm(x, gain, shift)
            assert_close(out, want)
            g_out = rng.standard_normal(want.shape)
            for got, expected in zip(layer_norm_backward(cache, g_out),
                                     ref.layer_norm_backward(want_cache, g_out)):
                assert_close(got, expected)

    def test_mis_shaped_upstream_gradient_is_a_shape_error(self):
        """A gradient of another shape than the output is refused, not
        broadcast (layer_norm) or flattened into rows (linear)."""
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 5, 4))
        _, cache = linear(x, rng.standard_normal((4, 3)), np.zeros(3))
        with pytest.raises(ShapeError, match=r"g_out shape \(40, 3\) != output shape "
                                             r"\(8, 5, 3\)"):
            linear_backward(cache, rng.standard_normal((40, 3)))
        _, cache = layer_norm(x, np.ones(4), np.zeros(4))
        with pytest.raises(ShapeError, match=r"g_out shape \(5, 4\) != output shape "
                                             r"\(8, 5, 4\)"):
            layer_norm_backward(cache, rng.standard_normal((5, 4)))

    @pytest.mark.parametrize("batch", BATCH_SHAPES)
    def test_softmax(self, batch):
        rng = np.random.default_rng(10 + len(batch))
        for n in (1, 2, 7):
            x = 5.0 * rng.standard_normal((*batch, 3, n))
            y = softmax_rows(x)
            assert_close(y, ref.softmax_rows(x))
            g_out = rng.standard_normal(x.shape)
            assert_close(softmax_rows_backward(y, g_out), ref.softmax_rows_backward(y, g_out))


def _twin_stores(seed):
    """A model's ParamStore and an identical list of standalone Parameters."""
    store = init_params(ModelConfig(n_features=6, d_embed=4, seed=seed))
    return store, [Parameter(p.name, p.value.copy()) for p in store]


class TestOptimizers:
    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_flat_step_is_bit_identical_to_per_tensor_loop(self, optimizer):
        store, loose = _twin_stores(seed=3)
        rng = np.random.default_rng(4)
        state, ref_state = AdamState(), ref.AdamState()
        for _ in range(100):
            store.zero_grads()
            for p, q in zip(store, loose):
                g = rng.standard_normal(p.value.shape)
                p.grad += g
                q.grad[...] = g
            if optimizer == "sgd":
                sgd_step(store, 0.01)
                ref.sgd_step(loose, 0.01)
            else:
                adam_step(store, 0.01, state)
                ref.adam_step(loose, 0.01, ref_state)
        for p, q in zip(store, loose):
            assert p.value.tobytes() == q.value.tobytes()
        if optimizer == "adam":
            for flat, per_tensor in ((state.m, ref_state.m), (state.v, ref_state.v)):
                assert flat.tobytes() == np.concatenate(
                    [per_tensor[q.name].ravel() for q in loose]).tobytes()

    def test_values_and_grads_are_views_in_manifest_order(self):
        store = ParamStore()
        a = store.add("a", np.arange(6.0).reshape(2, 3))
        b = store.add("b", np.array([7.0, 8.0]))
        assert np.array_equal(store.values, [0, 1, 2, 3, 4, 5, 7, 8])
        store.values += 1.0
        b.grad += 2.0
        assert a.value[1, 2] == 6.0 and b.value[0] == 8.0
        assert np.array_equal(store.grads, [0] * 6 + [2, 2])
        store.zero_grads()
        assert not b.grad.any()


class TestCheckpointBytes:
    def test_flat_writer_matches_per_parameter_writer(self, tmp_path):
        model = Model(ModelConfig(n_features=5, d_embed=4, seed=2))
        model.params.values += np.random.default_rng(0).standard_normal(
            model.params.values.size)
        save_checkpoint(tmp_path / "flat.bin", model, preprocess={"k": 1}, extra={"e": 2})
        ref.save_checkpoint(tmp_path / "loop.bin", model, preprocess={"k": 1}, extra={"e": 2})
        assert (tmp_path / "flat.bin").read_bytes() == (tmp_path / "loop.bin").read_bytes()
