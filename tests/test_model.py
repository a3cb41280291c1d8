"""Architecture wiring, initialization, gradients, and checkpoint format."""

import tracemalloc
import weakref

import numpy as np
import pytest

from creditnet.errors import ConfigError, DataError, ShapeError, StateError
from creditnet.model import (
    AttnSpec,
    ConvSpec,
    Model,
    ModelConfig,
    ParamStore,
    Residual,
    attention,
    attention_backward,
    block_layers,
    init_params,
    load_checkpoint,
    multi_head_attention,
    save_checkpoint,
    tokenize,
    tokenize_backward,
    transformer_block,
    transformer_block_backward,
)
from creditnet.tensor_ops import Parameter, gradient_check, layer_norm, softmax_rows
from creditnet.training import TrainConfig, bce_loss, make_optimizer, predict_probs


SMALL = ModelConfig(
    n_features=8, d_embed=6,
    conv=ConvSpec(channels=8, kernel=3, stride=1, pool_window=2, pool_stride=2),
    attn=AttnSpec(n_heads=2, d_model=8, n_blocks=2, layer_norm=True),
    ffn_dim=12, mlp_hidden=(8,), seed=3,
)


class TestModelConfig:
    def test_indivisible_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_features=8, attn=AttnSpec(n_heads=3, d_model=8))

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_features=8, variant="parallel")

    def test_kernel_exceeds_features(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_features=2, conv=ConvSpec(kernel=3))

    def test_pool_exceeds_conv_output(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_features=4, conv=ConvSpec(kernel=3, pool_window=3))

    def test_dict_roundtrip(self):
        again = ModelConfig.from_dict(SMALL.to_dict())
        assert again == SMALL


class TestInitParams:
    def test_deterministic(self):
        a = init_params(SMALL)
        b = init_params(SMALL)
        for pa, pb in zip(a, b):
            assert pa.name == pb.name
            assert np.array_equal(pa.value, pb.value)

    def test_biases_exactly_zero(self):
        store = init_params(SMALL)
        for p in store:
            if p.name.endswith(("bias", ".b1", ".b2", "shift")):
                assert np.all(p.value == 0.0), p.name

    def test_layer_norm_gains_one(self):
        store = init_params(SMALL)
        for p in store:
            if p.name.endswith("gain"):
                assert np.all(p.value == 1.0)

    def test_parameter_count_closed_form(self):
        store = init_params(SMALL)
        embed = 2 * 8 * 6
        conv = 8 * 6 * 3 + 8
        proj = 8 * 8 + 8
        per_block = 4 * 8 * 8 + (8 + 8) + (8 * 12 + 12 + 12 * 8 + 8) + (8 + 8)
        mlp = (8 * 8 + 8) + (8 * 1 + 1)
        assert store.total_parameters() == embed + conv + proj + 2 * per_block + mlp

    def test_cnn_only_has_no_transformer_params(self):
        from dataclasses import replace
        store = init_params(replace(SMALL, variant="cnn_only"))
        assert not any(n.startswith(("block", "proj")) for n in store.names())
        embed = 2 * 8 * 6
        conv = 8 * 6 * 3 + 8
        mlp = (8 * 8 + 8) + (8 * 1 + 1)
        assert store.total_parameters() == embed + conv + mlp

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(2))
        with pytest.raises(ConfigError):
            store.add("w", np.zeros(2))


class TestTokenize:
    def test_zero_row_gives_position_biases(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal((5, 3))
        p = rng.standard_normal((5, 3))
        tokens, _ = tokenize(np.zeros(5), e, p)
        assert np.array_equal(tokens, p)

    def test_identity_configuration(self):
        x = np.array([1.5, -2.0, 0.25])
        tokens, _ = tokenize(x, np.ones((3, 1)), np.zeros((3, 1)))
        assert np.array_equal(tokens[:, 0], x)

    def test_doubling_one_feature_scales_only_its_token(self):
        rng = np.random.default_rng(1)
        e = rng.standard_normal((4, 3))
        p = rng.standard_normal((4, 3))
        x = rng.standard_normal(4)
        x2 = x.copy()
        x2[1] *= 2.0
        t1, _ = tokenize(x, e, p)
        t2, _ = tokenize(x2, e, p)
        assert np.allclose(t2[1] - p[1], 2.0 * (t1[1] - p[1]))
        for t in (0, 2, 3):
            assert np.array_equal(t1[t], t2[t])

    def test_feature_count_mismatch(self):
        with pytest.raises(ShapeError):
            tokenize(np.zeros(4), np.ones((3, 2)), np.zeros((3, 2)))

    def test_scalar_input_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="0-d"):
            tokenize(np.float64(1.0), np.ones((1, 2)), np.zeros((1, 2)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((4, 3))
        p = rng.standard_normal((4, 3))
        x = rng.standard_normal((2, 4))
        g_up = rng.standard_normal((2, 4, 3))
        tokens, cache = tokenize(x, e, p)
        g_x, g_e, g_p = tokenize_backward(cache, g_up)
        h = 1e-6
        for idx in np.ndindex(x.shape):
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fd = (np.sum(tokenize(xp, e, p)[0] * g_up)
                  - np.sum(tokenize(xm, e, p)[0] * g_up)) / (2 * h)
            assert abs(g_x[idx] - fd) < 1e-6


class TestAttention:
    def test_single_token_passthrough(self):
        q = np.array([[1.0, 2.0]])
        k = np.array([[0.5, -1.0]])
        v = np.array([[7.0, 8.0, 9.0]])
        out, _ = attention(q, k, v)
        assert np.allclose(out, v)

    def test_identical_keys_give_column_mean(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((4, 2))
        k = np.tile(rng.standard_normal(2), (4, 1))
        v = rng.standard_normal((4, 3))
        out, _ = attention(q, k, v)
        assert np.allclose(out, np.tile(v.mean(axis=0), (4, 1)))

    def test_two_token_hand_computation(self):
        q = np.array([[1.0], [2.0]])
        k = np.array([[3.0], [4.0]])
        v = np.array([[10.0, 0.0], [0.0, 10.0]])
        out, cache = attention(q, k, v)
        # direct evaluation, d_k = 1 so no scaling
        logits = np.array([[3.0, 4.0], [6.0, 8.0]])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        assert np.max(np.abs(cache.saved["weights"] - w)) < 1e-12
        assert np.max(np.abs(out - w @ v)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            attention(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        q = rng.standard_normal((3, 2))
        k = rng.standard_normal((3, 2))
        v = rng.standard_normal((3, 4))
        g_up = rng.standard_normal((3, 4))
        out, cache = attention(q, k, v)
        g_q, g_k, g_v = attention_backward(cache, g_up)
        h = 1e-6
        for arr, grad in ((q, g_q), (k, g_k), (v, g_v)):
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                fp = float(np.sum(attention(q, k, v)[0] * g_up))
                arr[idx] = orig - h
                fm = float(np.sum(attention(q, k, v)[0] * g_up))
                arr[idx] = orig
                fd = (fp - fm) / (2 * h)
                assert abs(grad[idx] - fd) / max(1e-8, abs(grad[idx]) + abs(fd)) < 1e-4


def random_block_weights(rng, d_model, ffn_dim, layer_norm=True):
    w = {
        "attn.wq": rng.standard_normal((d_model, d_model)) * 0.4,
        "attn.wk": rng.standard_normal((d_model, d_model)) * 0.4,
        "attn.wv": rng.standard_normal((d_model, d_model)) * 0.4,
        "attn.wo": rng.standard_normal((d_model, d_model)) * 0.4,
        "ffn.w1": rng.standard_normal((d_model, ffn_dim)) * 0.4,
        "ffn.b1": rng.standard_normal(ffn_dim) * 0.1,
        "ffn.w2": rng.standard_normal((ffn_dim, d_model)) * 0.4,
        "ffn.b2": rng.standard_normal(d_model) * 0.1,
    }
    if layer_norm:
        w["ln1.gain"] = np.ones(d_model) + 0.1 * rng.standard_normal(d_model)
        w["ln1.shift"] = 0.1 * rng.standard_normal(d_model)
        w["ln2.gain"] = np.ones(d_model) + 0.1 * rng.standard_normal(d_model)
        w["ln2.shift"] = 0.1 * rng.standard_normal(d_model)
    return w


class TestMultiHead:
    def test_one_head_equals_plain_attention(self):
        rng = np.random.default_rng(5)
        tokens = rng.standard_normal((4, 6))
        wq, wk, wv, wo = (rng.standard_normal((6, 6)) for _ in range(4))
        out, _ = multi_head_attention(tokens, wq, wk, wv, wo, n_heads=1)
        direct, _ = attention(tokens @ wq, tokens @ wk, tokens @ wv)
        assert np.allclose(out, direct @ wo, atol=1e-12)

    def test_indivisible_d_model(self):
        rng = np.random.default_rng(6)
        tokens = rng.standard_normal((4, 6))
        w = rng.standard_normal((6, 6))
        with pytest.raises(ConfigError):
            multi_head_attention(tokens, w, w, w, w, n_heads=4)

    def test_non_square_projection_is_a_shape_error(self):
        rng = np.random.default_rng(6)
        tokens = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 4))
        with pytest.raises(ShapeError, match=r"Q/K/V/O must be \[d, d\]"):
            multi_head_attention(tokens, rng.standard_normal((4, 5)), w, w, w, n_heads=2)

    def test_zero_heads_is_a_config_error(self):
        w = np.eye(4)
        with pytest.raises(ConfigError, match="^n_heads must be int >= 1, got 0$"):
            multi_head_attention(np.ones((3, 4)), w, w, w, w, n_heads=0)

    def test_one_dimensional_tokens_are_a_shape_error(self):
        w = np.eye(4)
        with pytest.raises(ShapeError, match=r"\[\.\.\., s, d_model\]"):
            multi_head_attention(np.ones(4), w, w, w, w, n_heads=2)

    def test_wrong_ffn_bias_length_is_a_shape_error(self):
        rng = np.random.default_rng(6)
        weights = random_block_weights(rng, 4, 6)
        weights["ffn.b1"] = np.zeros(5)
        with pytest.raises(ShapeError, match=r"bias shape \(5,\) != weight columns \(6,\)"):
            transformer_block(rng.standard_normal((3, 4)), weights, 2, True)

    def test_zero_output_projection_with_residual_gives_layer_norm(self):
        rng = np.random.default_rng(7)
        tokens = rng.standard_normal((5, 4))
        weights = random_block_weights(rng, 4, 8)
        weights["attn.wo"] = np.zeros((4, 4))
        params = {key: Parameter(key, value) for key, value in weights.items()}
        attention_sublayer = block_layers(params, n_heads=2, use_layer_norm=True,
                                          activation="relu")[0]
        h1, _ = attention_sublayer.forward(tokens)
        expected, _ = layer_norm(tokens, weights["ln1.gain"], weights["ln1.shift"])
        assert np.allclose(h1, expected, atol=1e-12)

    @pytest.mark.parametrize("use_ln", [True, False])
    def test_block_gradient_check(self, use_ln):
        rng = np.random.default_rng(8)
        tokens = rng.standard_normal((3, 4))
        g_up = rng.standard_normal((3, 4))
        weights = random_block_weights(rng, 4, 6, layer_norm=use_ln)
        params = [Parameter(k, v) for k, v in weights.items()]

        def f():
            vals = {p.name: p.value for p in params}
            out, cache = transformer_block(tokens, vals, 2, use_ln, "tanh")
            _, grads = transformer_block_backward(cache, g_up)
            for p in params:
                p.zero_grad()
                p.grad += grads[p.name]
            return float(np.sum(out * g_up))

        assert gradient_check(f, params, h=1e-5, seed=0) < 1e-4



def layer_kinds(layers):
    """The layer classes of ``layers`` by name, a ``Residual`` with its inner list."""
    return [(type(layer).__name__, layer_kinds(layer.inner)) if isinstance(layer, Residual)
            else type(layer).__name__ for layer in layers]


def sublayer_caches(layers, caches):
    """``(layer, cache)`` for every layer of a walk, inner lists included."""
    for layer, cache in zip(layers, caches):
        if isinstance(layer, Residual):
            yield from sublayer_caches(layer.inner, cache[0])
        yield layer, cache


def held_arrays(model, trace):
    """``(attention weights, activation outputs)`` that ``trace`` holds."""
    held = [(type(layer).__name__, cache) for layer, cache
            in sublayer_caches(model.layers, trace.caches)]
    return ([c.saved["att_cache"].saved["weights"] for kind, c in held
             if kind == "MultiHeadAttention"],
            [c.saved["out"] for kind, c in held if kind == "Activation"])


def held_refs(model, trace):
    """Weak references to every array ``held_arrays`` finds."""
    return [weakref.ref(a) for arrays in held_arrays(model, trace) for a in arrays]


class TestBlockLayers:
    FFN = ["Linear", "Activation", "Linear"]
    HEAD = ["MeanPool", "Linear", "Activation", "Linear"]

    @pytest.mark.parametrize("variant", ["hybrid", "transformer_only"])
    @pytest.mark.parametrize("use_ln", [True, False])
    def test_build_emits_each_block_as_sublayers(self, variant, use_ln):
        from dataclasses import replace
        config = replace(SMALL, variant=variant,
                         attn=AttnSpec(n_heads=2, d_model=8, n_blocks=2, layer_norm=use_ln))
        if use_ln:
            block = [("Residual", ["MultiHeadAttention"]), ("Residual", self.FFN)]
        else:
            block = ["MultiHeadAttention", *self.FFN]
        stem = ["Tokenize", "ConvBlock"] if variant == "hybrid" else ["Tokenize"]
        layers = Model(config).layers
        assert layer_kinds(layers) == [*stem, "Linear", *block, *block, *self.HEAD]
        if use_ln:
            residuals = [layer for layer in layers if isinstance(layer, Residual)]
            assert [p.name for r in residuals for p in r.params] == [
                f"block{b}.ln{i}.{key}" for b in (0, 1) for i in (1, 2)
                for key in ("gain", "shift")]

    @pytest.mark.parametrize("use_ln", [True, False])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_wrappers_match_the_model_sublayers_bit_for_bit(self, use_ln, activation):
        from dataclasses import replace
        config = replace(SMALL, variant="transformer_only", activation=activation,
                         attn=AttnSpec(n_heads=2, d_model=8, n_blocks=1, layer_norm=use_ln))
        model = Model(config)
        model.params.values += 0.1 * np.random.default_rng(16).standard_normal(
            model.params.values.size)
        block = model.layers[2:4] if use_ln else model.layers[2:6]
        weights = {p.name.partition(".")[2]: p.value.copy() for p in model.params
                   if p.name.startswith("block0.")}
        rng = np.random.default_rng(17)
        tokens = rng.standard_normal((5, 4, 8))
        g_out = rng.standard_normal((5, 4, 8))

        out, cache = transformer_block(tokens, weights, 2, use_ln, activation)
        g_tokens, grads = transformer_block_backward(cache, g_out)
        h, caches = tokens, []
        for layer in block:
            h, layer_cache = layer.forward(h)
            caches.append(layer_cache)
        model.params.zero_grads()
        g = g_out.copy()
        for layer, layer_cache in zip(reversed(block), reversed(caches)):
            g = layer.backward(layer_cache, g)

        assert np.array_equal(out, h)
        assert np.array_equal(g_tokens, g)
        assert sorted(grads) == sorted(weights)
        for key, grad in grads.items():
            assert np.array_equal(grad, model.params[f"block0.{key}"].grad), key

    @pytest.mark.parametrize("use_ln", [True, False])
    def test_consumed_trace_keeps_attention_weights_and_ffn_activations(self, use_ln):
        from dataclasses import replace
        model = Model(replace(SMALL, attn=AttnSpec(n_heads=2, d_model=8, n_blocks=2,
                                                   layer_norm=use_ln)))
        probs, trace = model.forward(np.random.default_rng(18).standard_normal((6, 8)))
        weights, activations = held_arrays(model, trace)
        assert len(weights) == 2 and len(activations) == 3  # two blocks and the head
        before = [a.copy() for a in weights + activations]
        model.backward(trace, np.ones_like(probs))
        assert trace.used
        for a, b in zip(weights + activations, before):
            assert np.array_equal(a, b)
        for w in weights:
            assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)


class TestForward:
    def test_probs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(9)
        model = Model(SMALL)
        probs, _ = model.forward(rng.standard_normal((32, 8)) * 10)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)
        assert np.all(np.isfinite(probs))

    def test_zero_parameters_give_half(self):
        model = Model(SMALL)
        for p in model.params:
            p.value[...] = 0.0
        probs, _ = model.forward(np.random.default_rng(0).standard_normal((4, 8)))
        assert np.all(probs == 0.5)

    @pytest.mark.parametrize("variant", ["hybrid", "cnn_only", "transformer_only"])
    def test_batch_independence(self, variant):
        from dataclasses import replace
        rng = np.random.default_rng(10)
        model = Model(replace(SMALL, variant=variant))
        X = rng.standard_normal((7, 8))
        batch_probs, _ = model.forward(X)
        for i in range(7):
            single, _ = model.forward(X[i: i + 1])
            assert abs(batch_probs[i] - single[0]) < 1e-12

    def test_feature_mismatch(self):
        model = Model(SMALL)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((4, 5)))

    def test_empty_batch_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="batch has no rows"):
            Model(SMALL).forward(np.zeros((0, 8)))

    @pytest.mark.parametrize("bad", ["abc", [[1.0] * 8, [1.0] * 7]])
    def test_non_numeric_or_ragged_input_is_a_data_error(self, bad):
        with pytest.raises(DataError, match="input is not a numeric array"):
            Model(SMALL).forward(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_data_error(self, bad):
        X = np.zeros((4, 8))
        X[2, 5] = bad
        with pytest.raises(DataError, match="batch contains non-finite values"):
            Model(SMALL).forward(X)

    def test_deterministic_outputs(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 8))
        a, _ = Model(SMALL).forward(X)
        b, _ = Model(SMALL).forward(X)
        assert np.array_equal(a, b)


class TestBackward:
    def test_zero_grad_probs_give_zero_grads(self):
        rng = np.random.default_rng(12)
        model = Model(SMALL)
        probs, trace = model.forward(rng.standard_normal((4, 8)))
        model.params.zero_grads()
        model.backward(trace, np.zeros_like(probs))
        for p in model.params:
            assert np.all(p.grad == 0.0), p.name

    def test_trace_single_use(self):
        rng = np.random.default_rng(13)
        model = Model(SMALL)
        probs, trace = model.forward(rng.standard_normal((4, 8)))
        model.params.zero_grads()
        model.backward(trace, np.ones_like(probs))
        with pytest.raises(StateError):
            model.backward(trace, np.ones_like(probs))

    def test_untraced_forward_has_no_trace_to_run_backward_on(self):
        model = Model(SMALL)
        probs, trace = model.forward(np.random.default_rng(15).standard_normal((4, 8)),
                                     trace=False)
        assert trace is None
        with pytest.raises(StateError, match="forward ran with trace=False"):
            model.backward(trace, np.ones_like(probs))

    @pytest.mark.parametrize("flag", [np.array([1, 0]), "yes", None, 0])
    def test_trace_flags_that_are_not_bools_are_config_errors(self, flag):
        model = Model(SMALL)
        X = np.random.default_rng(16).standard_normal((4, 8))
        with pytest.raises(ConfigError, match="^trace must be bool"):
            model.forward(X, trace=flag)
        probs, trace = model.forward(X)
        with pytest.raises(ConfigError, match="^want_input_grad must be bool"):
            model.backward(trace, np.ones_like(probs), want_input_grad=flag)
        assert not trace.used

    @pytest.mark.parametrize("variant", ["hybrid", "cnn_only", "transformer_only"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_model_gradient_check(self, variant, seed):
        from dataclasses import replace
        cfg = replace(SMALL, variant=variant)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((4, 8))
        y = rng.integers(0, 2, 4)
        model = Model(cfg)

        def f():
            probs, trace = model.forward(X)
            loss, g = bce_loss(probs, y)
            model.params.zero_grads()
            model.backward(trace, g)
            return loss

        assert gradient_check(f, model.params, h=1e-5, seed=seed,
                              max_probes_per_param=4) < 1e-4

    def test_input_gradient_available(self):
        rng = np.random.default_rng(14)
        model = Model(SMALL)
        X = rng.standard_normal((4, 8))
        probs, trace = model.forward(X)
        model.params.zero_grads()
        g_x = model.backward(trace, np.ones_like(probs), want_input_grad=True)
        assert g_x.shape == X.shape
        assert np.any(g_x != 0.0)

    @pytest.mark.parametrize("bad", [np.ones(3), np.ones((4, 1)), "abc"])
    def test_rejected_gradient_leaves_the_trace_for_a_retry(self, bad):
        rng = np.random.default_rng(19)
        X, y = rng.standard_normal((4, 8)), np.array([0, 1, 1, 0])
        fresh = Model(SMALL)
        probs, trace = fresh.forward(X)
        fresh.params.zero_grads()
        fresh.backward(trace, bce_loss(probs, y)[1])

        model = Model(SMALL)
        probs, trace = model.forward(X)
        model.params.zero_grads()
        with pytest.raises(DataError if isinstance(bad, str) else ShapeError):
            model.backward(trace, bad)
        assert not trace.used
        model.backward(trace, bce_loss(probs, y)[1])
        assert model.params.grads.tobytes() == fresh.params.grads.tobytes()

    @pytest.mark.parametrize("variant", ["hybrid", "transformer_only"])
    def test_a_trace_from_another_model_is_a_state_error(self, variant):
        """Another model's trace is refused before it is consumed: a hybrid
        of another seed would take gradients of the maker's activations and
        weights, a transformer_only would fail on mismatched shapes."""
        X = np.random.default_rng(24).standard_normal((4, 10))
        fresh = Model(ModelConfig(n_features=10, seed=0))
        probs, trace = fresh.forward(X)
        fresh.params.zero_grads()
        fresh.backward(trace, np.ones(4))

        maker = Model(ModelConfig(n_features=10, seed=0))
        _, trace = maker.forward(X)
        other = Model(ModelConfig(n_features=10, variant=variant, seed=1))
        _, own = other.forward(X)
        other.backward(own, np.ones(4))
        other.params.zero_grads()
        with pytest.raises(StateError, match="made by another model"):
            other.backward(trace, np.ones(4))
        assert not trace.used
        assert other._spent() is own
        assert not other.params.grads.any()

        maker.params.zero_grads()
        maker.backward(trace, np.ones(4))
        assert maker.params.grads.tobytes() == fresh.params.grads.tobytes()


class TestTraceLifetime:
    """A consumed trace's caches live until the model's next traced forward."""

    def step(self, model, X):
        probs, trace = model.forward(X)
        model.params.zero_grads()
        model.backward(trace, np.ones_like(probs))
        return trace

    def test_next_traced_forward_frees_the_consumed_trace(self):
        model = Model(SMALL)
        X = np.random.default_rng(20).standard_normal((6, 8))
        trace = self.step(model, X)
        refs = held_refs(model, trace)
        assert len(refs) == 5 and all(r() is not None for r in refs)
        model.forward(X)
        assert trace.caches == [None] * len(model.layers)
        assert all(r() is None for r in refs)

    def test_model_holds_no_strong_reference_to_a_consumed_trace(self):
        model = Model(SMALL)
        trace = self.step(model, np.random.default_rng(21).standard_normal((6, 8)))
        refs = [weakref.ref(trace), *held_refs(model, trace)]
        del trace
        assert all(r() is None for r in refs)
        model.forward(np.zeros((2, 8)))  # the dead reference is passed over

    def test_untraced_forwards_and_unconsumed_traces_are_left_intact(self):
        model = Model(SMALL)
        X = np.random.default_rng(22).standard_normal((6, 8))
        consumed = self.step(model, X)
        kept = list(consumed.caches)
        model.forward(X, trace=False)
        predict_probs(model, X)
        assert all(a is b for a, b in zip(consumed.caches, kept))

        model.forward(X)  # frees ``consumed``; its own trace is never consumed
        _, unconsumed = model.forward(X)
        kept = list(unconsumed.caches)
        model.forward(X)
        assert all(a is b for a, b in zip(unconsumed.caches, kept))
        assert all(cache is not None for cache in kept[:-1])  # MeanPool's is an int
        assert all(r() is not None for r in held_refs(model, unconsumed))

    @pytest.mark.parametrize("variant", ["transformer_only", "hybrid"])
    def test_a_training_step_holds_one_trace_not_two(self, variant):
        """tracemalloc's peak over 4 training steps at batch 128, the
        previous step's trace bound as ``_fit`` keeps it, is at most 1.5
        traces; with both traces alive at once it reads about 2."""
        model = Model(ModelConfig(n_features=10, variant=variant))
        rng = np.random.default_rng(23)
        X, y = rng.standard_normal((128, 10)), rng.integers(0, 2, 128)
        step = make_optimizer(TrainConfig())

        def train_step():
            probs, trace = model.forward(X)
            model.params.zero_grads()
            model.backward(trace, bce_loss(probs, y)[1])
            step(model.params)
            return trace

        train_step()  # optimizer state and one-off buffers come first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, trace = model.forward(X)
            one_trace = tracemalloc.get_traced_memory()[0] - base
            del trace
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(4):
                trace = train_step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak / one_trace <= 1.5, (peak, one_trace)


class TestVariantWiring:
    """Hand-set parameters make the hybrid collapse onto its ablations."""

    def test_identity_conv_reduces_hybrid_to_transformer_only(self):
        from dataclasses import replace
        cfg_t = ModelConfig(n_features=6, d_embed=5, variant="transformer_only",
                            attn=AttnSpec(n_heads=2, d_model=8, n_blocks=1),
                            ffn_dim=10, mlp_hidden=(6,), seed=21)
        cfg_h = replace(cfg_t, variant="hybrid",
                        conv=ConvSpec(channels=5, kernel=1, stride=1,
                                      pool_window=1, pool_stride=1))
        t_model = Model(cfg_t)
        h_model = Model(cfg_h)
        for p in t_model.params:
            h_model.params[p.name].value[...] = p.value
        h_model.params["conv.weight"].value[...] = np.eye(5)[:, :, None]
        h_model.params["conv.bias"].value[...] = 0.0

        X = np.random.default_rng(22).standard_normal((5, 6))
        pt, _ = t_model.forward(X)
        ph, _ = h_model.forward(X)
        assert np.max(np.abs(pt - ph)) < 1e-12

    def test_neutered_transformer_reduces_hybrid_toward_cnn_only(self):
        from dataclasses import replace
        # token rows are +-1 patterns: already zero-mean unit-variance, so the
        # residual layer-norm sublayers act as near-identities
        cfg_c = ModelConfig(n_features=6, d_embed=4, variant="cnn_only",
                            conv=ConvSpec(channels=4, kernel=1, stride=1,
                                          pool_window=1, pool_stride=1),
                            mlp_hidden=(6,), seed=23)
        cfg_h = replace(cfg_c, variant="hybrid",
                        attn=AttnSpec(n_heads=2, d_model=4, n_blocks=1,
                                      layer_norm=True), ffn_dim=8)
        c_model = Model(cfg_c)
        h_model = Model(cfg_h)
        pattern = np.array([1.0, -1.0, 1.0, -1.0])
        for m in (c_model, h_model):
            m.params["embed.weight"].value[...] = pattern
            m.params["embed.bias"].value[...] = 0.0
            m.params["conv.weight"].value[...] = np.eye(4)[:, :, None]
            m.params["conv.bias"].value[...] = 0.0
        for name in ("mlp.0.weight", "mlp.0.bias", "mlp.1.weight", "mlp.1.bias"):
            h_model.params[name].value[...] = c_model.params[name].value
        h_model.params["proj.weight"].value[...] = np.eye(4)
        h_model.params["proj.bias"].value[...] = 0.0
        h_model.params["block0.attn.wo"].value[...] = 0.0
        h_model.params["block0.ffn.w2"].value[...] = 0.0
        h_model.params["block0.ffn.b2"].value[...] = 0.0

        X = np.sign(np.random.default_rng(24).standard_normal((8, 6)))
        pc, _ = c_model.forward(X)
        ph, _ = h_model.forward(X)
        assert np.max(np.abs(pc - ph)) < 1e-3


class TestPermutationSensitivity:
    def test_general_model_is_permutation_sensitive(self):
        rng = np.random.default_rng(25)
        cfg = ModelConfig(n_features=8, d_embed=6, variant="transformer_only",
                          attn=AttnSpec(n_heads=2, d_model=8, n_blocks=1),
                          ffn_dim=10, mlp_hidden=(6,), seed=26)
        model = Model(cfg)
        X = rng.standard_normal((4, 8))
        perm = rng.permutation(8)
        a, _ = model.forward(X)
        b, _ = model.forward(X[:, perm])
        assert np.max(np.abs(a - b)) > 1e-6

    def test_equal_embeddings_make_transformer_only_invariant(self):
        rng = np.random.default_rng(27)
        cfg = ModelConfig(n_features=8, d_embed=6, variant="transformer_only",
                          attn=AttnSpec(n_heads=2, d_model=8, n_blocks=2),
                          ffn_dim=10, mlp_hidden=(6,), seed=28)
        model = Model(cfg)
        shared = rng.standard_normal(6)
        model.params["embed.weight"].value[...] = shared
        model.params["embed.bias"].value[...] = 0.0
        X = rng.standard_normal((4, 8))
        perm = rng.permutation(8)
        a, _ = model.forward(X)
        b, _ = model.forward(X[:, perm])
        assert np.max(np.abs(a - b)) < 1e-12


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(29)
        model = Model(SMALL)
        for p in model.params:  # values a fresh init could not reproduce
            p.value += rng.standard_normal(p.value.shape)
        pre = {"impute": {"fill_values": [0.0] * 8, "fitted_on": "train"}}
        path = tmp_path / "model.bin"
        save_checkpoint(path, model, preprocess=pre, extra={"note": "fixture"})
        again, header = load_checkpoint(path)
        assert header["preprocess"] == pre
        assert again.config == SMALL
        X = rng.standard_normal((5, 8))
        a, _ = model.forward(X)
        b, _ = again.forward(X)
        assert np.array_equal(a, b)

    def test_header_is_json_line_then_floats(self, tmp_path):
        import json
        model = Model(SMALL)
        path = tmp_path / "model.bin"
        save_checkpoint(path, model)
        raw = path.read_bytes()
        header_line, payload = raw.split(b"\n", 1)
        header = json.loads(header_line)
        n_floats = sum(int(np.prod(e["shape"])) for e in header["params"])
        assert len(payload) == 8 * n_floats

    def test_missing_file_is_a_config_error_naming_it(self, tmp_path):
        path = tmp_path / "nope.bin"
        with pytest.raises(ConfigError, match=f"cannot read checkpoint {path}"):
            load_checkpoint(path)

    def test_path_none_is_a_config_error_naming_it(self):
        with pytest.raises(ConfigError, match="checkpoint path must be a str or path, got None"):
            load_checkpoint(None)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00\x01\x02 not json\n123")
        with pytest.raises(ConfigError):
            load_checkpoint(path)
