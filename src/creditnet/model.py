"""Hybrid CNN+Transformer default-probability model.

A standardized feature row becomes a sequence of per-feature tokens (learned
embedding vector scaled by the feature value, plus a learned per-feature
bias). The hybrid variant runs that sequence through a 1-D conv + max-pool
block (embedding width as input channels), then through transformer encoder
blocks, mean-pools over the sequence, and finishes with an MLP head and a
sigmoid. Ablation variants drop the transformer (``cnn_only``) or the conv
block (``transformer_only``). The ``logistic`` baseline is one
zero-initialised linear layer under the same sigmoid head.

``build(config)`` adds each layer's parameters as it appends the layer that
reads them; an encoder block is multi-head self-attention and a feed-forward
``Linear``, ``Activation``, ``Linear``, each the inner list of a post-LN
``Residual`` when layer norm is on. ``Model.forward`` walks that list and
``Model.backward`` walks it back. A traced forward (the default) returns the
per-layer cache list in a ``ForwardTrace`` that ``backward`` consumes exactly
once; with ``trace=False``, the one scoring runs, each layer's cache is
dropped as the next layer runs. A consumed trace's caches stay readable until
the model's next traced forward, which frees each of them just before its
layer makes the replacement, so a training step holds one set of activations,
not two. Forwards change nothing else: the parameters and unconsumed traces
are left as they are, and an untraced forward frees no trace at all.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Literal, Optional

import numpy as np

from .errors import ConfigError, DataError, ShapeError, StateError
from .records import (Count, Seed, check_path, checked, config_from_dict, record,
                      record_to_dict)
from .tensor_ops import (
    ACTIVATIONS,
    OpCache,
    Parameter,
    as_f64,
    check_finite,
    conv1d,
    conv1d_backward,
    elementwise,
    elementwise_backward,
    layer_norm,
    layer_norm_backward,
    maxpool1d,
    maxpool1d_backward,
    sigmoid,
    softmax_rows,
    softmax_rows_backward,
)

VARIANTS = ("cnn_only", "transformer_only", "hybrid")  # what ``ablate`` trains, in row order
BASELINE = "logistic"  # the linear floor, outside the ablation
Variant = Literal[(*VARIANTS, BASELINE)]

PROB_CLAMP = 1e-15  # keeps outputs strictly inside (0, 1)
LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@record
class ConvSpec:
    channels: Count = 32
    kernel: Count = 3
    stride: Count = 1
    pool_window: Count = 2
    pool_stride: Count = 2


@record
class AttnSpec:
    n_heads: Count = 4
    d_model: Count = 32
    n_blocks: Count = 2
    layer_norm: bool = True


@record
class ModelConfig:
    n_features: Count
    variant: Variant = "hybrid"
    d_embed: Count = 16
    conv: ConvSpec = field(default_factory=ConvSpec)
    attn: AttnSpec = field(default_factory=AttnSpec)
    ffn_dim: Count = 64
    mlp_hidden: tuple[Count, ...] = (32,)
    activation: Literal[ACTIVATIONS] = "relu"
    seed: Seed = 0

    def __post_init__(self):
        if self.attn.d_model % self.attn.n_heads != 0:
            raise ConfigError(
                f"d_model={self.attn.d_model} not divisible by "
                f"n_heads={self.attn.n_heads}"
            )
        if self.uses_conv():
            if self.conv.kernel > self.n_features:
                raise ConfigError(
                    f"conv kernel {self.conv.kernel} exceeds n_features {self.n_features}"
                )
            l1 = conv_out_len(self.n_features, self.conv.kernel, self.conv.stride)
            if self.conv.pool_window > l1:
                raise ConfigError(
                    f"pool window {self.conv.pool_window} exceeds conv output "
                    f"length {l1}"
                )

    def uses_conv(self) -> bool:
        return self.variant in ("hybrid", "cnn_only")

    def uses_transformer(self) -> bool:
        return self.variant in ("hybrid", "transformer_only")


def conv_out_len(length: int, window: int, stride: int) -> int:
    return (length - window) // stride + 1


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------

class ParamStore:
    """Ordered collection of named Parameters over two flat buffers.

    ``values`` and ``grads`` are contiguous float64 vectors holding every
    parameter in insertion order, which is also the checkpoint manifest
    order; each Parameter's ``value`` and ``grad`` are views into them, so
    whole-store operations (optimizer steps, zeroing, snapshots, checkpoint
    I/O) are single vector operations. ``add`` reallocates both buffers and
    re-points every Parameter, so views taken before an ``add`` go stale.
    """

    def __init__(self):
        self._params: dict[str, Parameter] = {}
        self.values = np.zeros(0)
        self.grads = np.zeros(0)

    def _views(self, offset: int, shape: tuple) -> tuple[np.ndarray, np.ndarray]:
        end = offset + math.prod(shape)
        return (self.values[offset:end].reshape(shape),
                self.grads[offset:end].reshape(shape))

    @checked
    def add(self, name: str, value) -> Parameter:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        value = as_f64(value)
        self.values = np.concatenate((self.values, value.reshape(-1)))
        self.grads = np.concatenate((self.grads, np.zeros(value.size)))
        offset = 0
        for p in self:
            p.value, p.grad = self._views(offset, p.value.shape)
            offset += p.size
        p = Parameter(name, *self._views(offset, value.shape))
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def total_parameters(self) -> int:
        return self.values.size

    def zero_grads(self) -> None:
        self.grads.fill(0.0)

    def snapshot(self) -> np.ndarray:
        return self.values.copy()

    def restore(self, snap: np.ndarray) -> None:
        self.values[...] = snap


# ---------------------------------------------------------------------------
# stateless building blocks
# ---------------------------------------------------------------------------

def tokenize(x: np.ndarray, embed_weight: np.ndarray, embed_bias: np.ndarray):
    """Map feature values to tokens: token_t = x_t * e_t + p_t.

    ``x`` is ``[n_features]`` or ``[B, n_features]``; tokens gain a trailing
    embedding axis.
    """
    e, p = embed_weight, embed_bias
    if x.ndim < 1:
        raise ShapeError("tokenize: x must have a feature axis, got a 0-d array")
    if x.shape[-1] != e.shape[0]:
        raise ShapeError(
            f"row has {x.shape[-1]} features but embeddings cover {e.shape[0]}"
        )
    tokens = x[..., :, None] * e + p
    return tokens, OpCache("tokenize", {"x": x, "e": e})


def tokenize_backward(cache: OpCache, g_tokens: np.ndarray):
    """Returns ``(g_x, g_embed_weight, g_embed_bias)``."""
    saved = cache.expect("tokenize")
    x, e = saved["x"], saved["e"]
    g_x = np.einsum("...td,td->...t", g_tokens, e)
    g_flat = g_tokens.reshape(-1, *e.shape)
    g_e = np.einsum("btd,bt->td", g_flat, x.reshape(-1, e.shape[0]))
    g_p = g_flat.sum(axis=0)
    return g_x, g_e, g_p


def linear(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray] = None):
    """Affine map over the last axis: ``x @ w + b``, as one 2-D GEMM over the
    leading axes flattened into rows."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input width {x.shape[-1]} != weight rows {w.shape[0]}")
    if b is not None and b.shape != w.shape[1:]:
        raise ShapeError(f"linear: bias shape {b.shape} != weight columns ({w.shape[1]},)")
    out = x.reshape(-1, w.shape[0]) @ w
    if b is not None:
        out += b
    return (out.reshape(*x.shape[:-1], w.shape[1]),
            OpCache("linear", {"x": x, "w": w, "has_bias": b is not None}))


def linear_backward(cache: OpCache, g_out: np.ndarray):
    """Returns ``(g_x, g_w, g_b)``; ``g_b`` is None for bias-free layers."""
    saved = cache.expect("linear")
    x, w = saved["x"], saved["w"]
    out_shape = (*x.shape[:-1], w.shape[1])
    if g_out.shape != out_shape:
        raise ShapeError(f"linear_backward: g_out shape {g_out.shape} != output shape "
                         f"{out_shape}")
    g_x = g_out @ w.T
    g_flat = g_out.reshape(-1, w.shape[1])
    g_w = x.reshape(-1, w.shape[0]).T @ g_flat
    g_b = g_flat.sum(axis=0) if saved["has_bias"] else None
    return g_x, g_w, g_b


def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Scaled dot-product attention: softmax(q k^T / sqrt(d_k)) v.

    Core shapes ``q,k: [..., s, d_k]`` and ``v: [..., s, d_v]``. With a head
    axis in front (``[..., h, s, d_v]``), the output is a view of a
    ``[..., s, h, d_v]`` array, so ``_merge_heads`` is a free reshape.
    """
    if q.shape != k.shape or q.shape[:-1] != v.shape[:-1]:
        raise ShapeError(
            f"attention shapes disagree: q{q.shape} k{k.shape} v{v.shape}"
        )
    d_k = q.shape[-1]
    if d_k < 1:
        raise ShapeError("attention requires d_k >= 1")
    scale = 1.0 / np.sqrt(d_k)
    logits = q @ np.swapaxes(k, -1, -2)
    logits *= scale
    weights = softmax_rows(logits, out=logits)
    out = None
    if v.ndim > 2:
        *lead, h, s, d_v = v.shape
        out = np.swapaxes(np.empty((*lead, s, h, d_v)), -2, -3)
    out = np.matmul(weights, v, out=out)
    cache = OpCache("attention",
                    {"q": q, "k": k, "v": v, "weights": weights, "scale": scale})
    return out, cache


def attention_backward(cache: OpCache, g_out: np.ndarray, *, out=None):
    """Returns ``(g_q, g_k, g_v)``, written into ``out`` when it is given as
    three arrays shaped like ``q``, ``k`` and ``v``."""
    saved = cache.expect("attention")
    q, k, v, weights, scale = (saved["q"], saved["k"], saved["v"],
                               saved["weights"], saved["scale"])
    g_q, g_k, g_v = (None, None, None) if out is None else out
    g_v = np.matmul(np.swapaxes(weights, -1, -2), g_out, out=g_v)
    g_weights = g_out @ np.swapaxes(v, -1, -2)
    g_logits = softmax_rows_backward(weights, g_weights, out=g_weights)
    g_q = np.matmul(g_logits, k, out=g_q)
    g_q *= scale
    g_k = np.matmul(np.swapaxes(g_logits, -1, -2), q, out=g_k)
    g_k *= scale
    return g_q, g_k, g_v


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    # [..., s, d_model] -> [..., h, s, d_k]
    d_k = x.shape[-1] // n_heads
    x = x.reshape(*x.shape[:-1], n_heads, d_k)
    return np.swapaxes(x, -2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    # [..., h, s, d_k] -> [..., s, h*d_k]
    x = np.swapaxes(x, -2, -3)
    return x.reshape(*x.shape[:-2], -1)


def _qkv_views(qkv: np.ndarray) -> tuple:
    # [..., s, 3, h, d_k] -> q, k and v as [..., h, s, d_k] views
    return tuple(np.swapaxes(qkv[..., i, :, :], -2, -3) for i in range(3))


@checked
def multi_head_attention(tokens: np.ndarray, wq, wk, wv, wo, n_heads: Count):
    """Self-attention with ``n_heads`` parallel heads, concatenated and
    recombined by the output projection ``wo``. Projections are bias-free;
    Q, K and V are views of one ``linear`` over ``[wq | wk | wv]``."""
    if tokens.ndim < 2:
        raise ShapeError(f"multi_head_attention: tokens must be [..., s, d_model], "
                         f"got {tokens.shape}")
    d_model = tokens.shape[-1]
    if d_model % n_heads != 0:
        raise ConfigError(f"d_model={d_model} not divisible by n_heads={n_heads}")
    for name, w in zip("QKVO", (wq, wk, wv, wo)):
        if w.shape != (d_model, d_model):
            raise ShapeError(f"multi_head_attention: Q/K/V/O must be [d, d] = "
                             f"{[d_model, d_model]}, {name} is {list(w.shape)}")
    qkv, qkv_cache = linear(tokens, np.concatenate((wq, wk, wv), axis=1))
    qkv = qkv.reshape(*tokens.shape[:-1], 3, n_heads, d_model // n_heads)
    att_out, att_cache = attention(*_qkv_views(qkv))
    out, o_cache = linear(_merge_heads(att_out), wo)
    cache = OpCache("multi_head", {
        "qkv_cache": qkv_cache, "att_cache": att_cache, "o_cache": o_cache,
        "n_heads": n_heads,
    })
    return out, cache


def multi_head_attention_backward(cache: OpCache, g_out: np.ndarray):
    """Returns ``(g_tokens, g_wq, g_wk, g_wv, g_wo)``."""
    saved = cache.expect("multi_head")
    n_heads = saved["n_heads"]
    g_concat, g_wo, _ = linear_backward(saved["o_cache"], g_out)
    d_model = g_concat.shape[-1]
    # g_q, g_k and g_v are written straight into the row layout of qkv
    g_qkv = np.empty((*g_concat.shape[:-1], 3, n_heads, d_model // n_heads))
    attention_backward(saved["att_cache"], _split_heads(g_concat, n_heads),
                       out=_qkv_views(g_qkv))
    g_tokens, g_w, _ = linear_backward(
        saved["qkv_cache"], g_qkv.reshape(*g_concat.shape[:-1], 3 * d_model))
    return (g_tokens, *np.split(g_w, 3, axis=1), g_wo)


# ---------------------------------------------------------------------------
# layers: what forward walks and backward walks back
# ---------------------------------------------------------------------------
# Each layer has ``forward(x) -> (y, cache)`` and ``backward(cache, g) -> g_x``,
# which adds its parameters' gradients into their grads. Layers hold
# Parameters, not arrays (``ParamStore.add`` re-points the views), and look the
# ops up in this module's globals as they run, so a wrapper bound there later
# sees every call. Up to the mean-pool, x is [..., s, width]. ``Activation``
# and ``Residual`` work in place on the fresh output of the ``Linear`` (inner
# list) before them, and on the gradient the walk hands them, held by nothing else.

def _walk(layers: list, x, spent: Optional[list] = None):
    """Run ``layers`` on ``x``; returns the output and the layers' caches.
    Each of the ``spent`` caches of an earlier walk is set to None just
    before its layer runs, so it is freed before its replacement is made."""
    caches = []
    for i, layer in enumerate(layers):
        if spent is not None:
            spent[i] = None
        x, cache = layer.forward(x)
        caches.append(cache)
    return x, caches


def _walk_back(layers: list, caches: list, g):
    """Run ``layers`` back from the output gradient ``g`` to the input's."""
    for layer, cache in zip(reversed(layers), reversed(caches)):
        g = layer.backward(cache, g)
    return g


class _Layer:
    """A layer over the Parameters it reads, in order; keyword settings are attributes."""

    def __init__(self, *params: Parameter, **settings):
        self.params = params
        vars(self).update(settings)

    def _values(self) -> list:
        return [p.value for p in self.params]

    def _accumulate(self, g_x, *grads):
        for p, g in zip(self.params, grads):
            p.grad += g
        return g_x


class Tokenize(_Layer):
    def forward(self, x):
        return tokenize(x, *self._values())

    def backward(self, cache, g):
        return self._accumulate(*tokenize_backward(cache, g))


class Linear(_Layer):
    def forward(self, x):
        return linear(x, *self._values())

    def backward(self, cache, g):
        return self._accumulate(*linear_backward(cache, g))


class ConvBlock(_Layer):
    """``conv1d`` along the token axis, embedding width as channels, then ``maxpool1d``."""

    def forward(self, x):
        z, conv_cache = conv1d(np.swapaxes(x, -1, -2), *self._values(), self.spec.stride)
        p, pool_cache = maxpool1d(z, self.spec.pool_window, self.spec.pool_stride)
        return np.swapaxes(p, -1, -2), (conv_cache, pool_cache)

    def backward(self, cache, g):
        conv_cache, pool_cache = cache
        g_z = maxpool1d_backward(pool_cache, np.swapaxes(g, -1, -2))
        return np.swapaxes(self._accumulate(*conv1d_backward(conv_cache, g_z)), -1, -2)


class MultiHeadAttention(_Layer):
    """Self-attention with ``n_heads`` heads over ``wq``, ``wk``, ``wv`` and ``wo``."""

    def forward(self, x):
        return multi_head_attention(x, *self._values(), self.n_heads)

    def backward(self, cache, g):
        return self._accumulate(*multi_head_attention_backward(cache, g))


class Residual(_Layer):
    """The post-LN sublayer ``layer_norm(x + inner(x))`` over a gain and a
    shift, walking its ``inner`` layer list forward and back."""

    def forward(self, x):
        y, caches = _walk(self.inner, x)
        y += x
        y, ln_cache = layer_norm(y, *self._values(), LN_EPS, out=y)
        return y, (caches, ln_cache)

    def backward(self, cache, g):
        caches, ln_cache = cache
        g_y = self._accumulate(*layer_norm_backward(ln_cache, g, out=g))
        g_x = _walk_back(self.inner, caches, g_y)
        g_x += g_y
        return g_x


class MeanPool:
    """Mean over the token axis: [..., s, width] -> [..., width]."""

    def forward(self, x):
        return np.mean(x, axis=-2), x.shape[-2]

    def backward(self, s, g):
        return np.repeat(g[..., None, :] / s, s, axis=-2)


class Activation(_Layer):
    """The nonlinearity ``kind``."""

    def forward(self, x):
        return elementwise(self.kind, x, out=x)

    def backward(self, cache, g):
        return elementwise_backward(cache, g, out=g)


@checked
def build(config: ModelConfig) -> tuple[ParamStore, list]:
    """The parameters of ``config`` and the layer list that reads them.

    Glorot-uniform weights drawn from ``config.seed``, zero biases and unit
    layer-norm gains, added in manifest order as the config is walked once:
    a variant allocates only what its layers read, and identical configs
    give bit-identical stores. The logistic baseline is one ``Linear`` with
    zero weights, so its seed is unused.
    """
    rng = np.random.default_rng(config.seed)
    store = ParamStore()
    cv, at = config.conv, config.attn

    def weight(name, fan_in, fan_out, shape=None):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return store.add(name, rng.uniform(-bound, bound, size=shape or (fan_in, fan_out)))

    def zeros(name, shape):
        return store.add(name, np.zeros(shape))

    if config.variant == BASELINE:
        return store, [Linear(zeros("linear.weight", (config.n_features, 1)),
                              zeros("linear.bias", 1))]

    def linear_layer(name, w_in, w_out):
        return Linear(weight(f"{name}.weight", w_in, w_out), zeros(f"{name}.bias", w_out))

    def norm(name):  # a block's layer-norm gain and shift, when it has them
        return [store.add(f"{name}.gain", np.ones(at.d_model)),
                zeros(f"{name}.shift", at.d_model)] if at.layer_norm else []

    width = config.d_embed
    layers = [Tokenize(weight("embed.weight", 1, width, (config.n_features, width)),
                       zeros("embed.bias", (config.n_features, width)))]
    if config.uses_conv():
        k, c = cv.kernel, cv.channels
        layers.append(ConvBlock(weight("conv.weight", width * k, c * k, (c, width, k)),
                                zeros("conv.bias", c), spec=cv))
        width = c
    if config.uses_transformer():
        d, f = at.d_model, config.ffn_dim
        layers.append(linear_layer("proj", width, d))
        width = d
        for b in range(at.n_blocks):
            pre = f"block{b}"
            params = [weight(f"{pre}.attn.{w}", d, d) for w in ("wq", "wk", "wv", "wo")]
            params += norm(f"{pre}.ln1")
            params += [weight(f"{pre}.ffn.w1", d, f), zeros(f"{pre}.ffn.b1", f),
                       weight(f"{pre}.ffn.w2", f, d), zeros(f"{pre}.ffn.b2", d)]
            params += norm(f"{pre}.ln2")
            layers += block_layers({p.name.partition(".")[2]: p for p in params},
                                   at.n_heads, at.layer_norm, config.activation)
    layers.append(MeanPool())
    widths = [width, *config.mlp_hidden, 1]
    for i, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
        if i:
            layers.append(Activation(kind=config.activation))
        layers.append(linear_layer(f"mlp.{i}", w_in, w_out))
    return store, layers


def block_layers(p: dict, n_heads: int, use_layer_norm: bool, activation: str) -> list:
    """One encoder block's layers over its Parameters ``p``, keyed by their
    names within the block (``attn.wq``, ``ln1.gain``, ``ffn.w1``, ...):
    multi-head attention, then the feed-forward ``Linear``, ``Activation``,
    ``Linear``. With layer norm each of the two is a ``Residual``'s inner
    list; without it the four layers chain bare."""
    attn = [MultiHeadAttention(p["attn.wq"], p["attn.wk"], p["attn.wv"], p["attn.wo"],
                               n_heads=n_heads)]
    ffn = [Linear(p["ffn.w1"], p["ffn.b1"]), Activation(kind=activation),
           Linear(p["ffn.w2"], p["ffn.b2"])]
    if not use_layer_norm:
        return attn + ffn
    return [Residual(p["ln1.gain"], p["ln1.shift"], inner=attn),
            Residual(p["ln2.gain"], p["ln2.shift"], inner=ffn)]


def transformer_block(tokens: np.ndarray, weights: dict, n_heads: int,
                      use_layer_norm: bool, activation: str = "relu"):
    """``block_layers`` run over Parameters made from ``weights``, keyed like them."""
    params = {key: Parameter(key, value) for key, value in weights.items()}
    layers = block_layers(params, n_heads, use_layer_norm, activation)
    out, caches = _walk(layers, tokens)
    return out, OpCache("transformer_block",
                        {"params": params, "layers": layers, "caches": caches})


def transformer_block_backward(cache: OpCache, g_out: np.ndarray):
    """Returns ``(g_tokens, grads)``, ``grads`` keyed like the weights; ``g_out`` is kept."""
    saved = cache.expect("transformer_block")
    for p in saved["params"].values():
        p.grad = np.zeros_like(p.value)
    g_tokens = _walk_back(saved["layers"], saved["caches"], g_out.copy())
    return g_tokens, {key: p.grad for key, p in saved["params"].items()}


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """The per-layer cache list of one forward pass of ``model``; consumed at
    most once, by that model's ``backward``.

    Once ``Model.backward`` has consumed it, the caches stay readable until
    that model's next traced forward, which sets each to None just before
    its layer runs again.
    """

    probs: np.ndarray
    caches: list
    model: Model
    used: bool = False


def check_batch(batch, n_features: int) -> np.ndarray:
    """``batch`` as a float64 ``[B >= 1, n_features]`` array of finite values;
    a wrong shape is a ``ShapeError``, a NaN or inf a ``DataError``."""
    batch = as_f64(batch)
    if batch.ndim != 2:
        raise ShapeError(f"batch must be 2-D [B, n_features], got {batch.shape}")
    if batch.shape[1] != n_features:
        raise ShapeError(f"batch has {batch.shape[1]} features, model expects {n_features}")
    if batch.shape[0] == 0:
        raise ShapeError("batch has no rows")
    if not np.isfinite(batch).all():
        raise DataError("batch contains non-finite values")
    return batch


class Model:
    """Config, parameters, and the layer list that forward and backward walk."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.params, self.layers = build(config)
        # the trace the last completed backward consumed; weak, so that a
        # fitted model does not keep its last step's activations alive
        self._spent = None

    @checked
    def forward(self, batch, *, trace: bool = True):
        """Default probabilities for a ``[B, n_features]`` batch.

        Returns ``(probs, trace)`` where ``probs`` is ``[B]`` with every
        value strictly inside (0, 1) and ``trace`` is the ``ForwardTrace``
        that ``backward`` needs. With ``trace=False`` no layer cache is kept,
        so each layer's intermediates are freed as the forward moves on, and
        ``trace`` is None; the probabilities are the same bits. A traced
        forward frees the caches of the trace the last backward consumed,
        each just before its layer allocates the replacement.
        """
        h = check_batch(batch, self.config.n_features)
        if trace:
            spent = self._spent() if self._spent else None
            self._spent = None
            h, caches = _walk(self.layers, h, None if spent is None else spent.caches)
        else:
            for layer in self.layers:
                h = layer.forward(h)[0]  # its cache is freed at once
        probs = np.clip(sigmoid(h[..., 0]), PROB_CLAMP, 1.0 - PROB_CLAMP)
        check_finite(probs, "model probabilities")
        return probs, (ForwardTrace(probs, caches, self) if trace else None)

    @checked
    def backward(self, trace: Optional[ForwardTrace], grad_probs):
        """Accumulate d(loss)/d(param) into every parameter's grad and return
        d(loss)/d(batch), shape ``[B, n_features]``.

        ``grad_probs`` is d(loss)/d(probs), shape ``[B]``. Call
        ``params.zero_grads()`` first unless accumulation across batches is
        intended. A ``grad_probs`` it rejects, or a trace another model made,
        leaves the trace unconsumed, for a retry.
        """
        if trace is None:
            raise StateError("no ForwardTrace to run backward on: the forward ran "
                             "with trace=False")
        if trace.model is not self:
            raise StateError("ForwardTrace was made by another model's forward")
        if trace.used:
            raise StateError("ForwardTrace already consumed by a backward pass")
        grad_probs = as_f64(grad_probs)
        if grad_probs.shape != trace.probs.shape:
            raise ShapeError(
                f"grad_probs shape {grad_probs.shape} != probs shape {trace.probs.shape}"
            )
        trace.used = True
        # sigmoid head (clamp is flat outside the open interval, but the
        # clamp bounds are unreachable for any finite logit that matters)
        g = (grad_probs * trace.probs * (1.0 - trace.probs))[..., None]
        g = _walk_back(self.layers, trace.caches, g)
        self._spent = weakref.ref(trace)
        return g


# ---------------------------------------------------------------------------
# checkpoints: JSON header line + little-endian float64 payload
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "creditnet-checkpoint"


@record
class ParamEntry:
    name: str
    shape: tuple[int, ...]


@record
class CheckpointHeader:
    format: str
    version: int
    config: ModelConfig
    params: tuple[ParamEntry, ...]
    preprocess: object = None  # any JSON value; PreprocessStats.from_dict reads it
    extra: dict = field(default_factory=dict)  # the caller's own keys


@checked
def save_checkpoint(path, model: Model, preprocess: Optional[dict] = None,
                    extra: Optional[dict] = None) -> None:
    """Write the model's ``CheckpointHeader`` as one JSON line, then all
    parameter values as raw little-endian float64 in its ``params`` order.
    A header that JSON cannot hold, or a file that cannot be written, is a
    ``ConfigError``."""
    check_path(path, "checkpoint")
    params = tuple(ParamEntry(p.name, p.value.shape) for p in model.params)
    header = CheckpointHeader(CHECKPOINT_MAGIC, 1, model.config, params, preprocess,
                              {} if extra is None else extra)
    try:
        line = json.dumps(record_to_dict(header), sort_keys=True).encode("utf-8")
    except (TypeError, ValueError) as exc:  # an object or circular value in preprocess/extra
        raise ConfigError(f"checkpoint header is not JSON: {exc}") from None
    try:
        with open(path, "wb") as fh:
            fh.write(line)
            fh.write(b"\n")
            fh.write(model.params.values.astype("<f8", copy=False).tobytes())
    except OSError as exc:
        raise ConfigError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from None


def load_checkpoint(path) -> tuple[Model, dict]:
    """Read a checkpoint back into a Model; returns ``(model, header)``, the
    header as the dict form of its ``CheckpointHeader``.

    The header must be an object of this format and version 1 that reads as a
    ``CheckpointHeader`` and lists exactly the parameters, in order and shape,
    that its config builds, and the payload must hold exactly their values,
    all finite; anything else is a ``ConfigError``.
    """
    check_path(path, "checkpoint")
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"not a checkpoint file: {path}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise ConfigError(f"unrecognized checkpoint format in {path}")
    if header.get("version") != 1:
        raise ConfigError(f"unsupported checkpoint version {header.get('version')!r} in {path}")
    header = config_from_dict(CheckpointHeader, header)
    model = Model(header.config)
    store = model.params
    found = [(e.name, list(e.shape)) for e in header.params]
    expected = [(p.name, list(p.value.shape)) for p in store]
    for got, want in zip_longest(found, expected):
        if got != want:
            raise ConfigError(f"checkpoint {path} lists parameter {got} where its "
                              f"config expects {want}")
    n_bytes = 8 * store.total_parameters()
    if len(payload) != n_bytes:
        raise ConfigError(f"checkpoint {path} payload is {len(payload)} bytes, "
                          f"expected {n_bytes}")
    store.values[...] = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(store.values).all():
        bad = next(p.name for p in store if not np.isfinite(p.value).all())
        raise ConfigError(f"checkpoint {path} parameter {bad!r} holds a non-finite value")
    return model, record_to_dict(header)
