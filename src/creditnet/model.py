"""Hybrid CNN+Transformer default-probability model.

A standardized feature row becomes a sequence of per-feature tokens (learned
embedding vector scaled by the feature value, plus a learned per-feature
bias). The hybrid variant runs that sequence through a 1-D conv + max-pool
block (embedding width as input channels), then through transformer encoder
blocks (multi-head self-attention + position-wise feed-forward, residual and
layer-norm gated by a flag), mean-pools over the sequence, and finishes with
an MLP head and a sigmoid. Ablation variants drop the transformer
(``cnn_only``) or the conv block (``transformer_only``). The ``logistic``
baseline is one zero-initialised linear layer under the same sigmoid head.

``build(config)`` adds each layer's parameters as it appends the layer that
reads them; ``Model.forward`` walks that list and ``Model.backward`` walks it
back. Forward passes are pure. A traced forward (the default) returns the
per-layer cache list in a ``ForwardTrace`` that ``backward`` consumes exactly
once; with ``trace=False``, the one scoring runs, each layer's cache is
dropped as the next layer runs.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from itertools import zip_longest
from numbers import Integral
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, DataError, ShapeError, StateError
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

VARIANTS = ("hybrid", "cnn_only", "transformer_only")  # what ``ablate`` trains
BASELINE = "logistic"  # the linear floor, outside the ablation

PROB_CLAMP = 1e-15  # keeps outputs strictly inside (0, 1)
LN_EPS = 1e-5


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def record_to_dict(record):
    """A record dataclass's JSON form: one key per field, nested records as
    their own dicts, dicts as dicts, tuples and lists as lists and arrays as
    (nested) lists, recursively. ``config_from_dict`` reads it back."""
    if is_dataclass(record):
        return {f.name: record_to_dict(getattr(record, f.name)) for f in fields(record)}
    if isinstance(record, dict):
        return {k: record_to_dict(v) for k, v in record.items()}
    if isinstance(record, (tuple, list)):
        return [record_to_dict(v) for v in record]
    return record.tolist() if isinstance(record, np.ndarray) else record


def _from_json(hint, value):
    """``value`` as decoded from JSON, read for a field typed ``hint`` (or
    ``Optional[hint]``): an object (a list's items) becomes the record (tuple of
    records) it names, a list of numbers a float64 array; else it is unchanged."""
    for h in get_args(hint) if get_origin(hint) is Union else (hint,):
        if is_dataclass(h) and isinstance(value, dict):
            return config_from_dict(h, value)
        if get_origin(h) is tuple and is_dataclass(get_args(h)[0]) and isinstance(value, list):
            return tuple(config_from_dict(get_args(h)[0], v) for v in value)
        if h is np.ndarray and isinstance(value, list) and all(_fits(float, v) for v in value):
            try:
                return np.array(value, dtype=np.float64)
            except OverflowError:  # an integer beyond float64's range
                return value
    return value


def config_from_dict(cls, d: dict):
    """The ``cls`` record dataclass that ``record_to_dict`` wrote as ``d``.

    ``d`` must be an object holding every field without a default and no
    other key. Nested records are read from their dicts and array fields from
    lists of numbers; then every value must fit its field's type hint. Each
    fault is a ``ConfigError`` naming ``cls``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__} must be a JSON object, got {d!r}")
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} key(s) {unknown}; allowed: {', '.join(names)}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"missing {cls.__name__} key(s) {missing}")
    hints = get_type_hints(cls)
    d = {key: _from_json(hints[key], value) for key, value in d.items()}
    check_types(cls.__name__, d, hints)
    return cls(**d)


def read_json_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``; a file that cannot be
    read, is not JSON or holds another value is a ``ConfigError`` naming it
    as ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise ConfigError(f"{what} {path} must contain a JSON object")
    return d


@dataclass(frozen=True)
class ConvSpec:
    channels: int = 32
    kernel: int = 3
    stride: int = 1
    pool_window: int = 2
    pool_stride: int = 2


@dataclass(frozen=True)
class AttnSpec:
    n_heads: int = 4
    d_model: int = 32
    n_blocks: int = 2
    layer_norm: bool = True


@dataclass(frozen=True)
class ModelConfig:
    n_features: int
    variant: str = "hybrid"
    d_embed: int = 16
    conv: ConvSpec = field(default_factory=ConvSpec)
    attn: AttnSpec = field(default_factory=AttnSpec)
    ffn_dim: int = 64
    mlp_hidden: tuple[int, ...] = (32,)
    activation: str = "relu"
    seed: int = 0

    to_dict = record_to_dict
    from_dict = classmethod(config_from_dict)

    def __post_init__(self):
        object.__setattr__(self, "mlp_hidden", tuple(self.mlp_hidden))
        self.validate()

    def validate(self) -> None:
        if self.variant not in (*VARIANTS, BASELINE):
            raise ConfigError(f"unknown variant {self.variant!r}; "
                              f"expected {(*VARIANTS, BASELINE)}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        dims = {
            "n_features": self.n_features,
            "d_embed": self.d_embed,
            "ffn_dim": self.ffn_dim,
            "conv.channels": self.conv.channels,
            "conv.kernel": self.conv.kernel,
            "conv.stride": self.conv.stride,
            "conv.pool_window": self.conv.pool_window,
            "conv.pool_stride": self.conv.pool_stride,
            "attn.n_heads": self.attn.n_heads,
            "attn.d_model": self.attn.d_model,
            "attn.n_blocks": self.attn.n_blocks,
            **{f"mlp_hidden[{i}]": w for i, w in enumerate(self.mlp_hidden)},
        }
        for name, value in dims.items():
            if int(value) < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.seed < 0:
            raise ConfigError(f"model seed must be >= 0, got {self.seed}")
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

    def sequence_length(self) -> int:
        """Token count entering the post-conv stage."""
        if not self.uses_conv():
            return self.n_features
        l1 = conv_out_len(self.n_features, self.conv.kernel, self.conv.stride)
        return conv_out_len(l1, self.conv.pool_window, self.conv.pool_stride)


def is_integer(value) -> bool:
    """Whether a config value or library argument is an integer, not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _fits(hint, value) -> bool:
    """Whether a JSON-decoded ``value`` fits a config field's type hint."""
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return is_integer(value)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_fits(a, value) for a in args)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        items = args[:1] * len(value) if args[-1] is Ellipsis else args
        return len(items) == len(value) and all(map(_fits, items, value))
    return isinstance(value, hint)


def check_types(what: str, d: dict, hints: dict) -> None:
    """Raise ``ConfigError`` naming the first key of ``d`` whose value does not
    fit its type hint in ``hints``."""
    for key, value in d.items():
        hint = hints[key]
        if not _fits(hint, value):
            # "Optional[creditnet.training.EarlyStop]" -> "Optional[EarlyStop]"
            expected = re.sub(r"\w+\.", "", str(hint)) if get_origin(hint) else hint.__name__
            raise ConfigError(f"{what} key {key!r} must be {expected}, got {value!r}")


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

    def add(self, name: str, value: np.ndarray) -> Parameter:
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


def multi_head_attention(tokens: np.ndarray, wq, wk, wv, wo, n_heads: int):
    """Self-attention with ``n_heads`` parallel heads, concatenated and
    recombined by the output projection ``wo``. Projections are bias-free;
    Q, K and V are views of one ``linear`` over ``[wq | wk | wv]``."""
    if tokens.ndim < 2:
        raise ShapeError(f"multi_head_attention: tokens must be [..., s, d_model], "
                         f"got {tokens.shape}")
    d_model = tokens.shape[-1]
    if n_heads < 1:
        raise ConfigError(f"n_heads must be >= 1, got {n_heads}")
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


def transformer_block(tokens: np.ndarray, weights: dict, n_heads: int,
                      use_layer_norm: bool, activation: str = "relu"):
    """One encoder block: multi-head self-attention then a position-wise
    feed-forward net. With ``use_layer_norm`` both sublayers are wrapped as
    residual + layer-norm; without it the sublayers chain bare. Residuals,
    layer norms and the activation work in place on sublayer outputs that
    nothing else holds."""
    mha, mha_cache = multi_head_attention(
        tokens, weights["attn.wq"], weights["attn.wk"], weights["attn.wv"],
        weights["attn.wo"], n_heads)
    if use_layer_norm:
        mha += tokens
        h1, ln1_cache = layer_norm(mha, weights["ln1.gain"], weights["ln1.shift"], LN_EPS,
                                   out=mha)
    else:
        h1, ln1_cache = mha, None
    f1, f1_cache = linear(h1, weights["ffn.w1"], weights["ffn.b1"])
    a1, act_cache = elementwise(activation, f1, out=f1)
    f2, f2_cache = linear(a1, weights["ffn.w2"], weights["ffn.b2"])
    if use_layer_norm:
        f2 += h1
        out, ln2_cache = layer_norm(f2, weights["ln2.gain"], weights["ln2.shift"], LN_EPS,
                                    out=f2)
    else:
        out, ln2_cache = f2, None
    cache = OpCache("transformer_block", {
        "mha_cache": mha_cache, "ln1_cache": ln1_cache, "f1_cache": f1_cache,
        "act_cache": act_cache, "f2_cache": f2_cache, "ln2_cache": ln2_cache,
        "use_layer_norm": use_layer_norm, "h1": h1,
    })
    return out, cache


def transformer_block_backward(cache: OpCache, g_out: np.ndarray):
    """Returns ``(g_tokens, grads)`` with ``grads`` keyed like the weights dict."""
    saved = cache.expect("transformer_block")
    use_ln = saved["use_layer_norm"]
    grads: dict[str, np.ndarray] = {}

    if use_ln:
        g_f2, grads["ln2.gain"], grads["ln2.shift"] = layer_norm_backward(
            saved["ln2_cache"], g_out)
    else:
        g_f2 = g_out
    g_a1, grads["ffn.w2"], grads["ffn.b2"] = linear_backward(saved["f2_cache"], g_f2)
    g_f1 = elementwise_backward(saved["act_cache"], g_a1, out=g_a1)
    g_h1, grads["ffn.w1"], grads["ffn.b1"] = linear_backward(saved["f1_cache"], g_f1)
    if use_ln:
        g_h1 += g_f2  # the residual around the feed-forward net
        g_mha, grads["ln1.gain"], grads["ln1.shift"] = layer_norm_backward(
            saved["ln1_cache"], g_h1, out=g_h1)
    else:
        g_mha = g_h1
    (g_tokens, grads["attn.wq"], grads["attn.wk"],
     grads["attn.wv"], grads["attn.wo"]) = multi_head_attention_backward(
        saved["mha_cache"], g_mha)
    if use_ln:
        g_tokens += g_mha  # the residual around attention
    return g_tokens, grads


# ---------------------------------------------------------------------------
# layers: what forward walks and backward walks back
# ---------------------------------------------------------------------------
# Each layer has ``forward(x) -> (y, cache)`` and ``backward(cache, g) -> g_x``,
# which adds its parameters' gradients into their grads. Layers hold
# Parameters, not arrays (``ParamStore.add`` re-points the views), and look the
# ops up in this module's globals as they run, so a wrapper bound there later
# sees every call. Up to the mean-pool, x is [..., s, width].

class _Weighted:
    """A layer over one weight and one bias Parameter."""

    def __init__(self, weight: Parameter, bias: Parameter):
        self.weight, self.bias = weight, bias

    def _accumulate(self, g_x, g_w, g_b):
        self.weight.grad += g_w
        self.bias.grad += g_b
        return g_x


class Tokenize(_Weighted):
    def forward(self, x):
        return tokenize(x, self.weight.value, self.bias.value)

    def backward(self, cache, g):
        return self._accumulate(*tokenize_backward(cache, g))


class Linear(_Weighted):
    def forward(self, x):
        return linear(x, self.weight.value, self.bias.value)

    def backward(self, cache, g):
        return self._accumulate(*linear_backward(cache, g))


class ConvBlock(_Weighted):
    """``conv1d`` along the token axis, embedding width as channels, then ``maxpool1d``."""

    def __init__(self, weight: Parameter, bias: Parameter, spec: ConvSpec):
        super().__init__(weight, bias)
        self.spec = spec

    def forward(self, x):
        z, conv_cache = conv1d(np.swapaxes(x, -1, -2), self.weight.value, self.bias.value,
                               self.spec.stride)
        p, pool_cache = maxpool1d(z, self.spec.pool_window, self.spec.pool_stride)
        return np.swapaxes(p, -1, -2), (conv_cache, pool_cache)

    def backward(self, cache, g):
        conv_cache, pool_cache = cache
        g_z = maxpool1d_backward(pool_cache, np.swapaxes(g, -1, -2))
        return np.swapaxes(self._accumulate(*conv1d_backward(conv_cache, g_z)), -1, -2)


class TransformerBlock:
    def __init__(self, params: list, spec: AttnSpec, activation: str):
        # transformer_block's weights are keyed by the name inside the block
        self.weights = tuple((p.name.partition(".")[2], p) for p in params)
        self.spec, self.activation = spec, activation

    def forward(self, x):
        return transformer_block(x, {key: p.value for key, p in self.weights},
                                 self.spec.n_heads, self.spec.layer_norm, self.activation)

    def backward(self, cache, g):
        g_x, grads = transformer_block_backward(cache, g)
        for key, p in self.weights:
            p.grad += grads[key]
        return g_x


class MeanPool:
    """Mean over the token axis: [..., s, width] -> [..., width]."""

    def forward(self, x):
        return np.mean(x, axis=-2), x.shape[-2]

    def backward(self, s, g):
        return np.repeat(g[..., None, :], s, axis=-2) / s


class Activation:
    def __init__(self, kind: str):
        self.kind = kind

    def forward(self, x):
        return elementwise(self.kind, x)

    def backward(self, cache, g):
        return elementwise_backward(cache, g)


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
                                zeros("conv.bias", c), cv))
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
            layers.append(TransformerBlock(params, at, config.activation))
    layers.append(MeanPool())
    widths = [width, *config.mlp_hidden, 1]
    for i, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
        if i:
            layers.append(Activation(config.activation))
        layers.append(linear_layer(f"mlp.{i}", w_in, w_out))
    return store, layers


def init_params(config: ModelConfig) -> ParamStore:
    """The parameter store ``build(config)`` makes."""
    return build(config)[0]


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------

@dataclass
class ForwardTrace:
    """The per-layer cache list of one forward pass; consumed at most once."""

    probs: np.ndarray
    caches: list
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

    def forward(self, batch: np.ndarray, *, trace: bool = True):
        """Default probabilities for a ``[B, n_features]`` batch.

        Returns ``(probs, trace)`` where ``probs`` is ``[B]`` with every
        value strictly inside (0, 1) and ``trace`` is the ``ForwardTrace``
        that ``backward`` needs. With ``trace=False`` no layer cache is kept,
        so each layer's intermediates are freed as the forward moves on, and
        ``trace`` is None; the probabilities are the same bits.
        """
        h = check_batch(batch, self.config.n_features)
        if trace:
            caches = []
            for layer in self.layers:
                h, cache = layer.forward(h)
                caches.append(cache)
        else:
            for layer in self.layers:
                h = layer.forward(h)[0]  # its cache is freed at once
        probs = np.clip(sigmoid(h[..., 0]), PROB_CLAMP, 1.0 - PROB_CLAMP)
        check_finite(probs, "model probabilities")
        return probs, (ForwardTrace(probs=probs, caches=caches) if trace else None)

    def backward(self, trace: ForwardTrace, grad_probs: np.ndarray,
                 want_input_grad: bool = False):
        """Accumulate d(loss)/d(param) into every parameter's grad.

        ``grad_probs`` is d(loss)/d(probs), shape ``[B]``. Call
        ``params.zero_grads()`` first unless accumulation across batches is
        intended. Returns d(loss)/d(batch) when ``want_input_grad``.
        """
        if trace is None:
            raise StateError("no ForwardTrace to run backward on: the forward ran "
                             "with trace=False")
        if trace.used:
            raise StateError("ForwardTrace already consumed by a backward pass")
        trace.used = True
        grad_probs = as_f64(grad_probs)
        if grad_probs.shape != trace.probs.shape:
            raise ShapeError(
                f"grad_probs shape {grad_probs.shape} != probs shape {trace.probs.shape}"
            )
        # sigmoid head (clamp is flat outside the open interval, but the
        # clamp bounds are unreachable for any finite logit that matters)
        g = (grad_probs * trace.probs * (1.0 - trace.probs))[..., None]
        for layer, cache in zip(reversed(self.layers), reversed(trace.caches)):
            g = layer.backward(cache, g)
        return g if want_input_grad else None


# ---------------------------------------------------------------------------
# checkpoints: JSON header line + little-endian float64 payload
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "creditnet-checkpoint"


@dataclass(frozen=True)
class ParamEntry:
    name: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class CheckpointHeader:
    format: str
    version: int
    config: ModelConfig
    params: tuple[ParamEntry, ...]
    preprocess: object = None  # any JSON value; PreprocessStats.from_dict reads it
    extra: dict = field(default_factory=dict)  # the caller's own keys


def save_checkpoint(path, model: Model, preprocess: Optional[dict] = None,
                    extra: Optional[dict] = None) -> None:
    """Write the model's ``CheckpointHeader`` as one JSON line, then all
    parameter values as raw little-endian float64 in its ``params`` order."""
    params = tuple(ParamEntry(p.name, p.value.shape) for p in model.params)
    header = CheckpointHeader(CHECKPOINT_MAGIC, 1, model.config, params, preprocess, extra or {})
    with open(path, "wb") as fh:
        fh.write(json.dumps(record_to_dict(header), sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(model.params.values.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[Model, dict]:
    """Read a checkpoint back into a Model; returns ``(model, header)``, the
    header as the dict form of its ``CheckpointHeader``.

    The header must be an object of this format and version 1 that reads as a
    ``CheckpointHeader`` and lists exactly the parameters, in order and shape,
    that its config builds, and the payload must hold exactly their values;
    anything else is a ``ConfigError``.
    """
    if not isinstance(path, (str, os.PathLike)):
        raise ConfigError(f"checkpoint path must be a str or path, got {path!r}")
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
    return model, record_to_dict(header)
