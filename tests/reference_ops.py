"""Reference copies of the kernels that creditnet's fast paths replaced.

These are the straightforward forms the package first shipped: a
``sliding_window_view`` convolution and max-pool with ``np.add.at``
scatter, separate Q/K/V projections, mean-based layer norm and softmax,
per-tensor SGD/Adam loops and a per-parameter checkpoint writer. They live
here, outside ``src/``, only so ``test_reference_equivalence`` can compare
the package against them.
"""

import json

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from creditnet.errors import NumericError
from creditnet.tensor_ops import OpCache


def as_f64(x):
    return np.ascontiguousarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# conv1d / maxpool1d
# ---------------------------------------------------------------------------

def conv1d(x, w, b, stride=1):
    x, w, b = as_f64(x), as_f64(w), as_f64(b)
    k = w.shape[2]
    windows = sliding_window_view(x, k, axis=-1)[..., ::stride, :]
    out = np.einsum("...ilk,oik->...ol", windows, w, optimize=True) + b[:, None]
    return out, OpCache("conv1d", {"x_shape": x.shape, "windows": windows, "w": w,
                                   "stride": stride})


def conv1d_backward(cache, g_out):
    saved = cache.expect("conv1d")
    g_out = as_f64(g_out)
    windows, w, stride = saved["windows"], saved["w"], saved["stride"]
    c_out, c_in, k = w.shape
    l_out = g_out.shape[-1]
    win_flat = windows.reshape(-1, c_in, l_out, k)
    g_flat = g_out.reshape(-1, c_out, l_out)
    g_b = g_flat.sum(axis=(0, 2))
    g_w = np.einsum("bilk,bol->oik", win_flat, g_flat, optimize=True)
    g_x = np.zeros(saved["x_shape"])
    for t in range(k):
        span = slice(t, t + (l_out - 1) * stride + 1, stride)
        g_x[..., :, span] += np.einsum("...ol,oi->...il", g_out, w[:, :, t], optimize=True)
    return g_x, g_w, g_b


def maxpool1d(x, window, stride):
    x = as_f64(x)
    views = sliding_window_view(x, window, axis=-1)[..., ::stride, :]
    offsets = np.argmax(views, axis=-1)
    out = np.take_along_axis(views, offsets[..., None], axis=-1)[..., 0]
    return out, OpCache("maxpool1d", {"x_shape": x.shape, "offsets": offsets,
                                      "stride": stride})


def maxpool1d_backward(cache, g_out):
    saved = cache.expect("maxpool1d")
    g_out = as_f64(g_out)
    offsets, stride, x_shape = saved["offsets"], saved["stride"], saved["x_shape"]
    l_out = offsets.shape[-1]
    positions = offsets + stride * np.arange(l_out)
    g_x = np.zeros(x_shape)
    flat_g = g_x.reshape(-1, x_shape[-1])
    rows = np.broadcast_to(np.arange(flat_g.shape[0])[:, None], (flat_g.shape[0], l_out))
    np.add.at(flat_g, (rows, positions.reshape(-1, l_out)), g_out.reshape(-1, l_out))
    return g_x


# ---------------------------------------------------------------------------
# softmax / layer norm
# ---------------------------------------------------------------------------

def softmax_rows(x):
    x = as_f64(x)
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_rows_backward(y, g_out):
    y, g_out = as_f64(y), as_f64(g_out)
    return y * (g_out - np.sum(g_out * y, axis=-1, keepdims=True))


def layer_norm(x, gain, shift, eps=1e-5):
    x, gain, shift = as_f64(x), as_f64(gain), as_f64(shift)
    mean = np.mean(x, axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    return xhat * gain + shift, OpCache("layer_norm", {"xhat": xhat, "inv_std": inv_std,
                                                       "gain": gain})


def layer_norm_backward(cache, g_out):
    saved = cache.expect("layer_norm")
    g_out = as_f64(g_out)
    xhat, inv_std, gain = saved["xhat"], saved["inv_std"], saved["gain"]
    n = xhat.shape[-1]
    g_shift = g_out.reshape(-1, n).sum(axis=0)
    g_gain = (g_out * xhat).reshape(-1, n).sum(axis=0)
    g_xhat = g_out * gain
    g_x = inv_std * (g_xhat - np.mean(g_xhat, axis=-1, keepdims=True)
                     - xhat * np.mean(g_xhat * xhat, axis=-1, keepdims=True))
    return g_x, g_gain, g_shift


# ---------------------------------------------------------------------------
# multi-head attention with three separate projections
# ---------------------------------------------------------------------------

def linear(x, w):
    x, w = as_f64(x), as_f64(w)
    return x @ w, {"x": x, "w": w}


def linear_backward(saved, g_out):
    x, w = saved["x"], saved["w"]
    g_out = as_f64(g_out)
    g_w = x.reshape(-1, w.shape[0]).T @ g_out.reshape(-1, w.shape[1])
    return g_out @ w.T, g_w


def attention(q, k, v):
    q, k, v = as_f64(q), as_f64(k), as_f64(v)
    scale = 1.0 / np.sqrt(q.shape[-1])
    weights = softmax_rows((q @ np.swapaxes(k, -1, -2)) * scale)
    return weights @ v, {"q": q, "k": k, "v": v, "weights": weights, "scale": scale}


def attention_backward(saved, g_out):
    q, k, v, weights, scale = (saved[n] for n in ("q", "k", "v", "weights", "scale"))
    g_out = as_f64(g_out)
    g_v = np.swapaxes(weights, -1, -2) @ g_out
    g_logits = softmax_rows_backward(weights, g_out @ np.swapaxes(v, -1, -2))
    return (g_logits @ k) * scale, (np.swapaxes(g_logits, -1, -2) @ q) * scale, g_v


def _split_heads(x, n_heads):
    x = x.reshape(*x.shape[:-1], n_heads, x.shape[-1] // n_heads)
    return np.swapaxes(x, -2, -3)


def _merge_heads(x):
    x = np.swapaxes(x, -2, -3)
    return x.reshape(*x.shape[:-2], -1)


def multi_head_attention(tokens, wq, wk, wv, wo, n_heads):
    tokens = as_f64(tokens)
    q, qc = linear(tokens, wq)
    k, kc = linear(tokens, wk)
    v, vc = linear(tokens, wv)
    att, ac = attention(_split_heads(q, n_heads), _split_heads(k, n_heads),
                        _split_heads(v, n_heads))
    out, oc = linear(_merge_heads(att), wo)
    return out, {"q": qc, "k": kc, "v": vc, "att": ac, "o": oc, "n_heads": n_heads}


def multi_head_attention_backward(saved, g_out):
    """Returns ``(g_tokens, g_wq, g_wk, g_wv, g_wo)``."""
    g_concat, g_wo = linear_backward(saved["o"], g_out)
    g_q, g_k, g_v = attention_backward(saved["att"], _split_heads(g_concat, saved["n_heads"]))
    g_tq, g_wq = linear_backward(saved["q"], _merge_heads(g_q))
    g_tk, g_wk = linear_backward(saved["k"], _merge_heads(g_k))
    g_tv, g_wv = linear_backward(saved["v"], _merge_heads(g_v))
    return g_tq + g_tk + g_tv, g_wq, g_wk, g_wv, g_wo


# ---------------------------------------------------------------------------
# per-tensor optimizers and the per-parameter checkpoint writer
# ---------------------------------------------------------------------------

def _check_grads(params):
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NumericError(f"non-finite gradient in parameter {p.name!r}")


def sgd_step(params, lr):
    _check_grads(params)
    for p in params:
        p.value -= lr * p.grad


class AdamState:
    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m, self.v = {}, {}


def adam_step(params, lr, state):
    _check_grads(params)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p in params:
        g = p.grad
        m = state.m.setdefault(p.name, np.zeros_like(g))
        v = state.v.setdefault(p.name, np.zeros_like(g))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.value -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def save_checkpoint(path, model, preprocess=None, extra=None):
    header = {
        "format": "creditnet-checkpoint",
        "version": 1,
        "config": model.config.to_dict(),
        "params": [{"name": p.name, "shape": list(p.value.shape)} for p in model.params],
        "preprocess": preprocess,
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for p in model.params:
            fh.write(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
