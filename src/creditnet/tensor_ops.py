"""Dense float64 tensor primitives with hand-written forward/backward pairs.

Values are plain C-contiguous ``numpy.float64`` arrays. Every differentiable
operation returns ``(output, OpCache)`` and has a matching ``*_backward``
function that consumes the cache and the upstream gradient and returns exact
analytic gradients. There is no autodiff graph: callers chain the backward
functions by hand.

All operations accept arbitrary leading batch axes in front of the core
dimensions documented per function (e.g. ``conv1d`` works on ``[c_in, L]``
and on ``[B, c_in, L]`` alike).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError, ShapeError, StateError

ACTIVATIONS = ("relu", "sigmoid", "tanh")


def as_f64(x) -> np.ndarray:
    """Coerce to a C-contiguous float64 array."""
    return np.ascontiguousarray(x, dtype=np.float64)


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{what} contains non-finite values")
    return x


@dataclass
class Parameter:
    """A named trainable array paired with a same-shape gradient accumulator."""

    name: str
    value: np.ndarray
    grad: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.value = as_f64(self.value)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad = as_f64(self.grad)
            if self.grad.shape != self.value.shape:
                raise ShapeError(
                    f"grad shape {self.grad.shape} != value shape {self.value.shape} "
                    f"for parameter {self.name!r}"
                )

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def size(self) -> int:
        return int(self.value.size)


@dataclass
class OpCache:
    """Saved forward-pass state needed by the matching backward call."""

    op: str
    saved: dict

    def expect(self, op: str) -> dict:
        if self.op != op:
            raise StateError(f"cache from {self.op!r} passed to {op!r} backward")
        return self.saved


# ---------------------------------------------------------------------------
# conv1d (cross-correlation, valid padding)
# ---------------------------------------------------------------------------

def conv1d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1):
    """Valid cross-correlation over the last axis.

    Args:
        x: input of shape ``[..., c_in, L]``.
        w: kernels of shape ``[c_out, c_in, K]`` (no flipping applied).
        b: per-output-channel bias ``[c_out]``.
        stride: positive step between output positions.

    Returns:
        ``(out, cache)`` with ``out`` of shape ``[..., c_out, L_out]`` where
        ``L_out = (L - K) // stride + 1``.
    """
    x, w, b = as_f64(x), as_f64(w), as_f64(b)
    if not isinstance(stride, int) or stride < 1:
        raise ConfigError(f"conv1d stride must be a positive int, got {stride!r}")
    if x.ndim < 2 or w.ndim != 3 or b.ndim != 1:
        raise ShapeError(
            f"conv1d expects x[..., c_in, L], w[c_out, c_in, K], b[c_out]; "
            f"got {x.shape}, {w.shape}, {b.shape}"
        )
    c_out, c_in, k = w.shape
    if x.shape[-2] != c_in:
        raise ShapeError(f"input channels {x.shape[-2]} != kernel channels {c_in}")
    if b.shape[0] != c_out:
        raise ShapeError(f"bias length {b.shape[0]} != output channels {c_out}")
    length = x.shape[-1]
    if k > length:
        raise ShapeError(f"kernel size {k} exceeds input length {length}")
    # windows: [..., c_in, L_out, K]
    windows = sliding_window_view(x, k, axis=-1)[..., ::stride, :]
    out = np.einsum("...ilk,oik->...ol", windows, w, optimize=True) + b[:, None]
    cache = OpCache("conv1d", {"x_shape": x.shape, "windows": windows, "w": w,
                               "stride": stride})
    return out, cache


def conv1d_backward(cache: OpCache, g_out: np.ndarray):
    """Gradients of a scalar loss w.r.t. conv1d inputs.

    Returns ``(g_x, g_w, g_b)`` matching the shapes of ``x``, ``w``, ``b``.
    """
    saved = cache.expect("conv1d")
    g_out = as_f64(g_out)
    windows, w, stride = saved["windows"], saved["w"], saved["stride"]
    c_out, c_in, k = w.shape
    l_out = g_out.shape[-1]

    # flatten any leading batch axes so reductions over them are explicit
    win_flat = windows.reshape(-1, c_in, l_out, k)
    g_flat = g_out.reshape(-1, c_out, l_out)
    g_b = g_flat.sum(axis=(0, 2))
    g_w = np.einsum("bilk,bol->oik", win_flat, g_flat, optimize=True)
    g_x = np.zeros(saved["x_shape"])
    # each kernel tap t contributes to input positions i*stride + t
    for t in range(k):
        span = slice(t, t + (l_out - 1) * stride + 1, stride)
        g_x[..., :, span] += np.einsum("...ol,oi->...il", g_out, w[:, :, t], optimize=True)
    return g_x, g_w, g_b


# ---------------------------------------------------------------------------
# maxpool1d
# ---------------------------------------------------------------------------

def maxpool1d(x: np.ndarray, window: int, stride: int):
    """Max over sliding windows on the last axis.

    Returns ``(out, cache)`` with ``out`` of shape ``[..., c, L_out]``. Ties
    within a window resolve to the lowest index, so backward routes each
    upstream gradient to exactly one input position.
    """
    x = as_f64(x)
    if not isinstance(window, int) or window < 1:
        raise ConfigError(f"pool window must be a positive int, got {window!r}")
    if not isinstance(stride, int) or stride < 1:
        raise ConfigError(f"pool stride must be a positive int, got {stride!r}")
    length = x.shape[-1]
    if window > length:
        raise ShapeError(f"pool window {window} exceeds input length {length}")
    views = sliding_window_view(x, window, axis=-1)[..., ::stride, :]
    offsets = np.argmax(views, axis=-1)  # first occurrence wins on ties
    out = np.take_along_axis(views, offsets[..., None], axis=-1)[..., 0]
    cache = OpCache("maxpool1d", {"x_shape": x.shape, "offsets": offsets,
                                  "stride": stride})
    return out, cache


def maxpool1d_backward(cache: OpCache, g_out: np.ndarray) -> np.ndarray:
    saved = cache.expect("maxpool1d")
    g_out = as_f64(g_out)
    offsets, stride = saved["offsets"], saved["stride"]
    x_shape = saved["x_shape"]
    l_out = offsets.shape[-1]

    positions = offsets + stride * np.arange(l_out)  # [..., L_out] absolute indices
    g_x = np.zeros(x_shape)
    flat_g = g_x.reshape(-1, x_shape[-1])
    rows = np.broadcast_to(
        np.arange(flat_g.shape[0])[:, None], (flat_g.shape[0], l_out)
    )
    np.add.at(flat_g, (rows, positions.reshape(-1, l_out)), g_out.reshape(-1, l_out))
    return g_x


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    x = as_f64(x)
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_rows_backward(y: np.ndarray, g_out: np.ndarray) -> np.ndarray:
    """Backward through softmax given its output ``y`` and upstream grad."""
    y = as_f64(y)
    g_out = as_f64(g_out)
    inner = np.sum(g_out * y, axis=-1, keepdims=True)
    return y * (g_out - inner)


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

def elementwise(kind: str, x: np.ndarray):
    """Apply a pointwise nonlinearity; returns ``(out, cache)``.

    ``kind`` is one of ``relu``, ``sigmoid``, ``tanh``.
    """
    x = as_f64(x)
    if kind == "relu":
        out = np.maximum(x, 0.0)
        saved = {"kind": kind, "mask": x > 0.0}
    elif kind == "sigmoid":
        out = sigmoid(x)
        saved = {"kind": kind, "out": out}
    elif kind == "tanh":
        out = np.tanh(x)
        saved = {"kind": kind, "out": out}
    else:
        raise ConfigError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")
    return out, OpCache("elementwise", saved)


def elementwise_backward(cache: OpCache, g_out: np.ndarray) -> np.ndarray:
    saved = cache.expect("elementwise")
    g_out = as_f64(g_out)
    kind = saved["kind"]
    if kind == "relu":
        return g_out * saved["mask"]
    out = saved["out"]
    if kind == "sigmoid":
        return g_out * out * (1.0 - out)
    return g_out * (1.0 - out * out)  # tanh


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically safe logistic function 1 / (1 + e^-x)."""
    x = as_f64(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# layer normalization
# ---------------------------------------------------------------------------

def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = 1e-5):
    """Normalize each row (last axis) to mean 0 / variance 1, then scale+shift."""
    x, gain, shift = as_f64(x), as_f64(gain), as_f64(shift)
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps!r}")
    n = x.shape[-1]
    if gain.shape != (n,) or shift.shape != (n,):
        raise ShapeError(
            f"gain/shift must have shape ({n},), got {gain.shape} and {shift.shape}"
        )
    mean = np.mean(x, axis=-1, keepdims=True)
    centered = x - mean
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain + shift
    cache = OpCache("layer_norm", {"xhat": xhat, "inv_std": inv_std, "gain": gain})
    return out, cache


def layer_norm_backward(cache: OpCache, g_out: np.ndarray):
    """Returns ``(g_x, g_gain, g_shift)``."""
    saved = cache.expect("layer_norm")
    g_out = as_f64(g_out)
    xhat, inv_std, gain = saved["xhat"], saved["inv_std"], saved["gain"]
    n = xhat.shape[-1]

    g_shift = g_out.reshape(-1, n).sum(axis=0)
    g_gain = (g_out * xhat).reshape(-1, n).sum(axis=0)
    g_xhat = g_out * gain
    # d/dx of (x - mean)/sqrt(var + eps), all per row
    g_x = inv_std * (
        g_xhat
        - np.mean(g_xhat, axis=-1, keepdims=True)
        - xhat * np.mean(g_xhat * xhat, axis=-1, keepdims=True)
    )
    return g_x, g_gain, g_shift


# ---------------------------------------------------------------------------
# finite-difference gradient verification
# ---------------------------------------------------------------------------

def gradient_check(f, params, h: float = 1e-5, seed: int = 0,
                   max_probes_per_param: int = 16) -> float:
    """Compare analytic gradients against central finite differences.

    ``f()`` must be deterministic, return the scalar objective, and leave the
    analytic gradient of that objective in each parameter's ``grad`` field
    (zeroing any stale grads itself). The harness snapshots those gradients,
    then probes up to ``max_probes_per_param`` seeded coordinates per
    parameter with central differences of step ``h``.

    Returns the max over probed coordinates of
    ``|analytic - fd| / max(1e-8, |analytic| + |fd|)``.
    """
    loss = float(f())
    if not np.isfinite(loss):
        raise NumericError(f"objective is non-finite: {loss!r}")
    analytic = {p.name: p.grad.copy() for p in params}

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        n = flat.size
        if n <= max_probes_per_param:
            idxs = np.arange(n)
        else:
            idxs = rng.choice(n, size=max_probes_per_param, replace=False)
        a_flat = analytic[p.name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f())
            flat[i] = orig - h
            f_minus = float(f())
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("objective became non-finite during probing")
            fd = (f_plus - f_minus) / (2.0 * h)
            a = a_flat[i]
            err = abs(a - fd) / max(1e-8, abs(a) + abs(fd))
            worst = max(worst, err)
    f()  # restore grads for the unperturbed point
    return worst
