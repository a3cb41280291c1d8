"""Dense float64 tensor primitives with hand-written forward/backward pairs.

Values are plain ``numpy.float64`` arrays, views included. Every differentiable
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

from .errors import ConfigError, NumericError, ShapeError, StateError

ACTIVATIONS = ("relu", "sigmoid", "tanh")


def as_f64(x) -> np.ndarray:
    """Coerce to a float64 array; float64 arrays and views pass through uncopied."""
    return np.asarray(x, dtype=np.float64)


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
        # contiguous, so that value.reshape(-1) writes through (gradient_check)
        self.value = np.ascontiguousarray(self.value, dtype=np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        else:
            self.grad = np.ascontiguousarray(self.grad, dtype=np.float64)
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
    """Valid cross-correlation over the last axis, as im2col plus one GEMM.

    Args:
        x: input of shape ``[..., c_in, L]``.
        w: kernels of shape ``[c_out, c_in, K]`` (no flipping applied).
        b: per-output-channel bias ``[c_out]``.
        stride: positive step between output positions.

    Returns:
        ``(out, cache)`` with ``out`` of shape ``[..., c_out, L_out]`` where
        ``L_out = (L - K) // stride + 1``; ``out`` is a channel-last array
        seen through a transposed view.
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
    l_out = (length - k) // stride + 1
    span = (l_out - 1) * stride + 1
    # cols[..., l, i, t] = x[..., i, l * stride + t]
    cols = np.empty((*x.shape[:-2], l_out, c_in, k))
    for t in range(k):
        cols[..., t] = np.swapaxes(x[..., t: t + span: stride], -1, -2)
    out = cols.reshape(-1, c_in * k) @ w.reshape(c_out, c_in * k).T
    out += b
    out = np.swapaxes(out.reshape(*cols.shape[:-2], c_out), -1, -2)
    cache = OpCache("conv1d", {"x_shape": x.shape, "cols": cols, "w": w,
                               "stride": stride})
    return out, cache


def conv1d_backward(cache: OpCache, g_out: np.ndarray):
    """Gradients of a scalar loss w.r.t. conv1d inputs.

    Returns ``(g_x, g_w, g_b)`` matching the shapes of ``x``, ``w``, ``b``.
    """
    saved = cache.expect("conv1d")
    g_out = as_f64(g_out)
    cols, w, stride = saved["cols"], saved["w"], saved["stride"]
    c_out, c_in, k = w.shape
    l_out = g_out.shape[-1]

    g_rows = np.swapaxes(g_out, -1, -2).reshape(-1, c_out)  # [N * L_out, c_out]
    g_b = g_rows.sum(axis=0)
    g_w = (g_rows.T @ cols.reshape(-1, c_in * k)).reshape(w.shape)
    g_cols = (g_rows @ w.reshape(c_out, c_in * k)).reshape(cols.shape)
    g_x = np.zeros(saved["x_shape"])
    # each kernel tap t contributes to input positions l * stride + t
    span = (l_out - 1) * stride + 1
    for t in range(k):
        g_x[..., t: t + span: stride] += np.swapaxes(g_cols[..., t], -1, -2)
    return g_x, g_w, g_b


# ---------------------------------------------------------------------------
# maxpool1d
# ---------------------------------------------------------------------------

def maxpool1d(x: np.ndarray, window: int, stride: int):
    """Max over sliding windows on the last axis.

    Returns ``(out, cache)`` with ``out`` of shape ``[..., c, L_out]``. Ties
    within a window resolve to the lowest index, so backward routes each
    upstream gradient to exactly one input position. The max is taken one
    window tap at a time over strided slices of ``x``.
    """
    x = as_f64(x)
    if not isinstance(window, int) or window < 1:
        raise ConfigError(f"pool window must be a positive int, got {window!r}")
    if not isinstance(stride, int) or stride < 1:
        raise ConfigError(f"pool stride must be a positive int, got {stride!r}")
    length = x.shape[-1]
    if window > length:
        raise ShapeError(f"pool window {window} exceeds input length {length}")
    span = (length - window) // stride * stride + 1
    out = x[..., :span:stride].copy(order="K")  # keeps the memory layout of x
    offsets = np.zeros_like(out, dtype=np.intp)
    for t in range(1, window):
        tap = x[..., t: t + span: stride]
        np.copyto(offsets, t, where=tap > out)  # strict: an earlier tap keeps a tie
        np.maximum(out, tap, out=out)  # propagates NaN as a reduction would
    cache = OpCache("maxpool1d", {"x_shape": x.shape, "offsets": offsets,
                                  "window": window, "stride": stride})
    return out, cache


def maxpool1d_backward(cache: OpCache, g_out: np.ndarray) -> np.ndarray:
    saved = cache.expect("maxpool1d")
    g_out = as_f64(g_out)
    offsets, stride = saved["offsets"], saved["stride"]
    span = (offsets.shape[-1] - 1) * stride + 1
    g_x = np.zeros(saved["x_shape"])
    for t in range(saved["window"]):
        g_x[..., t: t + span: stride] += np.where(offsets == t, g_out, 0.0)
    return g_x


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, keeping it as a length-1 axis."""
    return np.einsum("...i->...", x)[..., None]


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    x = as_f64(x)
    # rows are short (one per sequence position): a loop over the last axis
    # beats a reduction that iterates over it per row
    row_max = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(row_max, x[..., j], out=row_max)
    e = x - row_max[..., None]
    np.exp(e, out=e)
    e /= _row_sums(e)
    return e


def softmax_rows_backward(y: np.ndarray, g_out: np.ndarray) -> np.ndarray:
    """Backward through softmax given its output ``y`` and upstream grad."""
    y = as_f64(y)
    g_out = as_f64(g_out)
    g = g_out - np.einsum("...i,...i->...", g_out, y)[..., None]
    g *= y
    return g


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
    xhat = x - _row_sums(x) / n
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = xhat * gain
    out += shift
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
    g_x = g_xhat - _row_sums(g_xhat) / n
    g_x -= xhat * (np.einsum("...i,...i->...", g_xhat, xhat)[..., None] / n)
    g_x *= inv_std
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
