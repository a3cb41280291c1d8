"""Dense float64 tensor primitives with hand-written forward/backward pairs.

Values are plain ``numpy.float64`` arrays, views included. The ops take
float64 ndarrays and do not coerce their inputs: the public edges that
receive outside data (``Model.forward``/``Model.backward``, ``ParamStore.add``
and the training entry points) convert with ``as_f64`` once. The ops still
check shapes, strides, windows and ``eps``. Every differentiable
operation returns ``(output, OpCache)`` and has a matching ``*_backward``
function that consumes the cache and the upstream gradient and returns exact
analytic gradients. There is no autodiff graph: callers chain the backward
functions by hand.

All operations accept arbitrary leading batch axes in front of the core
dimensions documented per function (e.g. ``conv1d`` works on ``[c_in, L]``
and on ``[B, c_in, L]`` alike). An op with a keyword-only ``out`` writes its
result there when it is given; ``out`` may be the input array itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericError, ShapeError, StateError

ACTIVATIONS = ("relu", "sigmoid", "tanh")


def as_f64(x) -> np.ndarray:
    """Coerce outside input to float64; float64 arrays and views pass uncopied.
    Input numpy cannot read as one float array (text, ragged rows, objects)
    is a ``DataError``."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"input is not a numeric array: {exc}") from None


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

    Returns ``(out, cache)`` with ``out`` of shape ``[..., c, L_out]``. The
    max is taken one window tap at a time over strided slices of ``x``; the
    cache holds ``x`` and ``out``, and backward routes each upstream gradient
    to exactly one input position: the lowest index in its window holding
    the max.
    """
    if not isinstance(window, int) or window < 1:
        raise ConfigError(f"pool window must be a positive int, got {window!r}")
    if not isinstance(stride, int) or stride < 1:
        raise ConfigError(f"pool stride must be a positive int, got {stride!r}")
    length = x.shape[-1]
    if window > length:
        raise ShapeError(f"pool window {window} exceeds input length {length}")
    span = (length - window) // stride * stride + 1
    out = x[..., :span:stride].copy(order="K")  # keeps the memory layout of x
    for t in range(1, window):
        np.maximum(out, x[..., t: t + span: stride], out=out)  # propagates NaN
    cache = OpCache("maxpool1d", {"x": x, "out": out, "window": window, "stride": stride})
    return out, cache


def maxpool1d_backward(cache: OpCache, g_out: np.ndarray) -> np.ndarray:
    saved = cache.expect("maxpool1d")
    x, out, stride = saved["x"], saved["out"], saved["stride"]
    span = (out.shape[-1] - 1) * stride + 1
    g_x = np.zeros(x.shape)
    unrouted = np.ones(out.shape, dtype=bool)
    for t in range(saved["window"]):
        # the first tap equal to its window's max takes the gradient
        hit = np.equal(x[..., t: t + span: stride], out)
        hit &= unrouted
        unrouted ^= hit
        g_x[..., t: t + span: stride] += np.where(hit, g_out, 0.0)
    return g_x


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def _check_rows(op: str, x: np.ndarray) -> None:
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError(f"{op} needs a non-empty last axis, got shape {x.shape}")


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the last axis, keeping it as a length-1 axis."""
    return np.einsum("...i->...", x)[..., None]


def softmax_rows(x: np.ndarray, *, out=None) -> np.ndarray:
    """Row-wise softmax over the last axis, stabilized by max subtraction."""
    _check_rows("softmax_rows", x)
    # rows are short (one per sequence position): a loop over the last axis
    # beats a reduction that iterates over it per row
    row_max = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(row_max, x[..., j], out=row_max)
    e = np.subtract(x, row_max[..., None], out=out)
    np.exp(e, out=e)
    e /= _row_sums(e)
    return e


def softmax_rows_backward(y: np.ndarray, g_out: np.ndarray, *, out=None) -> np.ndarray:
    """Backward through softmax given its output ``y`` and upstream grad."""
    g = np.subtract(g_out, np.einsum("...i,...i->...", g_out, y)[..., None], out=out)
    g *= y
    return g


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

def elementwise(kind: str, x: np.ndarray, *, out=None):
    """Apply a pointwise nonlinearity; returns ``(out, cache)``.

    ``kind`` is one of ``relu``, ``sigmoid``, ``tanh``.
    """
    if kind == "relu":
        out = np.maximum(x, 0.0, out=out)
    elif kind == "sigmoid":
        out = sigmoid(x, out=out)
    elif kind == "tanh":
        out = np.tanh(x, out=out)
    else:
        raise ConfigError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")
    return out, OpCache("elementwise", {"kind": kind, "out": out})


def elementwise_backward(cache: OpCache, g_out: np.ndarray, *, out=None) -> np.ndarray:
    saved = cache.expect("elementwise")
    kind, y = saved["kind"], saved["out"]
    if kind == "relu":
        return np.multiply(g_out, y > 0.0, out=out)  # y > 0 exactly where x > 0
    if kind == "sigmoid":
        g = np.multiply(g_out, y, out=out)
        g *= 1.0 - y
        return g
    return np.multiply(g_out, 1.0 - y * y, out=out)  # tanh


def sigmoid(x: np.ndarray, *, out=None) -> np.ndarray:
    """Numerically safe logistic function 1 / (1 + e^-x)."""
    out = np.empty_like(x) if out is None else out
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# layer normalization
# ---------------------------------------------------------------------------

def layer_norm(x: np.ndarray, gain: np.ndarray, shift: np.ndarray, eps: float = 1e-5,
               *, out=None):
    """Normalize each row (last axis) to mean 0 / variance 1, then scale+shift."""
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be positive, got {eps!r}")
    _check_rows("layer_norm", x)
    n = x.shape[-1]
    if gain.shape != (n,) or shift.shape != (n,):
        raise ShapeError(
            f"gain/shift must have shape ({n},), got {gain.shape} and {shift.shape}"
        )
    xhat = x - _row_sums(x) / n
    var = np.einsum("...i,...i->...", xhat, xhat)[..., None] / n
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = np.multiply(xhat, gain, out=out)
    out += shift
    cache = OpCache("layer_norm", {"xhat": xhat, "inv_std": inv_std, "gain": gain})
    return out, cache


def layer_norm_backward(cache: OpCache, g_out: np.ndarray, *, out=None):
    """Returns ``(g_x, g_gain, g_shift)``."""
    saved = cache.expect("layer_norm")
    xhat, inv_std, gain = saved["xhat"], saved["inv_std"], saved["gain"]
    n = xhat.shape[-1]

    g_shift = g_out.reshape(-1, n).sum(axis=0)
    scratch = g_out * xhat
    g_gain = scratch.reshape(-1, n).sum(axis=0)
    # d/dx of (x - mean)/sqrt(var + eps), all per row, worked in place on
    # g_xhat = g_out * gain once its dot with xhat is taken
    g_x = np.multiply(g_out, gain, out=out)
    dot = np.einsum("...i,...i->...", g_x, xhat)[..., None] / n
    g_x -= _row_sums(g_x) / n
    g_x -= np.multiply(xhat, dot, out=scratch)
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
