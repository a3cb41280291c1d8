"""Per-layer spans for the creditnet benchmark, recorded from outside the package.

``Tracer.install`` replaces the public functions of each layer module with
timing wrappers and ``Tracer.restore`` puts the original objects back; no
file under ``src/`` is involved. A wrapper must sit on the binding that is
actually called: ``from .tensor_ops import conv1d`` copies the name into
``creditnet.model``, so every module of the package that holds the same
function object gets its own wrapper, all recording under one span name.
Methods are wrapped on their class.

Spans stay in memory as ``(name, start, end, parent, op)`` tuples and are
written out once, by ``Tracer.dump``, when the workload ends.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# Span names are "<layer>.<attribute>". conv1d, maxpool1d, layer_norm and
# elementwise are defined in tensor_ops, but the model layer is what calls
# them, so they are reported (and looked up) under the model module.
SPANS = {
    "model": ("creditnet.model", (
        "tokenize", "tokenize_backward",
        "conv1d", "conv1d_backward",
        "maxpool1d", "maxpool1d_backward",
        "linear", "linear_backward",
        "multi_head_attention", "multi_head_attention_backward",
        "attention", "attention_backward",
        "layer_norm", "layer_norm_backward",
        "elementwise", "elementwise_backward",
        "transformer_block", "transformer_block_backward",
        "Model.forward", "Model.backward",
    )),
    "training": ("creditnet.training", (
        "ablate", "train", "_fit", "adam_step", "bce_loss", "predict_probs",
        "ParamStore.zero_grads", "ParamStore.snapshot",
    )),
    "metrics": ("creditnet.metrics", ("auc", "ks", "evaluate_scores")),
    "data": ("creditnet.data", (
        "load_csv", "prepare_splits", "split", "fit_imputer", "impute",
        "standardize_fit", "standardize_apply",
    )),
    "importance": ("creditnet.importance", ("permutation_importance",)),
}

# Called about a hundred times per training step: counted, not timed, so
# their cost stays in the caller's self time instead of in wrapper overhead.
COUNTERS = {"tensor_ops": ("creditnet.tensor_ops", ("as_f64", "check_finite"))}


def linear_flops(x_shape, w_shape) -> int:
    """Multiply-add FLOPs of ``x @ w`` (bias adds are not counted)."""
    return 2 * math.prod(x_shape[:-1]) * w_shape[0] * w_shape[1]


def conv1d_flops(x_shape, w_shape, stride: int) -> int:
    """FLOPs of a valid 1-D cross-correlation of ``x[..., c_in, L]`` with ``w[c_out, c_in, K]``."""
    c_out, c_in, k = w_shape
    batch = math.prod(x_shape[:-2])
    l_out = (x_shape[-1] - k) // stride + 1
    return 2 * batch * c_out * l_out * c_in * k


def attention_flops(q_shape, v_shape) -> int:
    """FLOPs of ``q k^T`` and ``weights v`` for ``q[..., s, d_k]``, ``v[..., s, d_v]``."""
    heads = math.prod(q_shape[:-2])
    s = q_shape[-2]
    return 2 * heads * s * s * (q_shape[-1] + v_shape[-1])


# Work counted per call, from the arguments and the result. For the matmul
# ops it is FLOPs (a backward pass costs twice its forward: one product for
# the input gradient and one for the weight gradient); for Model.forward it
# is rows scored; for train and load_csv it is rows processed.
WORK = {
    "model.linear": lambda a, r: linear_flops(a[0].shape, a[1].shape),
    "model.linear_backward": lambda a, r: 2 * linear_flops(
        a[0].saved["x"].shape, a[0].saved["w"].shape),
    "model.conv1d": lambda a, r: conv1d_flops(
        a[0].shape, a[1].shape, a[3] if len(a) > 3 else 1),
    "model.conv1d_backward": lambda a, r: 2 * conv1d_flops(
        a[0].saved["x_shape"], a[0].saved["w"].shape, a[0].saved["stride"]),
    "model.attention": lambda a, r: attention_flops(a[0].shape, a[2].shape),
    "model.attention_backward": lambda a, r: 2 * attention_flops(
        a[0].saved["q"].shape, a[0].saved["v"].shape),
    "model.Model.forward": lambda a, r: r[0].shape[0],
    "training.train": lambda a, r: a[2].train.n_rows * r[1].epochs_run,
    "data.load_csv": lambda a, r: r.n_rows,
}
FORWARD_FLOP_SPANS = ("model.linear", "model.conv1d", "model.attention")
BACKWARD_FLOP_SPANS = tuple(f"{s}_backward" for s in FORWARD_FLOP_SPANS)

# training.train spans are split by model variant, in training.ablate's order.
LABELS = {"training.train": lambda a: a[0].variant}
TRAIN_VARIANTS = ("cnn_only", "transformer_only", "hybrid")


def _resolve(module_name: str, attr: str):
    """Return ``(owner, name, original)`` for a module function or ``Class.method``."""
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, vars(owner)[attr]
    return owner, attr, getattr(owner, attr)


def _package_bindings(original):
    """Every ``(module, name)`` in the creditnet package bound to ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "creditnet" or mod_name.startswith("creditnet.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                yield mod, name


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_stats(spans) -> dict[str, SpanStats]:
    """Aggregate spans by name."""
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for (name, start, end, _, _), own in zip(spans, self_times(spans)):
        s = stats[name]
        s.calls += 1
        s.total_s += end - start
        s.self_s += own
    return dict(stats)


def op_accounting(spans, op_walls: dict[int, float]) -> dict[int, tuple[float, float]]:
    """Per op: ``(sum of span self times, untraced remainder)``, where the
    remainder is the op's wall time not covered by any top-level span."""
    own = defaultdict(float)
    roots = defaultdict(float)
    for (_, start, end, parent, op), s in zip(spans, self_times(spans)):
        own[op] += s
        if parent < 0:
            roots[op] += end - start
    return {op: (own[op], wall - roots[op]) for op, wall in op_walls.items()}


class Tracer:
    """Records spans, call counts and per-call work while installed."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, work, clock = self.spans, self._stack, self.work, time.perf_counter
        work_fn, label = WORK.get(name), LABELS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if label is None else f"{name}.{label(args)}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span, start, end, parent, tracer.op)
            if work_fn is not None:
                work[span] += work_fn(args, result)
            return result

        return traced

    def _counter(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for layer, (module_name, attrs) in table.items():
                for attr in attrs:
                    owner, name, original = _resolve(module_name, attr)
                    wrapper = make(f"{layer}.{attr}", original)
                    if isinstance(owner, type):
                        targets = [(owner, name)]
                    else:
                        targets = list(_package_bindings(original))
                    for obj, binding in targets:
                        self._patched.append((obj, binding, original))
                        setattr(obj, binding, wrapper)

    def restore(self) -> list[str]:
        """Put every original back; returns the bindings that did not come back."""
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        lost = [f"{obj.__name__}.{name}" for obj, name, original in self._patched
                if vars(obj)[name] is not original]
        self._patched = []
        return lost

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        """Write all spans to one ``.npz`` file (names, start, end, parent, op)."""
        import numpy as np

        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        np.savez(
            path,
            names=np.array(names),
            name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans], dtype=np.float64),
            end=np.array([s[2] for s in self.spans], dtype=np.float64),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            op=np.array([s[4] for s in self.spans], dtype=np.int64),
        )
