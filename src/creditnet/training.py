"""Cross-entropy objective, SGD/Adam, the epoch loop, and experiment runners.

``train`` fits a ``Model`` of any variant, the logistic baseline included:
a traced ``forward`` and a ``backward`` per batch, then one optimizer step
over ``model.params``. Scoring calls ``forward`` with ``trace=False``. Runs
are fully deterministic for fixed seeds and configs.

Each fit, its val and test passes included, runs at ``FIT_THREADS`` BLAS
threads and restores the caller's count after (``blas.limit``), so its bytes
do not depend on ``OPENBLAS_NUM_THREADS``. Scoring outside a fit
(``predict_probs``, ``evaluate``) runs at the caller's count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Literal, Optional

import numpy as np

from . import blas
from .data import Splits, FeatureFrame
from .errors import ConfigError, NumericError, ShapeError, StateError
from .metrics import MetricsRecord, accuracy, auc, check_labels, evaluate_scores
from .model import BASELINE, VARIANTS, Model, ModelConfig, ParamStore
from .records import Count, Positive, Rate, Seed, checked, record, record_to_dict
from .tensor_ops import as_f64

PROB_EPS = 1e-12  # cross-entropy clamp
ACC_THRESHOLD = 0.5

OPTIMIZERS = ("sgd", "adam")
Optimizer = Literal[OPTIMIZERS]

# A fit's products are small (d_model 32, 10 tokens, batch 128). At two
# threads, OpenBLAS's second thread spins between them: alone a fit burns
# twice its wall time in CPU, and two `ablate` runs sharing a 2-CPU host
# each ran 4.4x slower than at one thread. One thread also makes a fit's
# bytes the same under every thread setting.
FIT_THREADS = 1


# ---------------------------------------------------------------------------
# configuration and report records
# ---------------------------------------------------------------------------

@record
class EarlyStop:
    metric: Literal["val_auc"] = "val_auc"
    patience: Count = 10


@record
class TrainConfig:
    optimizer: Optimizer = "adam"
    learning_rate: Positive = 1e-3
    batch_size: Count = 128
    epochs: Count = 100
    seed: Seed = 0
    beta1: Rate = 0.9
    beta2: Rate = 0.999
    adam_eps: Positive = 1e-8
    shuffle: bool = True
    early_stop: Optional[EarlyStop] = field(default_factory=EarlyStop)
    pos_weight: Positive = 1.0


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


@dataclass
class RunReport:
    """Curves plus final fresh-pass metrics for one training run."""

    config_hash: str
    model_config: dict
    train_config: dict
    epochs_run: int
    best_epoch: Optional[int]
    curves: dict[str, list[float]]
    final: dict[str, MetricsRecord]

    to_dict = record_to_dict

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def write_curves_csv(report: RunReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("epoch,train_loss,train_acc,test_loss,test_acc\n")
        c = report.curves
        for e in range(report.epochs_run):
            fh.write(f"{e},{c['train_loss'][e]!r},{c['train_acc'][e]!r},"
                     f"{c['test_loss'][e]!r},{c['test_acc'][e]!r}\n")


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

@checked
def bce_loss(probs, labels, pos_weight: Positive = 1.0):
    """Mean binary cross-entropy with probabilities clamped to
    ``[1e-12, 1 - 1e-12]``; returns ``(loss, d loss / d probs)``.

    The gradient is the exact derivative of the clamped mean: coordinates
    whose raw probability sits outside the clamp window get gradient zero.
    A label other than 0 or 1 is a ``DataError`` and a ``pos_weight`` that
    is not finite and > 0 a ``ConfigError``; probabilities are not checked,
    so a NaN from a diverged model reaches the loss.
    """
    probs = as_f64(probs).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    if probs.shape != labels.shape:
        raise ShapeError(f"probs {probs.shape} and labels {labels.shape} differ")
    check_labels(labels)
    labels = labels.astype(np.float64)
    n = probs.shape[0]
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    loss = -np.mean(pos_weight * labels * np.log(p) + (1.0 - labels) * np.log1p(-p))
    inside = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    grad = np.where(inside, (-pos_weight * labels / p + (1.0 - labels) / (1.0 - p)) / n, 0.0)
    return float(loss), grad


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _check_grads(params: ParamStore) -> None:
    if not np.all(np.isfinite(params.grads)):
        bad = next(p.name for p in params if not np.all(np.isfinite(p.grad)))
        raise NumericError(f"non-finite gradient in parameter {bad!r}")


@checked
def sgd_step(params: ParamStore, lr: Positive) -> None:
    """Vanilla gradient descent: values <- values - lr * grads."""
    _check_grads(params)
    params.values -= lr * params.grads


class AdamState:
    """First/second moment vectors, aligned with one ParamStore's flat
    buffers and allocated on the first step, plus the shared step counter."""

    @checked
    def __init__(self, beta1: Rate = 0.9, beta2: Rate = 0.999, eps: Positive = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        # two work vectors: fresh store-sized temporaries on every step cost
        # page faults that made the update about 2.5x slower
        self._work: Optional[np.ndarray] = None


@checked
def adam_step(params: ParamStore, lr: Positive, state: AdamState) -> None:
    """Bias-corrected Adam update over the whole store; ``state`` persists
    across steps and serves the one store its first step sized it for.
    Every element sees the operations of
    ``value -= lr * (m / c1) / (sqrt(v / c2) + eps)`` in the same order."""
    _check_grads(params)
    g = params.grads
    if state.m is not None and state.m.shape != g.shape:
        raise StateError(f"AdamState holds moments for {state.m.size} parameter values, "
                         f"the store has {g.size}")
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
        state._work = np.empty((2, g.size))
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    tmp, step = state._work
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=tmp)
    v *= b2
    np.multiply(g, 1.0 - b2, out=tmp)
    v += np.multiply(tmp, g, out=tmp)
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += state.eps
    np.divide(m, c1, out=step)
    step *= lr
    step /= tmp
    params.values -= step


def make_optimizer(cfg: TrainConfig):
    """Returns a ``step(params)`` closure owning any optimizer state."""
    if cfg.optimizer == "sgd":
        return lambda params: sgd_step(params, cfg.learning_rate)
    state = AdamState(cfg.beta1, cfg.beta2, cfg.adam_eps)
    return lambda params: adam_step(params, cfg.learning_rate, state)


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------

# rows per request that the `score` benchmark hands to predict_probs
EVAL_BATCH = 2048

# Rows per Model.forward when scoring. One 2,048-row forward's conv columns
# and Q/K/V take several MB, overflow a 2 MiB L2 and land on fresh pages each
# call. Untraced forwards of the default config at 10 features, median us/row
# of 7 runs at 128/256/512/2,048-row blocks (2-CPU x86-64 host): hybrid
# 15.2/13.7/13.0/14.0, transformer_only 28.8/28.3/30.1/39.7, cnn_only
# 2.70/2.46/2.47/2.74. 256 is at or near the best for every variant, and
# blocks bound the `score` benchmark's peak RSS (193 MiB in one forward).
SCORE_BLOCK = 256


@checked
def predict_probs(model: Model, X) -> np.ndarray:
    """Probabilities for every row of ``X``, one untraced ``model.forward``
    per ``SCORE_BLOCK`` rows, for a ``Model`` of any variant."""
    X = as_f64(X)
    if X.ndim != 2:
        raise ShapeError(f"X must be 2-D [rows, n_features], got shape {X.shape}")
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], SCORE_BLOCK):
        out[start: start + SCORE_BLOCK], _ = model.forward(
            X[start: start + SCORE_BLOCK], trace=False)
    return out


@checked
def evaluate(model: Model, frame: FeatureFrame, pos_weight: Positive = 1.0,
             probs=None):
    """``(bce loss, MetricsRecord)`` on one split: a fresh pass unless
    ``probs`` already holds the model's probabilities for ``frame``."""
    if probs is None:
        probs = predict_probs(model, frame.X)
    loss, _ = bce_loss(probs, frame.y, pos_weight)
    return loss, evaluate_scores(probs, frame.y, ACC_THRESHOLD)


# ---------------------------------------------------------------------------
# the fit loop
# ---------------------------------------------------------------------------

@blas.limit(FIT_THREADS)
def _fit(model: Model, train_cfg: TrainConfig, splits: Splits) -> RunReport:
    """Fit ``model`` in place on ``splits.train``, restoring the best
    val-AUC epoch's parameters under early stopping; the report's
    ``model_config`` is ``model.config.to_dict()``. Runs at ``FIT_THREADS``
    BLAS threads and restores the caller's count on exit, raise or not."""
    rng = np.random.default_rng(train_cfg.seed)
    step = make_optimizer(train_cfg)
    train, test = splits.train, splits.test
    n = train.n_rows

    curves = {"train_loss": [], "train_acc": [], "test_loss": [], "test_acc": []}
    best_val = -np.inf
    best_epoch: Optional[int] = None
    best_snapshot = best_probs = None
    stale = 0

    for epoch in range(train_cfg.epochs):
        idx = rng.permutation(n) if train_cfg.shuffle else np.arange(n)
        loss_sum = 0.0
        correct = 0
        for b_start in range(0, n, train_cfg.batch_size):
            batch_idx = idx[b_start: b_start + train_cfg.batch_size]
            X, y = train.X[batch_idx], train.y[batch_idx]
            # this forward frees the last step's consumed trace layer by layer,
            # each cache just before its replacement is made, so the heap
            # stays level; dropping the trace after backward instead lets the
            # allocator trim the freed pages, which this forward faults back in
            probs, trace = model.forward(X)
            loss, g_probs = bce_loss(probs, y, train_cfg.pos_weight)
            if not np.isfinite(loss):
                raise NumericError(
                    f"loss diverged at epoch {epoch}, batch {b_start // train_cfg.batch_size}"
                )
            model.params.zero_grads()
            model.backward(trace, g_probs)
            step(model.params)
            loss_sum += loss * batch_idx.size
            correct += int(np.sum((probs >= ACC_THRESHOLD) == (y == 1)))

        curves["train_loss"].append(loss_sum / n)
        curves["train_acc"].append(correct / n)
        test_probs = predict_probs(model, test.X)
        test_loss, _ = bce_loss(test_probs, test.y, train_cfg.pos_weight)
        curves["test_loss"].append(test_loss)
        curves["test_acc"].append(accuracy(test_probs, test.y, ACC_THRESHOLD))
        # probabilities on this epoch's parameters, reused by the final report
        last_probs = {"test": test_probs}

        if train_cfg.early_stop is not None:
            val_probs = predict_probs(model, splits.val.X)
            val_auc = auc(val_probs, splits.val.y)
            last_probs["val"] = val_probs
            if val_auc > best_val:
                best_val = val_auc
                best_epoch = epoch
                best_snapshot = model.params.snapshot()
                best_probs = last_probs
                stale = 0
            else:
                stale += 1
                if stale >= train_cfg.early_stop.patience:
                    break

    if best_snapshot is not None:
        model.params.restore(best_snapshot)
        last_probs = best_probs

    final = {}
    for name, frame in (("train", splits.train), ("val", splits.val), ("test", splits.test)):
        _, final[name] = evaluate(model, frame, train_cfg.pos_weight, last_probs.get(name))

    model_config = model.config.to_dict()
    return RunReport(
        config_hash=stable_hash({"model": model_config, "train": train_cfg.to_dict()}),
        model_config=model_config,
        train_config=train_cfg.to_dict(),
        epochs_run=len(curves["train_loss"]),
        best_epoch=best_epoch,
        curves=curves,
        final=final,
    )


@checked
def train(model_cfg: ModelConfig, train_cfg: TrainConfig,
          splits: Splits) -> tuple[Model, RunReport]:
    """Train the configured variant; returns the fitted model and its report."""
    model = Model(model_cfg)
    report = _fit(model, train_cfg, splits)
    return model, report


@checked
def train_baseline_logistic(train_cfg: TrainConfig,
                            splits: Splits) -> tuple[Model, RunReport]:
    """Linear floor that any interaction-capable model should beat: the
    ``logistic`` variant, trained by ``train``."""
    return train(ModelConfig(splits.train.n_features, variant=BASELINE), train_cfg, splits)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_rows(cells: list, splits: Splits) -> list[dict]:
    """One row per ``(model config, train config, row label)`` cell. The
    callers build every cell first, so a bad grid value raises before any fit."""
    rows = []
    for model_cfg, train_cfg, label in cells:
        row = dict(label)
        try:
            _, report = train(model_cfg, train_cfg, splits)
            row["status"] = "ok"
            row["metrics"] = {s: m.to_dict() for s, m in report.final.items()}
            row["epochs_run"] = report.epochs_run
        except (NumericError, ConfigError) as exc:
            row["status"] = "failed"
            row["error"] = str(exc)
        rows.append(row)
    return rows


def _check_grid(name: str, values: tuple) -> None:
    """Raise ``ConfigError`` if the sweep axis ``values`` is empty."""
    if not values:
        raise ConfigError(f"a sweep needs a non-empty {name} grid")


@checked
def sweep_lr(model_cfg: ModelConfig, base_train_cfg: TrainConfig,
             lrs: tuple[Positive, ...], splits: Splits) -> list[dict]:
    """One seeded run per learning rate, identical otherwise."""
    _check_grid("lrs", lrs)
    return _run_rows([(model_cfg, replace(base_train_cfg, learning_rate=float(lr)),
                       {"lr": float(lr)}) for lr in lrs], splits)


@checked
def sweep_optimizer(model_cfg: ModelConfig, base_train_cfg: TrainConfig,
                    lrs: tuple[Positive, ...], splits: Splits,
                    optimizers: tuple[Optimizer, ...] = OPTIMIZERS) -> list[dict]:
    """Full {optimizer} x {learning rate} grid."""
    _check_grid("lrs", lrs)
    _check_grid("optimizers", optimizers)
    return _run_rows([(model_cfg, replace(base_train_cfg, optimizer=opt,
                                          learning_rate=float(lr)),
                       {"optimizer": opt, "lr": float(lr)})
                      for opt in optimizers for lr in lrs], splits)


@checked
def ablate(model_cfg: ModelConfig, train_cfg: TrainConfig,
           splits: Splits) -> list[dict]:
    """Train cnn_only / transformer_only / hybrid on shared data and seed."""
    return _run_rows([(replace(model_cfg, variant=variant), train_cfg, {"variant": variant})
                      for variant in VARIANTS], splits)
