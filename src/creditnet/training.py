"""Cross-entropy objective, SGD/Adam, the epoch loop, and experiment runners.

``train`` drives any model object exposing ``params`` (a ParamStore),
``forward(batch, *, trace=True) -> (probs, trace)`` and
``backward(trace, grad_probs)``; the hybrid network and the logistic
baseline both qualify. Scoring calls ``forward`` with ``trace=False``. Runs
are fully deterministic for fixed seeds and configs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .data import Splits, FeatureFrame
from .errors import ConfigError, NumericError, ShapeError
from .metrics import MetricsRecord, accuracy, auc, check_labels, evaluate_scores
from .model import (PROB_CLAMP, Model, ModelConfig, ParamStore, check_batch,
                    config_from_dict)
from .tensor_ops import as_f64, sigmoid

PROB_EPS = 1e-12  # cross-entropy clamp
ACC_THRESHOLD = 0.5

OPTIMIZERS = ("sgd", "adam")


# ---------------------------------------------------------------------------
# configuration and report records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EarlyStop:
    metric: str = "val_auc"
    patience: int = 10

    def __post_init__(self):
        if self.metric != "val_auc":
            raise ConfigError(f"unsupported early-stop metric {self.metric!r}")
        if self.patience < 1:
            raise ConfigError("early-stop patience must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 100
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    shuffle: bool = True
    early_stop: Optional[EarlyStop] = field(default_factory=EarlyStop)
    pos_weight: float = 1.0

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; expected {OPTIMIZERS}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite positive, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not (0.0 < b < 1.0):
                raise ConfigError(f"{name} must be in (0,1), got {b}")
        for name, value in (("adam_eps", self.adam_eps), ("pos_weight", self.pos_weight)):
            if not (np.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite positive, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if isinstance(d.get("early_stop"), dict):
            d["early_stop"] = config_from_dict(EarlyStop, d["early_stop"])
        return config_from_dict(cls, d)


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

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "model_config": self.model_config,
            "train_config": self.train_config,
            "epochs_run": self.epochs_run,
            "best_epoch": self.best_epoch,
            "curves": self.curves,
            "final": {split: m.to_dict() for split, m in self.final.items()},
        }

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

def bce_loss(probs, labels, pos_weight: float = 1.0):
    """Mean binary cross-entropy with probabilities clamped to
    ``[1e-12, 1 - 1e-12]``; returns ``(loss, d loss / d probs)``.

    The gradient is the exact derivative of the clamped mean: coordinates
    whose raw probability sits outside the clamp window get gradient zero.
    A label other than 0 or 1 is a ``DataError``; probabilities are not
    checked, so a NaN from a diverged model reaches the loss.
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


def sgd_step(params: ParamStore, lr: float) -> None:
    """Vanilla gradient descent: values <- values - lr * grads."""
    _check_grads(params)
    params.values -= lr * params.grads


class AdamState:
    """First/second moment vectors, aligned with one ParamStore's flat
    buffers and allocated on the first step, plus the shared step counter."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m: Optional[np.ndarray] = None
        self.v: Optional[np.ndarray] = None
        # two work vectors: fresh store-sized temporaries on every step cost
        # page faults that made the update about 2.5x slower
        self._work: Optional[np.ndarray] = None


def adam_step(params: ParamStore, lr: float, state: AdamState) -> None:
    """Bias-corrected Adam update over the whole store; ``state`` persists
    across steps. Every element sees the operations of
    ``value -= lr * (m / c1) / (sqrt(v / c2) + eps)`` in the same order."""
    _check_grads(params)
    g = params.grads
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
# 31.5/31.9/31.3/30.2, cnn_only 4.3/3.8/3.7/7.5, transformer_only
# 47.3/45.9/66.0/61.1. 256 is at or near the best for every variant, and
# blocks bound the `score` benchmark's peak RSS (193 MiB in one forward).
SCORE_BLOCK = 256


def predict_probs(model, X: np.ndarray) -> np.ndarray:
    """Probabilities for every row of ``X``, one untraced ``model.forward``
    per ``SCORE_BLOCK`` rows."""
    X = as_f64(X)
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], SCORE_BLOCK):
        out[start: start + SCORE_BLOCK], _ = model.forward(
            X[start: start + SCORE_BLOCK], trace=False)
    return out


def evaluate(model, frame: FeatureFrame, pos_weight: float = 1.0,
             probs: Optional[np.ndarray] = None):
    """``(bce loss, MetricsRecord)`` on one split: a fresh pass unless
    ``probs`` already holds the model's probabilities for ``frame``."""
    if probs is None:
        probs = predict_probs(model, frame.X)
    loss, _ = bce_loss(probs, frame.y, pos_weight)
    return loss, evaluate_scores(probs, frame.y, ACC_THRESHOLD)


# ---------------------------------------------------------------------------
# the fit loop
# ---------------------------------------------------------------------------

def _fit(model, train_cfg: TrainConfig, splits: Splits, model_config: dict) -> RunReport:
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

    return RunReport(
        config_hash=stable_hash({"model": model_config, "train": train_cfg.to_dict()}),
        model_config=model_config,
        train_config=train_cfg.to_dict(),
        epochs_run=len(curves["train_loss"]),
        best_epoch=best_epoch,
        curves=curves,
        final=final,
    )


def train(model_cfg: ModelConfig, train_cfg: TrainConfig,
          splits: Splits) -> tuple[Model, RunReport]:
    """Train the configured variant; returns the fitted model and its report."""
    model = Model(model_cfg)
    report = _fit(model, train_cfg, splits, model_cfg.to_dict())
    return model, report


# ---------------------------------------------------------------------------
# logistic baseline
# ---------------------------------------------------------------------------

class LogisticModel:
    """Single linear layer + sigmoid, trained with the same loop."""

    def __init__(self, n_features: int):
        self.n_features = n_features
        self.params = ParamStore()
        self.params.add("weight", np.zeros(n_features))
        self.params.add("bias", np.zeros(1))

    def forward(self, batch, *, trace: bool = True):
        X = check_batch(batch, self.n_features)
        z = X @ self.params["weight"].value + self.params["bias"].value[0]
        probs = np.clip(sigmoid(z), PROB_CLAMP, 1.0 - PROB_CLAMP)
        return probs, ({"X": X, "probs": probs} if trace else None)

    def backward(self, trace, grad_probs):
        X, probs = trace["X"], trace["probs"]
        g_z = as_f64(grad_probs) * probs * (1.0 - probs)
        self.params["weight"].grad += X.T @ g_z
        self.params["bias"].grad += np.sum(g_z, keepdims=True)


def train_baseline_logistic(train_cfg: TrainConfig,
                            splits: Splits) -> tuple[LogisticModel, RunReport]:
    """Linear floor that any interaction-capable model should beat."""
    model = LogisticModel(splits.train.n_features)
    cfg_dict = {"variant": "logistic", "n_features": splits.train.n_features}
    report = _fit(model, train_cfg, splits, cfg_dict)
    return model, report


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------

def _run_row(model_cfg, train_cfg, splits, label: dict) -> dict:
    row = dict(label)
    try:
        _, report = train(model_cfg, train_cfg, splits)
        row["status"] = "ok"
        row["metrics"] = {s: m.to_dict() for s, m in report.final.items()}
        row["epochs_run"] = report.epochs_run
    except (NumericError, ConfigError) as exc:
        row["status"] = "failed"
        row["error"] = str(exc)
    return row


def sweep_lr(model_cfg: ModelConfig, base_train_cfg: TrainConfig,
             lrs: Sequence[float], splits: Splits) -> list[dict]:
    """One seeded run per learning rate, identical otherwise."""
    if not lrs:
        raise ConfigError("sweep_lr needs a non-empty learning-rate grid")
    return [
        _run_row(model_cfg, replace(base_train_cfg, learning_rate=float(lr)),
                 splits, {"lr": float(lr)})
        for lr in lrs
    ]


def sweep_optimizer(model_cfg: ModelConfig, base_train_cfg: TrainConfig,
                    lrs: Sequence[float], splits: Splits,
                    optimizers: Sequence[str] = OPTIMIZERS) -> list[dict]:
    """Full {optimizer} x {learning rate} grid."""
    if not lrs:
        raise ConfigError("sweep_optimizer needs a non-empty learning-rate grid")
    rows = []
    for opt in optimizers:
        for lr in lrs:
            cfg = replace(base_train_cfg, optimizer=opt, learning_rate=float(lr))
            rows.append(_run_row(model_cfg, cfg, splits,
                                 {"optimizer": opt, "lr": float(lr)}))
    return rows


def ablate(model_cfg: ModelConfig, train_cfg: TrainConfig,
           splits: Splits) -> list[dict]:
    """Train cnn_only / transformer_only / hybrid on shared data and seed."""
    rows = []
    for variant in ("cnn_only", "transformer_only", "hybrid"):
        cfg = replace(model_cfg, variant=variant)
        rows.append(_run_row(cfg, train_cfg, splits, {"variant": variant}))
    return rows
