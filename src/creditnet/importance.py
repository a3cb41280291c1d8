"""Global feature importance by seeded permutation.

For each feature column: shuffle it within the split, re-score the model,
and record how much the metric drops relative to the unshuffled baseline.
Averaged over repeats; model parameters are never touched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import FeatureFrame
from .errors import ConfigError
from .metrics import accuracy, auc
from .records import check_arg, is_integer
from .training import predict_probs, ACC_THRESHOLD


@dataclass(frozen=True)
class FeatureImportance:
    name: str
    index: int
    mean_drop: float
    std_drop: float


@dataclass(frozen=True)
class ImportanceReport:
    baseline: float
    metric: str
    repeats: int
    entries: tuple[FeatureImportance, ...]  # sorted by mean_drop desc, index asc

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "repeats": self.repeats,
            "features": [
                {"feature": e.name, "mean_drop": e.mean_drop, "std_drop": e.std_drop}
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["feature,mean_drop,std_drop"]
        lines += [f"{e.name},{e.mean_drop!r},{e.std_drop!r}" for e in self.entries]
        return "\n".join(lines) + "\n"

    def ranking(self) -> list[str]:
        return [e.name for e in self.entries]


_METRICS = {
    "auc": lambda scores, labels: auc(scores, labels),
    "accuracy": lambda scores, labels: accuracy(scores, labels, ACC_THRESHOLD),
}


def permutation_importance(model, frame: FeatureFrame, metric: str = "auc",
                           repeats: int = 5, seed: int = 0) -> ImportanceReport:
    """Rank features by mean metric drop under per-column shuffling.

    Shuffles are seeded per (feature, repeat), so the report is deterministic
    and each column's evaluation is independent of the others.
    """
    check_arg("frame", frame, FeatureFrame)
    check_arg("metric", metric, str)
    if not (is_integer(repeats) and repeats >= 1):
        raise ConfigError(f"repeats must be an integer >= 1, got {repeats!r}")
    if not is_integer(seed):
        raise ConfigError(f"importance seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"importance seed must be >= 0, got {seed}")
    if metric not in _METRICS:
        raise ConfigError(f"unknown metric {metric!r}; expected one of {sorted(_METRICS)}")
    score = _METRICS[metric]

    baseline = score(predict_probs(model, frame.X), frame.y)
    entries = []
    for f_idx in range(frame.n_features):
        drops = np.empty(repeats)
        for rep in range(repeats):
            rng = np.random.default_rng([seed, f_idx, rep])
            X_perm = frame.X.copy()
            X_perm[:, f_idx] = X_perm[rng.permutation(frame.n_rows), f_idx]
            drops[rep] = baseline - score(predict_probs(model, X_perm), frame.y)
        entries.append(FeatureImportance(
            name=frame.feature_names[f_idx],
            index=f_idx,
            mean_drop=float(np.mean(drops)),
            std_drop=float(np.std(drops)),
        ))

    entries.sort(key=lambda e: (-e.mean_drop, e.index))
    return ImportanceReport(baseline=float(baseline), metric=metric,
                            repeats=repeats, entries=tuple(entries))
