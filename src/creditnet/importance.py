"""Global feature importance by seeded permutation.

For each feature column: shuffle it within the split, re-score the model,
and record how much the metric drops relative to the unshuffled baseline.
Averaged over repeats; model parameters are never touched.
"""

from __future__ import annotations

import json
from typing import Literal

import numpy as np

from .data import FeatureFrame
from .metrics import accuracy, auc
from .records import Count, Seed, checked, record
from .training import predict_probs, ACC_THRESHOLD


@record
class FeatureImportance:
    feature: str
    mean_drop: float
    std_drop: float


@record
class ImportanceReport:
    metric: str
    baseline: float
    repeats: int
    features: tuple[FeatureImportance, ...]  # by mean_drop desc, then column order

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        lines = ["feature,mean_drop,std_drop"]
        lines += [f"{f.feature},{f.mean_drop!r},{f.std_drop!r}" for f in self.features]
        return "\n".join(lines) + "\n"

    def ranking(self) -> list[str]:
        return [f.feature for f in self.features]


_METRICS = {
    "auc": lambda scores, labels: auc(scores, labels),
    "accuracy": lambda scores, labels: accuracy(scores, labels, ACC_THRESHOLD),
}
Metric = Literal[tuple(_METRICS)]


@checked
def permutation_importance(model, frame: FeatureFrame, metric: Metric = "auc",
                           repeats: Count = 5, seed: Seed = 0) -> ImportanceReport:
    """Rank features by mean metric drop under per-column shuffling.

    Shuffles are seeded per (feature, repeat), so the report is deterministic
    and each column's evaluation is independent of the others.
    """
    score = _METRICS[metric]

    baseline = score(predict_probs(model, frame.X), frame.y)
    rows = []  # (mean drop, column, std drop)
    for f_idx in range(frame.n_features):
        drops = np.empty(repeats)
        for rep in range(repeats):
            rng = np.random.default_rng([seed, f_idx, rep])
            X_perm = frame.X.copy()
            X_perm[:, f_idx] = X_perm[rng.permutation(frame.n_rows), f_idx]
            drops[rep] = baseline - score(predict_probs(model, X_perm), frame.y)
        rows.append((float(np.mean(drops)), f_idx, float(np.std(drops))))
    rows.sort(key=lambda row: (-row[0], row[1]))
    return ImportanceReport(
        metric=metric, baseline=float(baseline), repeats=repeats,
        features=tuple(FeatureImportance(frame.feature_names[j], mean, std)
                       for mean, j, std in rows))
