#!/usr/bin/env python3
# Global feature importance by seeded permutation: shuffle one column,
# re-score, record the AUC drop. The generator controls the ground truth,
# so the recovered ranking can be judged objectively.

import numpy as np

from creditnet import (
    ModelConfig, TrainConfig, EarlyStop, SchemaConfig, SplitSpec, SynthSpec,
    synth_generate, prepare_splits, train, permutation_importance,
)

# %% data where importance has a known answer: w = [3, 2, 1, 0, ...]
spec = SynthSpec(linear=(3.0, 2.0, 1.0))
frame, _ = synth_generate(n=6000, n_features=8, seed=5, spec=spec)
schema = SchemaConfig("label", tuple(frame.feature_names))
splits, _ = prepare_splits(frame, schema, SplitSpec(seed=5))

model, report = train(
    ModelConfig(n_features=8, seed=0),
    TrainConfig(seed=0, epochs=50, early_stop=EarlyStop(patience=10)),
    splits,
)
print(f"model test AUC: {report.final['test'].auc:.4f}")

# %% permutation importance on the held-out split
imp = permutation_importance(model, splits.test, metric="auc", repeats=5, seed=0)
print(f"\nbaseline {imp.metric} = {imp.baseline:.4f}, {imp.repeats} repeats")
print(f"{'feature':>8}  {'mean drop':>10}  {'std':>8}")
for entry in imp.features:
    bar = "#" * max(0, int(120 * max(entry.mean_drop, 0.0)))
    print(f"{entry.feature:>8}  {entry.mean_drop:>10.4f}  {entry.std_drop:>8.4f}  {bar}")

expected = ["f0", "f1", "f2"]
recovered = imp.ranking()[:3]
print(f"\ngenerator's top features : {expected}")
print(f"recovered top features   : {recovered}")
print(f"ranking matches generator: {recovered == expected}")

# %% repeats trade cost for stability; the leader should not depend on them
one = permutation_importance(model, splits.test, repeats=1, seed=3)
ten = permutation_importance(model, splits.test, repeats=10, seed=3)
lead_1 = one.ranking()[0]
lead_10 = ten.ranking()[0]
std_10 = [e.std_drop for e in ten.features if e.feature == lead_10][0]
print(f"\nleader with 1 repeat: {lead_1}, with 10 repeats: {lead_10} "
      f"(std at 10 repeats {std_10:.4f})")

# %% CSV form, the same table the command-line tool writes
print("\n" + imp.to_csv())
